"""Regenerate ``expected.json``: the committed output oracle.

Every digest comes from the stepped backend, the bit-identity oracle:
each (scene, config, strategy) job of every workload, at seed 0 and at
the held-out seed, plus the tiny smoke inputs at seed 0.  The lint
file counts pin what the snapshot lint must read.  Run from the root of
a checkout::

    python3 perfbench/regen_expected.py

Regenerate only when a change is meant to alter simulated output, and
say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _context(seed, tiny, scratch):
    from perfbench.common import Context

    return Context(root=ROOT, seed=seed, trace=False, tiny=tiny,
                   oracle=None, scratch=scratch)


def _fullscale(ctx, digests):
    from perfbench import fullscale

    jobs = [(scene, "stepped") for scene, _ in fullscale.JOBS]
    for op in fullscale.spawn(ctx, jobs, traced=False)["ops"]:
        digests[op["key"]] = op["digest"]


def _sweep(ctx, digests):
    from repro.core.presets import named_config
    from repro.gpu.simulator import GPUSimulator

    from perfbench import sweep
    from perfbench.oracle import counters_digest, job_key

    state = sweep.setup(ctx)
    for (scene, strategy), traces in state["traces"].items():
        width, height, spp, bounces = sweep.shape(ctx, scene)
        for config, run_strategy in sweep.runs(ctx):
            if run_strategy != strategy:
                continue
            output = GPUSimulator(
                config=named_config(config), verify_pops=False,
                strategy=strategy, backend="stepped",
            ).run_traces(traces)
            key = job_key(scene, config, strategy, width, height, spp,
                          bounces, ctx.seed, None)
            digests[key] = counters_digest(output.counters)


def _service(ctx, digests):
    from perfbench import service
    from perfbench.oracle import counters_digest, job_key

    for job in service.jobs_for(ctx):
        key = job_key(job.scene, job.config.describe(), job.strategy,
                      job.width, job.height, job.spp, job.max_bounces,
                      job.seed, None)
        digests[key] = counters_digest(job.run().counters)


def _lint_files(scratch):
    import os

    from repro.simlint import lint_paths, load_config

    from perfbench import lint

    snapshot = scratch / "snapshot"
    snapshot.mkdir(parents=True)
    lint.extract_snapshot(snapshot)
    counts = {}
    previous = os.getcwd()
    os.chdir(snapshot)
    try:
        for tiny in (False, True):
            paths = lint.lint_paths_for(tiny)
            report = lint_paths(list(paths), config=load_config(
                Path("pyproject.toml")))
            counts[" ".join(paths)] = report.files
    finally:
        os.chdir(previous)
    return counts


def main() -> int:
    import shutil

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import WORK_DIR
    from perfbench.oracle import EXPECTED_PATH, HELD_OUT_SEED, SEED

    scratch = ROOT / WORK_DIR / "regen"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    digests = {}
    try:
        for seed, tiny in ((SEED, False), (HELD_OUT_SEED, False),
                           (SEED, True)):
            ctx = _context(seed, tiny, scratch)
            for build in (_fullscale, _sweep, _service):
                build(ctx, digests)
                print(f"seed {seed} tiny={tiny} {build.__name__}: "
                      f"{len(digests)} digests", file=sys.stderr)
        lint_files = _lint_files(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps({
        "held_out_seed": HELD_OUT_SEED,
        "digests": dict(sorted(digests.items())),
        "lint_files": lint_files,
    }, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
