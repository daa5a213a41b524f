"""Workload ``lint-snapshot``: simlint over a pinned revision of the repo.

The input is ``src/``, ``tools/`` and ``tests/`` of revision 7ef5acf,
committed beside this file as ``snapshot-7ef5acf.tar.xz`` and pinned by
its SHA-256, so code added later never changes what is linted.  Each
pass runs a cold lint (empty analysis cache), then a warm re-lint that
reads the cache the cold run wrote; the pair is one operation.  This is
the only workload that runs simlint, and simlint runs in no other.

The archive was made with::

    git archive 7ef5acf src tools tests pyproject.toml simlint-baseline.json | xz -9
"""

from __future__ import annotations

import hashlib
import os
import tarfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.simlint import (
    AnalysisCache,
    lint_paths,
    load_baseline,
    load_config,
)

from perfbench.common import self_rss_mb
from perfbench.oracle import check_op
from perfbench.spans import maybe_op, maybe_span

NAME = "lint-snapshot"
SNAPSHOT = Path(__file__).with_name("snapshot-7ef5acf.tar.xz")
SNAPSHOT_SHA256 = (
    "2e1a82339ab1904df39dd9ffb8ffa6c1f124a10181156d53b6b9385e7cf10a36"
)
PATHS = ("src", "tools", "tests")
TINY_PATHS = ("src/repro/workloads",)


def lint_paths_for(tiny: bool):
    return TINY_PATHS if tiny else PATHS


@contextmanager
def _inside(directory: Path):
    """Run with ``directory`` as the working directory, as ``repro lint`` does."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def extract_snapshot(target: Path) -> None:
    """Unpack the pinned snapshot; fail loudly if it is missing or altered."""
    data = SNAPSHOT.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != SNAPSHOT_SHA256:
        raise RuntimeError(
            f"lint snapshot {SNAPSHOT.name} has SHA-256 {digest}, "
            f"expected {SNAPSHOT_SHA256}"
        )
    with tarfile.open(SNAPSHOT, "r:xz") as archive:
        archive.extractall(target, filter="data")


def setup(ctx, rec=None):
    with maybe_span(rec, "bench.extract_snapshot", "bench"):
        snapshot = ctx.fresh_dir("lint-snapshot")
        extract_snapshot(snapshot)
    return {"snapshot": snapshot}


def _lint(paths, cache_path, rec, label):
    with maybe_span(rec, f"simlint.{label}", "simlint"):
        config = load_config(Path("pyproject.toml"))
        baseline = load_baseline(config.baseline_path)
        cache = AnalysisCache.load(cache_path, config)
        return lint_paths(list(paths), config=config, baseline=baseline,
                          cache=cache)


def run_pass(ctx, state, rec=None) -> dict:
    paths = lint_paths_for(ctx.tiny)
    cache_path = ctx.fresh_dir("lint-cache") / "simlint-cache.json"
    name = "lint " + " ".join(paths)
    with _inside(state["snapshot"]):
        begin = time.perf_counter()
        with maybe_op(rec, name):
            cold = _lint(paths, cache_path, rec, "cold")
            middle = time.perf_counter()
            warm = _lint(paths, cache_path, rec, "warm")
        end = time.perf_counter()
    expected_files = ctx.oracle.lint_files[" ".join(paths)]
    op = {"name": name, "seconds": end - begin}
    for label, report in (("cold", cold), ("warm", warm)):
        check_op(op, f"{label} lint exits 0", report.exit_code == 0)
        check_op(op, f"{label} lint reads {expected_files} files",
                 report.files == expected_files)
    check_op(op, "warm lint reparses nothing", warm.reparsed == 0)
    counts = {
        "simlint.cold_s": middle - begin,
        "simlint.warm_s": end - middle,
        "simlint.files": cold.files,
        "simlint.findings": len(cold.findings),
    }
    return {"wall": end - begin, "latencies": [end - begin], "ops": [op],
            "counts": counts, "rss_mb": self_rss_mb()}


def finish(ctx, state, ops, rec=None) -> dict:
    """Every check already ran inside the pass."""
    return {}
