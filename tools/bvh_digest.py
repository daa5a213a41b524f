"""Print or check SHA-256 digests of built BVHs.

A digest covers everything the traversal and timing layers read from a
laid-out BVH6: every wide node's index, children, primitive ids (values
and element type), bound bits, depth, address and size; the per-node
child-bound arrays; the total footprint; and the binary build's
primitive order.  Two builds with equal digests are the same tree, bit
for bit.

The committed digests live in ``tests/bvh/golden_bvh.json``, keyed by
``SCENE:strategy`` at the reduced default scale and by
``SCENE:strategy@SCALE`` when ``REPRO_BENCH_SCALE`` is set.  Usage, from
the repo root::

    PYTHONPATH=src python tools/bvh_digest.py SHIP BUNNY          # print
    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python tools/bvh_digest.py \\
        --check SHIP BUNNY SPNZA                                  # gate

``--check`` exits 1 if any digest differs from (or is missing in) the
committed file; ``--write`` records the printed digests there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable

from repro.bvh.api import DEFAULT_WIDTH
from repro.bvh.builder import build_binary_bvh
from repro.bvh.layout import assign_addresses
from repro.bvh.wide import collapse_to_wide
from repro.workloads.lumibench import bench_scale, load_scene

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "bvh" / "golden_bvh.json"
STRATEGIES = ("median", "sah")


def _update_array(h, array) -> None:
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())


def tree_digest(scene, strategy: str) -> str:
    """SHA-256 over the laid-out BVH6 (and binary prim order) of ``scene``."""
    binary = build_binary_bvh(scene, strategy=strategy)
    wide = collapse_to_wide(binary, width=DEFAULT_WIDTH)
    assign_addresses(wide)
    h = hashlib.sha256()
    for node in wide.nodes:
        record = (
            node.index, node.children, node.depth, node.address,
            node.size_bytes, [int(p) for p in node.prim_ids],
            sorted({type(p).__name__ for p in node.prim_ids}),
        )
        h.update(repr(record).encode())
        _update_array(h, node.bounds.lo)
        _update_array(h, node.bounds.hi)
    for array in wide.child_los + wide.child_his:
        _update_array(h, array)
    h.update(f"total={wide.total_bytes}".encode())
    _update_array(h, binary.prim_order)
    return h.hexdigest()


def golden_key(scene_name: str, strategy: str) -> str:
    """Key of one digest in the golden file at the current scale."""
    scale = bench_scale()
    suffix = "" if scale is None or scale < 1.0 else f"@{scale:g}"
    return f"{scene_name.upper()}:{strategy}{suffix}"


def digests(scene_names: Iterable[str], strategies: Iterable[str]) -> dict:
    """``{golden_key: digest}`` for every named scene and strategy."""
    out = {}
    for name in scene_names:
        scene = load_scene(name)
        for strategy in strategies:
            out[golden_key(name, strategy)] = tree_digest(scene, strategy)
    return out


def load_golden() -> dict:
    """The committed digests."""
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenes", nargs="+", help="scene names, e.g. SHIP")
    parser.add_argument("--strategies", default="median",
                        help="comma-separated split strategies")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed digests")
    mode.add_argument("--write", action="store_true",
                      help="record the digests in the committed file")
    args = parser.parse_args(argv)
    strategies = [s for s in args.strategies.split(",") if s]
    got = digests(args.scenes, strategies)
    golden = load_golden()
    bad = 0
    for key, digest in got.items():
        status = ""
        if args.check:
            status = "  ok" if golden.get(key) == digest else "  MISMATCH"
            bad += status != "  ok"
        sys.stdout.write(f"{key} {digest}{status}\n")
    if args.write:
        golden.update(got)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
