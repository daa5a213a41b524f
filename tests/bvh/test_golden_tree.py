"""Tree-identity golden: every benchmark scene builds the same BVH6, bit for bit.

``golden_bvh.json`` pins a SHA-256 per scene and split strategy over the
laid-out wide BVH (node indices, children, primitive ids, bound bits,
depths, addresses, sizes, child-bound arrays, footprint) and the binary
build's primitive order; see ``tools/bvh_digest.py``.  Any change to
the builder, the wide collapse or the layout that moves one bit of one
tree fails here.

Regenerate only when a tree change is intended::

    PYTHONPATH=src python tests/bvh/test_golden_tree.py
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.workloads.lumibench import BENCH_SCALE_ENV, SCENE_NAMES, load_scene

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bvh_digest.py"
_spec = importlib.util.spec_from_file_location("bvh_digest", _TOOL)
bvh_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bvh_digest)

GOLDEN = bvh_digest.load_golden()


@pytest.fixture(autouse=True)
def _default_scale(monkeypatch):
    monkeypatch.delenv(BENCH_SCALE_ENV, raising=False)


@pytest.mark.parametrize("strategy", bvh_digest.STRATEGIES)
@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_tree_matches_golden(scene_name, strategy):
    key = bvh_digest.golden_key(scene_name, strategy)
    assert key in GOLDEN, f"no golden digest for {key}"
    digest = bvh_digest.tree_digest(load_scene(scene_name), strategy)
    assert digest == GOLDEN[key], f"{key} tree changed"


if __name__ == "__main__":
    import os

    os.environ.pop(BENCH_SCALE_ENV, None)
    sys.exit(bvh_digest.main(["--write", "--strategies", "median,sah", *SCENE_NAMES]))
