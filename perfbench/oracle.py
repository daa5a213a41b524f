"""Output oracle: counter digests and the committed expected values.

``expected.json`` holds the digest of the exact simulated ``Counters``
for every (workload, scene, config, strategy) the benchmark runs, at
seed 0 and at the held-out seed, generated from the stepped backend by
``perfbench/regen_expected.py``.  Seeds outside that set are checked
differentially instead (vector against stepped, service against
in-process, fresh process against fresh process).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Seeds whose digests are committed.  Later changes confirm a claim on
#: the held-out seed, which no tuning has looked at.
SEED = 0
HELD_OUT_SEED = 7331


def counters_digest(counters) -> str:
    """SHA-256 over every integer field of a ``Counters``."""
    payload = {f.name: getattr(counters, f.name) for f in fields(counters)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def job_key(scene: str, config: str, strategy: str, width: int,
            height: int, spp: int, bounces: int, seed: int,
            scale: Optional[float]) -> str:
    """The oracle key naming one simulated job, whatever the backend."""
    return (f"{scene}|{config}|{strategy}|{width}x{height}x{spp}"
            f"|b{bounces}|seed{seed}|scale{scale}")


class Oracle:
    """Expected digests plus a record of every check made."""

    def __init__(self, path: Path = EXPECTED_PATH) -> None:
        data = json.loads(Path(path).read_text())
        self.digests: Dict[str, str] = data["digests"]
        self.lint_files: Dict[str, int] = data["lint_files"]

    def expected(self, key: str) -> Optional[str]:
        return self.digests.get(key)


def check_op(op: Dict, label: str, ok: bool) -> None:
    """Attach one named check to an op record."""
    op.setdefault("checks", []).append((label, bool(ok)))


def check_expected(op: Dict, oracle: Oracle, key: str, digest: str) -> None:
    """Check a digest against the committed value, when there is one."""
    expected = oracle.expected(key)
    if expected is not None:
        check_op(op, f"expected digest {key}", digest == expected)


def failures(ops: List[Dict]) -> List[str]:
    """Human-readable descriptions of every failed check."""
    out = []
    for op in ops:
        for label, ok in op.get("checks", []):
            if not ok:
                out.append(f"{op['name']}: {label}")
        if not op.get("checks"):
            out.append(f"{op['name']}: no correctness check ran")
    return out
