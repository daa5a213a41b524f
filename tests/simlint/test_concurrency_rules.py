"""Seeded red-gates for the SL5xx concurrency family and SL110 taint.

Each test copies the *real* coordinator into a scratch tree, seeds one
textbook event-loop hazard into it, and lints through the real config:
the gate must flip to exit code 1 with exactly the expected rule.  The
unmodified copy linting clean is the control.
"""

import shutil
from pathlib import Path

from repro.simlint import lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The serve loop's wait for its next wake-up: the blocking-sleep and
#: sync-lock seeds land inside `_serve_loop`, an async def running on the
#: coordinator's event loop.
NEEDLE = "await self._wake.wait()"

#: The serial fallback's await on one in-process job: the discarded-
#: coroutine and stale-write seeds land inside `_serial_drain`, the
#: tracked task that runs stranded work on the same event loop.
SERIAL_NEEDLE = "await self._run_serial(entry)"


def seeded_report(tmp_path, mutate):
    tree = tmp_path / "src" / "repro" / "service"
    tree.mkdir(parents=True)
    target = tree / "coordinator.py"
    shutil.copyfile(
        REPO_ROOT / "src" / "repro" / "service" / "coordinator.py", target
    )
    source = target.read_text()
    mutated = mutate(source)
    assert mutated != source, "seed did not apply"
    target.write_text(mutated)
    config = load_config(REPO_ROOT / "pyproject.toml")
    return lint_paths([str(tmp_path / "src")], config=config)


def rules_of(report):
    return sorted({f.rule for f in report.errors})


def test_unmodified_coordinator_is_clean(tmp_path):
    report = seeded_report(tmp_path, lambda s: s + "\n# control copy\n")
    assert report.errors == [], rules_of(report)
    assert report.exit_code == 0


def test_seeded_blocking_sleep_fires_sl501(tmp_path):
    report = seeded_report(tmp_path, lambda s: s.replace(
        NEEDLE, "import time; time.sleep(self.config.poll_tick)", 1
    ))
    assert report.exit_code == 1
    # The call-site clock rules co-fire (repro.service is also
    # timing-critical); the event-loop hazard itself must be SL501.
    assert "SL501" in rules_of(report)


def test_seeded_discarded_coroutine_fires_sl502(tmp_path):
    report = seeded_report(tmp_path, lambda s: s.replace(
        SERIAL_NEEDLE, "self._run_serial(entry)", 1
    ))
    assert report.exit_code == 1
    assert rules_of(report) == ["SL502"]


def test_seeded_await_under_sync_lock_fires_sl503(tmp_path):
    report = seeded_report(tmp_path, lambda s: s.replace(
        NEEDLE,
        "with self._poll_lock:\n                " + NEEDLE,
        1,
    ))
    assert report.exit_code == 1
    assert rules_of(report) == ["SL503"]


def test_seeded_stale_read_modify_write_fires_sl504(tmp_path):
    seed = (
        "depth = self.metrics.queue_depth\n"
        "            " + SERIAL_NEEDLE + "\n"
        "            self.metrics.queue_depth = depth + 1"
    )
    report = seeded_report(tmp_path, lambda s: s.replace(
        SERIAL_NEEDLE, seed, 1
    ))
    assert report.exit_code == 1
    assert rules_of(report) == ["SL504"]


def test_seeded_tainted_cache_key_fires_sl110(tmp_path):
    seed = (
        "\n\ndef cache_key(entry):\n"
        "    return f\"{id(entry):x}\"\n"
    )
    report = seeded_report(tmp_path, lambda s: s + seed)
    assert report.exit_code == 1
    # SL104 co-fires on the direct id() call (timing-critical scope);
    # SL110 is the flow finding: the taint reaches the sink's return.
    assert "SL110" in rules_of(report)
