"""Analysis / export module tests."""

import csv
import json

import pytest

from repro.analysis import (
    Campaign,
    results_markdown,
    results_to_rows,
    write_csv,
    write_json,
)
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def campaign_result():
    campaign = Campaign(
        configs=("RB_8", "RB_FULL"),
        scenes=("SHIP",),
        params=WorkloadParams().scaled(0.25),
    )
    return campaign.run()


def test_campaign_runs_all_pairs(campaign_result):
    assert len(campaign_result.results) == 2
    labels = {r.label for r in campaign_result.results}
    assert labels == {"RB_8", "RB_FULL"}


def test_normalized_means(campaign_result):
    means = campaign_result.normalized_means()
    assert means["RB_8"] == pytest.approx(1.0)
    assert means["RB_FULL"] >= 0.95


def test_rows_have_all_columns(campaign_result):
    from repro.analysis.export import COLUMNS

    rows = results_to_rows(campaign_result.results)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(COLUMNS)
        assert row["scene"] == "SHIP"


def test_csv_roundtrip(campaign_result, tmp_path):
    path = campaign_result.to_csv(tmp_path / "runs.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["ipc"]) > 0


def test_json_roundtrip(campaign_result, tmp_path):
    path = campaign_result.to_json(tmp_path / "runs.json")
    data = json.loads(path.read_text())
    assert len(data) == 2
    assert data[0]["config"] in ("RB_8", "RB_FULL")


def test_markdown_table(campaign_result):
    text = campaign_result.to_markdown()
    assert "| scene |" in text
    assert "SHIP" in text
    assert "1.000" in text  # baseline normalized to itself


def test_markdown_handles_missing_baseline(campaign_result):
    text = results_markdown(campaign_result.results, baseline_label="NOPE")
    assert "SHIP" in text  # falls back to raw IPC


def test_campaign_accepts_config_objects():
    from repro.core.presets import baseline_config

    campaign = Campaign(
        configs=(baseline_config(), "RB_FULL"),
        scenes=("SHIP",),
        params=WorkloadParams().scaled(0.25),
    )
    result = campaign.run()
    assert len(result.results) == 2


def test_configs_sharing_a_label_keep_separate_cells():
    """``describe()`` omits ``max_borrows``; the cells must not collide."""
    from repro.core.presets import sms_config

    campaign = Campaign(
        configs=("RB_8", sms_config(), sms_config().with_(max_borrows=1)),
        scenes=("SHIP",),
        params=WorkloadParams().scaled(0.25),
        jobs=1,
        use_cache=False,
    )
    result = campaign.run()
    labels = ["RB_8", "RB_8+SH_8+SK+RA", "RB_8+SH_8+SK+RA#2"]
    assert list(result.normalized_means()) == labels
    header = result.to_markdown().splitlines()[0]
    assert header == "| scene | " + " | ".join(labels) + " |"
