"""The repository benchmark: end-to-end and per-layer metrics.

Run one workload with::

    python3 perfbench/run.py --workload config-sweep --seed 0 --seconds 10 --trace 0

``NOTES.md`` beside this file explains the workloads, the metrics and
the predictions they encode.
"""
