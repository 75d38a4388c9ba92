"""End-to-end and per-layer benchmark of the leavittpath report pipeline.

Run one workload with ``python3 lpabench/run.py --workload pool --seed 1``;
see ``lpabench/README.md`` for the metrics and workloads.
"""
