"""One measured run in a fresh interpreter; prints its result as one JSON line.

    python3 perfbench/child.py {setup|sweep|trace} <workload> <seed>

`setup` times importing `fdiab`, validating the workload's config and
building its scenarios. `sweep` does the same and then times one
`run_experiment` call at the workload's own worker count, reporting the
peak resident set of this process and of its worker processes. `trace` runs
the sweep in-process untraced, then traced with the per-layer wrappers, and
reports the per-layer metrics; for a multi-worker workload it also times the
untraced sweep at the workload's worker count, for the pool efficiency.
`fdiab` must be importable (the parent puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import json
import logging
import os
import resource
import sys
import time
from dataclasses import replace

import workloads


class FailedTrials(logging.Handler):
    """Collects the (experiment, trial) of every `trial failed` warning of the harness."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.trials: list[tuple[str, int]] = []

    def emit(self, record):
        if record.getMessage().startswith("trial failed:"):
            self.trials.append((record.args[0], record.args[1]))


def set_up(workload: str, seed: int):
    """(config, set-up seconds), timed from before the first import of `fdiab`."""
    start = time.perf_counter()
    from fdiab.config import ExperimentConfig
    from fdiab.scenario import build_scenario
    cfg = ExperimentConfig(**workloads.overrides(workload, seed))
    cfg.validate()
    distance = {"fig5": cfg.cee_backhaul_distance_m, "fig6": cfg.sic_backhaul_distance_m}
    for experiment in cfg.experiments:
        build_scenario(replace(cfg, backhaul_distance_m=distance.get(experiment,
                                                                     cfg.backhaul_distance_m)))
    return cfg, time.perf_counter() - start


def timed_sweep(cfg):
    from fdiab.harness import run_experiment
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result.rows, time.perf_counter() - start


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children term covers joined worker processes
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def traced_run(cfg, workload: str) -> dict:
    from fdiab import harness
    from tracing import Tracer

    in_process = replace(cfg, threads=1)
    untraced_rows, untraced_s = timed_sweep(in_process)
    tracer = Tracer()
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{workload}-trace.csv")
    with tracer.installed():
        start = time.perf_counter()
        result = harness.run_experiment(in_process)
        harness.write_csv(result, csv_path)
        end = time.perf_counter()
    pool_rows, sweep_s = untraced_rows, untraced_s
    if cfg.threads > 1:
        pool_rows, sweep_s = timed_sweep(cfg)

    self_times = tracer.self_times()
    metrics = {}
    for name, (seconds, calls) in self_times.items():
        metrics[f"{name}.s"] = (seconds, "s")
        metrics[f"{name}.n"] = (calls, "count")
    metrics["harness.csv_bytes"] = (os.path.getsize(csv_path), "B")
    # in-process trial time over the worker-seconds of the untraced sweep
    metrics["harness.pool_efficiency"] = (tracer.trial_time() / (cfg.threads * sweep_s),
                                          "ratio")
    metrics["channel.svd_core_mb"] = (tracer.counters["channel.svd_core_mb"], "MB")
    for name in ("link.subcarriers_evaluated", "link.regularized_subcarriers"):
        metrics[name] = (tracer.counters[name], "count")
    remainder = tracer.remainder(start, end)
    metrics["trace.remainder.s"] = (remainder, "s")
    metrics["trace.overhead"] = ((end - start) / untraced_s - 1.0, "ratio")
    self_sum = sum(seconds for seconds, _ in self_times.values())
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "traced_wall_s": end - start, "self_sum_s": self_sum, "remainder_s": remainder,
            "rows": result.rows, "untraced_rows": untraced_rows, "pool_rows": pool_rows,
            "sweeps": 3 if cfg.threads > 1 else 2}


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    failed = FailedTrials()
    logging.getLogger("fdiab.harness").addHandler(failed)
    cfg, setup_s = set_up(workload, seed)
    out = {"setup_s": setup_s}
    if mode == "sweep":
        rows, sweep_s = timed_sweep(cfg)
        out.update(sweep_s=sweep_s, peak_rss_mb=peak_rss_mb(), rows=rows)
    elif mode == "trace":
        out.update(traced_run(cfg, workload))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["failed_trials"] = failed.trials
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
