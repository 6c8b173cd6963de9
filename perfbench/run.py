"""Batch benchmark of `fdiab.harness.run_experiment`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

With `--trace 0` it runs whole sweeps of the workload, each in a fresh
interpreter, for about S seconds, and reports the medians of `sweep_s`,
`setup_s` and `peak_rss_mb`. With `--trace 1` it runs one traced in-process
sweep and reports the per-layer metrics. The outputs are checked after the
timed calls; the last line of standard output is one JSON object. The exit
status is non-zero when a check fails or a run does not complete. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from fdiab.config import ExperimentConfig  # noqa: E402

# set-up is short, so every run takes this many set-up-only samples beyond
# the one of each sweep; a first, discarded one warms the file cache
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def run_child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run child.py in a fresh interpreter in its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, workload, str(seed)],
                            stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{mode} run of {workload} passed the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run of {workload} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tasks(cfg) -> int:
    return len(cfg.experiments) * cfg.trials


def output_checks(cfg, rows, logged, heavy: bool, reference=None) -> dict[str, str]:
    failed = checks.row_checks(cfg, rows, logged)
    if heavy and "fig6" in cfg.experiments:
        message = checks.full_digital_oracle(cfg, rows)
        if message:
            failed["full_digital_oracle"] = message
    if heavy and cfg.threads > 1:
        message = checks.worker_independence(cfg, rows, reference)
        if message:
            failed["worker_independence"] = message
    return failed


def measure(workload: str, seed: int, seconds: float, deadline: float, cfg):
    run_child("setup", workload, seed, deadline)
    sweeps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        sweeps.append(run_child("sweep", workload, seed, deadline))
        # start another sweep only if it should end within the run length
        if time.monotonic() - start + (time.monotonic() - began) > seconds:
            break
    setups = [run_child("setup", workload, seed, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    setups += [s["setup_s"] for s in sweeps]

    failed = {}
    for i, sweep in enumerate(sweeps):
        failed.update(output_checks(cfg, sweep["rows"], sweep["failed_trials"], i == 0))
        if sweep["rows"] != sweeps[0]["rows"]:
            failed["reruns_identical"] = f"sweep {i} differs from sweep 0"
    print(f"{workload}: {len(sweeps)} sweeps of {tasks(cfg)} trials, "
          f"sweep_s {[round(s['sweep_s'], 3) for s in sweeps]}, "
          f"setup_s median of {len(setups)}")
    metrics = {
        "sweep_s": (statistics.median(s["sweep_s"] for s in sweeps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sweeps), "MB"),
    }
    lost = sum(len(checks.missing_trials(cfg, s["rows"])) for s in sweeps)
    return metrics, len(sweeps) * tasks(cfg), lost, failed


def trace(workload: str, seed: int, deadline: float, cfg):
    run = run_child("trace", workload, seed, deadline)
    failed = output_checks(cfg, run["pool_rows"], run["failed_trials"], True,
                           reference=run["untraced_rows"])
    if run["rows"] != run["untraced_rows"]:
        failed["traced_rows_identical"] = "traced and untraced in-process sweeps differ"
    covered = run["self_sum_s"] + run["remainder_s"]
    if abs(covered - run["traced_wall_s"]) > 1e-6 * run["traced_wall_s"] + 1e-6:
        failed["self_time_sum"] = (f"self times {run['self_sum_s']} + remainder "
                                   f"{run['remainder_s']} != traced wall "
                                   f"{run['traced_wall_s']}")
    metrics = {k: (v["value"], v["unit"]) for k, v in run["metrics"].items()}
    print(f"{workload}: traced sweep {run['traced_wall_s']:.3f} s, overhead "
          f"{metrics['trace.overhead'][0]:+.3%}")
    lost = len(checks.missing_trials(cfg, run["rows"]))
    return metrics, run["sweeps"] * tasks(cfg), lost * run["sweeps"], failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    cfg = ExperimentConfig(**workloads.overrides(args.workload, args.seed))
    if args.trace:
        metrics, attempted, lost, failed = trace(args.workload, args.seed, deadline, cfg)
    else:
        metrics, attempted, lost, failed = measure(args.workload, args.seed, args.seconds,
                                                   deadline, cfg)
    for name, message in failed.items():
        print(f"check failed: {name}: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": lost,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
