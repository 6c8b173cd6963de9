"""The benchmark's workloads: fixed `ExperimentConfig` overrides per name.

Standard library only, so a fresh interpreter can read a workload before
`fdiab` is imported and the import lands inside the timed set-up.
The master seed is the benchmark's `--seed`; everything else is fixed.
"""

from __future__ import annotations

WORKLOADS = {
    # the acceptance configuration of tests/test_acceptance.py, at 6 trials
    "acceptance-k128-2proc": {"subcarriers": 128, "num_taps": 128, "snr_db_grid": (15.0,),
                              "trials": 6, "threads": 2},
    "fig4-k512": {"experiments": ("fig4",), "trials": 5, "threads": 1},
    "fig6-k512": {"experiments": ("fig6",), "trials": 1, "threads": 1},
}


def overrides(workload: str, seed: int) -> dict:
    """Keyword arguments of the workload's `ExperimentConfig` for one seed."""
    return dict(WORKLOADS[workload], master_seed=seed)
