"""Each output check of the benchmark passes on real rows and fails on a corrupted copy;
the tracer's self times add up to the traced wall time.

Rows come from one small in-process sweep of all three experiments, so the
test takes seconds. Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import copy
from dataclasses import replace

import pytest

import checks
from fdiab.config import ExperimentConfig
from fdiab.harness import run_experiment

# as in the default config, a user array has as many elements as an IAB
# subarray (8 = 32 / 4 users here); see test_rfil_when_user_array_differs
SMALL = replace(ExperimentConfig(), subcarriers=16, num_taps=16, donor_rows=4, donor_cols=4,
                iab_rows=4, iab_cols=8, user_rows=2, user_cols=4, clusters=2,
                rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
                snr_db_grid=(0.0, 10.0), sigma_e_grid=(0.0, 0.1, 0.5), trials=2,
                master_seed=5, threads=1)


@pytest.fixture(scope="module")
def rows():
    return run_experiment(SMALL).rows


def _first(rows, **where):
    return next(r for r in rows if all(r[k] == v for k, v in where.items()))


def _scale(**where):
    factor = where.pop("factor")

    def corrupt(rows):
        _first(rows, **where)["se_bps_hz"] *= factor
        return rows
    return corrupt


def _set_se(value, **where):
    def corrupt(rows):
        _first(rows, **where)["se_bps_hz"] = value
        return rows
    return corrupt


def _drop_trial(experiment, trial):
    return lambda rows: [r for r in rows
                         if (r["experiment"], r["trial"]) != (experiment, trial)]


def _copy_se(src: dict, dst: dict):
    def corrupt(rows):
        _first(rows, **dst)["se_bps_hz"] = _first(rows, **src)["se_bps_hz"]
        return rows
    return corrupt


def _shift_rfil(rows):
    _first(rows, experiment="fig5")["rfil_db"] += 0.1
    return rows


FIG4_HD = dict(experiment="fig4", scheme="subarray", ps_kind="active", trial=0,
               duplex="hd")
CORRUPTIONS = {
    "missing trial": (_drop_trial("fig4", 1), "row_counts"),
    "missing row": (lambda rows: rows[1:], "row_counts"),
    "negative se": (_set_se(-0.1, experiment="fig6"), "se_finite"),
    "nan se": (_set_se(float("nan"), experiment="fig5"), "se_finite"),
    "rfil off the closed form": (_shift_rfil, "rfil_closed_form"),
    "backhaul hd off half": (_scale(factor=1.001, link="backhaul", **FIG4_HD),
                             "fig4_duplexes"),
    "access hd off half": (_scale(factor=1.001, link="access", **FIG4_HD), "fig4_duplexes"),
    "access fd_perfect_sic off fd": (
        _scale(factor=1.001, experiment="fig4", link="access", duplex="fd_perfect_sic"),
        "fig4_duplexes"),
    "backhaul fd above fd_perfect_sic": (
        _scale(factor=100.0, experiment="fig4", link="backhaul", duplex="fd"),
        "fig4_duplexes"),
    "hd falls with SNR": (_scale(factor=0.1, snr_db=10.0, link="access", **FIG4_HD),
                          "fig4_snr_monotone"),
    "passive not below active": (
        _copy_se(dict(FIG4_HD, link="access", snr_db=0.0),
                 dict(FIG4_HD, link="access", snr_db=0.0, ps_kind="passive")),
        "fig4_passive_below_active"),
    "fig5 hd varies with sigma_e": (
        _scale(factor=1.001, experiment="fig5", duplex="hd", sigma_e=0.5),
        "fig5_hd_constant"),
    "fig5 fd at sigma_e 0 not the largest": (
        _scale(factor=0.1, experiment="fig5", duplex="fd", sigma_e=0.0),
        "fig5_fd_sigma0_max"),
    "fig6 no-dsic above fd": (
        _scale(factor=100.0, experiment="fig6", scheme="subarray-no-dsic"),
        "fig6_ordering"),
}


def test_rows_of_a_real_sweep_pass_every_check(rows):
    assert checks.row_checks(SMALL, rows) == {}
    assert checks.full_digital_oracle(SMALL, rows) is None
    assert checks.worker_independence(SMALL, rows) is None


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_row_check_fails_on_corrupted_rows(rows, corruption):
    corrupt, check = CORRUPTIONS[corruption]
    failed = checks.row_checks(SMALL, corrupt(copy.deepcopy(rows)))
    assert check in failed, failed


def test_logged_failure_accounts_for_missing_trial(rows):
    dropped = _drop_trial("fig6", 0)(copy.deepcopy(rows))
    # as decoded from the sweep's JSON record
    assert "row_counts" not in checks.row_checks(SMALL, dropped, [["fig6", 0]])


def test_full_digital_oracle_fails_on_nudged_row(rows):
    nudged = _scale(factor=1 + 1e-7, experiment="fig6", scheme="full-digital",
                    trial=0)(copy.deepcopy(rows))
    assert "full-digital trial 0" in checks.full_digital_oracle(SMALL, nudged)


def test_worker_independence_fails_on_nudged_row(rows):
    nudge = _scale(factor=1 + 1e-7, experiment="fig5", duplex="hd", trial=0)
    nudged = nudge(copy.deepcopy(rows))
    assert "1 differ" in checks.worker_independence(SMALL, nudged)


@pytest.mark.xfail(strict=True, reason="the subarray access budget sizes the user's "
                   "combiner by the IAB subarray, not by the user array")
def test_rfil_when_user_array_differs():
    cfg = replace(SMALL, user_cols=2, experiments=("fig4",), trials=1)
    assert "rfil_closed_form" not in checks.row_checks(cfg, run_experiment(cfg).rows)


def test_traced_sweep_self_times_add_up_and_wrappers_are_removed():
    import time

    from fdiab import harness, scenario
    from tracing import Tracer

    originals = (harness.run_trial, scenario.mmse_bb_combiner, scenario.PathChannel.__init__)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        traced = harness.run_experiment(SMALL).rows
        end = time.perf_counter()
    assert (harness.run_trial, scenario.mmse_bb_combiner,
            scenario.PathChannel.__init__) == originals
    assert traced == run_experiment(SMALL).rows
    times = tracer.self_times()
    assert times["harness.run_trial.fig5"][1] == SMALL.trials
    assert all(seconds >= 0.0 for seconds, _ in times.values())
    covered = sum(seconds for seconds, _ in times.values()) + tracer.remainder(start, end)
    assert abs(covered - (end - start)) < 1e-6
