import configparser
import csv
import json
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from dataclasses import fields, replace

import fdiab.harness as harness
from fdiab.config import ExperimentConfig, dump_config, load_config, save_config
from fdiab.errors import ConfigurationError, NearSingularError
from fdiab.harness import (CSV_COLUMNS, SweepResult, aggregate_figure, derive_seed,
                           read_csv, run_experiment, write_csv, write_figure_csv)
from fdiab.link import DUPLEX_MODES

TINY = replace(
    ExperimentConfig(), subcarriers=32, num_taps=16,
    donor_rows=4, donor_cols=4, iab_rows=4, iab_cols=4, user_rows=2, user_cols=2,
    clusters=3, rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
    panel_separation_wavelengths=5.0,
    snr_db_grid=(10.0,), sigma_e_grid=(0.0, 0.1), cee_snrs_db=(10.0,),
    cee_ps_kinds=("active",), sic_chain_counts=(2, 4), trials=2, master_seed=5,
)


def test_seed_derivation_stable():
    a = derive_seed(1, "fig4", "backhaul", 0)
    assert a == derive_seed(1, "fig4", "backhaul", 0)
    assert a != derive_seed(1, "fig4", "backhaul", 1)
    assert a != derive_seed(2, "fig4", "backhaul", 0)
    assert a != derive_seed(1, "fig5", "backhaul", 0)
    assert 0 <= a < 2 ** 64


def test_single_grid_cell_yields_single_row():
    cfg = replace(TINY, experiments=("fig4",), structures=("subarray",),
                  ps_kinds=("ideal",), links=("backhaul",), duplexes=("fd",),
                  trials=1)
    result = run_experiment(cfg)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["scheme"] == "subarray" and row["duplex"] == "fd"


@pytest.mark.parametrize("duplexes", [DUPLEX_MODES, ("hd", "fd_perfect_sic")],
                         ids=["all-modes", "without-fd"])
def test_grid_complete_no_missing_cells(duplexes):
    cfg = replace(TINY, experiments=("fig4",), duplexes=duplexes)
    result = run_experiment(cfg)
    expected = (len(cfg.structures) * len(cfg.ps_kinds) * len(cfg.snr_db_grid)
                * len(cfg.links) * len(cfg.duplexes) * cfg.trials)
    assert len(result.rows) == expected
    assert {r["duplex"] for r in result.rows} == set(cfg.duplexes)


def test_rerun_byte_identical(tmp_path):
    cfg = replace(TINY, experiments=("fig4", "fig6"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(cfg), a)
    write_csv(run_experiment(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_does_not_change_results(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    write_csv(run_experiment(TINY), seq)
    write_csv(run_experiment(replace(TINY, threads=4)), par)
    assert {r["experiment"] for r in read_csv(seq)} == {"fig4", "fig5", "fig6"}
    assert seq.read_bytes() == par.read_bytes()


_ACCEPTANCE_TRIAL = """
import json, sys
from dataclasses import replace
from fdiab.config import ExperimentConfig
from fdiab.harness import run_experiment
cfg = replace(ExperimentConfig(), subcarriers=128, num_taps=128, snr_db_grid=(15.0,),
              experiments=(sys.argv[1],), trials=1, master_seed=int(sys.argv[2]),
              threads=1)
json.dump(run_experiment(cfg).rows, sys.stdout)
"""


def _blas_thread_independent_rows(experiment: str, seed: int) -> list[dict]:
    """Rows of trial 0 at the acceptance scale (K=128, 15 dB), run in-process at
    one and at two BLAS threads; asserts they agree within 1e-10 relative and
    returns those at one thread."""
    src = str(Path(harness.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        out = subprocess.run([sys.executable, "-c", _ACCEPTANCE_TRIAL, experiment, str(seed)],
                             env=env, check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    one, two = runs
    assert len(one) == len(two) > 0
    for a, b in zip(one, two):
        assert {**a, "se_bps_hz": 0.0} == {**b, "se_bps_hz": 0.0}
        assert abs(a["se_bps_hz"] - b["se_bps_hz"]) <= 1e-10 * abs(b["se_bps_hz"]), (a, b)
    return one


def test_fig5_rows_independent_of_blas_threads():
    # fig5 trial 0 of seed 309: at 4000 m the combiner designed from an
    # erroneous estimate nearly nulls an interference 2e13 times stronger
    # than the signal per stream, so an evaluation that forms that
    # cancellation amplifies rounding, and with it the BLAS thread count,
    # into the rate
    rows = _blas_thread_independent_rows("fig5", 309)
    assert any(row["duplex"] == "fd" and row["sigma_e"] > 0.0 for row in rows)


def test_fig6_rows_independent_of_blas_threads():
    # the full-digital reference runs threaded matmul and eigvalsh in-process
    rows = _blas_thread_independent_rows("fig6", 1)
    assert any(row["scheme"] == "full-digital" for row in rows)


def test_single_worker_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("threads=1 must run in process")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    assert run_experiment(replace(TINY, experiments=("fig4",), trials=1)).rows


_RECEIVER = ["BackhaulLink", "BackhaulLinkDesign"]


# fig4 and fig5 build one access design, backhaul link and its receiver per
# structure; fig6 one access design, a link and its receiver per chain count,
# the fully connected link and then the full-digital reference
@pytest.mark.parametrize("experiment,builds", [
    ("fig4", (["AccessLinkDesign"] + _RECEIVER) * 2),
    ("fig5", (["AccessLinkDesign"] + _RECEIVER) * 2),
    ("fig6", ["AccessLinkDesign"] + _RECEIVER * len(TINY.sic_chain_counts)
     + ["BackhaulLink", "full_digital_backhaul_se"]),
])
def test_trial_holds_one_link_design_at_a_time(monkeypatch, experiment, builds):
    alive = {harness.AccessLinkDesign: [], harness.BackhaulLink: [],
             harness.BackhaulLinkDesign: []}
    started, access_alive_at_link = [], []

    def live(cls):
        return [ref for ref in alive[cls] if ref() is not None]

    def tracked(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            started.append(cls.__name__)
            # a receiver reads the link and the access design it is built on,
            # and a link may be built beside its access design; any other
            # design still alive belongs to an earlier row builder
            assert not live(harness.BackhaulLinkDesign), f"{cls.__name__} built beside a receiver"
            if cls is not harness.BackhaulLinkDesign:
                assert not live(harness.BackhaulLink), f"{cls.__name__} built beside a link"
            if cls is harness.AccessLinkDesign:
                assert not live(harness.AccessLinkDesign), "two access designs alive"
            if cls is harness.BackhaulLink:
                access_alive_at_link.append(bool(live(harness.AccessLinkDesign)))
            alive[cls].append(weakref.ref(self))
            init(self, *args, **kwargs)
        return __init__

    for cls in alive:
        monkeypatch.setattr(cls, "__init__", tracked(cls))
    reference = harness.full_digital_backhaul_se

    def full_digital(*args):
        started.append("full_digital_backhaul_se")
        assert not any(live(cls) for cls in alive), "a link design outlives the reference"
        return reference(*args)

    monkeypatch.setattr(harness, "full_digital_backhaul_se", full_digital)
    result = run_experiment(replace(TINY, experiments=(experiment,), trials=1))
    assert result.rows and started == builds
    if experiment == "fig6":
        # the fully connected reference is the link alone
        assert access_alive_at_link[-1] is False


def test_csv_columns_and_sorting(tmp_path):
    cfg = replace(TINY, experiments=("fig4",), trials=2)
    result = run_experiment(cfg)
    rng = np.random.default_rng(0)
    rng.shuffle(result.rows)
    path = tmp_path / "out.csv"
    write_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    back = read_csv(path)
    keys = [tuple(r[k] for k in harness.SORT_KEYS) for r in back]
    assert keys == sorted(keys)


def test_csv_round_trip_six_significant_digits(tmp_path):
    one_cell = replace(TINY, experiments=("fig4",), trials=1, structures=("subarray",),
                       ps_kinds=("ideal",), links=("backhaul",), duplexes=("fd",))
    for cfg in (one_cell, TINY):        # one cell, then every column of all three studies
        result = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        back = read_csv(path)
        assert len(back) == len(result.rows)
        for orig, rt in zip(result.rows, back):
            assert np.isclose(rt["se_bps_hz"], orig["se_bps_hz"], rtol=1e-5)
            # every other cell reads back as written, with its schema type; a
            # float is written at 6 digits (an RFIL sum can be 12.200000000000001)
            assert list(rt) == list(CSV_COLUMNS)
            assert all(type(rt[c]) is kind for c, kind in CSV_COLUMNS.items())
            written = {c: float(f"{v:.6g}") if isinstance(v, float) else v
                       for c, v in orig.items()}
            assert {**rt, "se_bps_hz": 0.0} == {**written, "se_bps_hz": 0.0}


def test_write_empty_result_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="empty-result"):
        write_csv(SweepResult([]), tmp_path / "never.csv")


def test_figure_aggregation_mean_std(tmp_path):
    cfg = replace(TINY, experiments=("fig4",), trials=2, snr_db_grid=(5.0, 20.0))
    result = run_experiment(cfg)
    cells = aggregate_figure(result.rows, "fig4a")
    assert cells, "no aggregated cells"
    # cells sort by value: SNR ascends within each series
    series: dict[tuple, list[float]] = {}
    for cell in cells:
        series.setdefault((cell["scheme"], cell["duplex"], cell["ps_kind"]),
                          []).append(cell["snr_db"])
    assert all(snrs == sorted(cfg.snr_db_grid) for snrs in series.values())
    for cell in cells:
        assert cell["num_trials"] == 2
        members = [r["se_bps_hz"] for r in result.rows
                   if r["link"] == "backhaul"
                   and r["scheme"] == cell["scheme"] and r["duplex"] == cell["duplex"]
                   and r["ps_kind"] == cell["ps_kind"] and r["snr_db"] == cell["snr_db"]]
        assert np.isclose(cell["se_mean"], np.mean(members))
        assert np.isclose(cell["se_std"], np.std(members, ddof=1))
    out = tmp_path / "fig.csv"
    write_figure_csv(result.rows, ["fig4a", "fig4b"], out)
    header = out.read_text().splitlines()[0]
    assert "se_mean" in header and "se_std" in header
    with pytest.raises(ConfigurationError, match="figure-id"):
        aggregate_figure(result.rows, "fig9")


def test_repeated_figure_rejected(tmp_path):
    # a repeated figure would write each of its cells twice
    rows = run_experiment(replace(TINY, experiments=("fig4",), trials=1)).rows
    out = tmp_path / "fig.csv"
    with pytest.raises(ConfigurationError, match="^figure-id: "):
        write_figure_csv(rows, ["fig4a", "fig4b", "fig4a"], out)
    assert not out.exists()


def test_figures_without_rows(tmp_path):
    # TINY runs fig5 with active phase shifters only, so fig5b has no rows: a
    # request for it cannot be met, and the default set leaves it out
    rows = run_experiment(replace(TINY, trials=1)).rows
    out = tmp_path / "fig.csv"
    with pytest.raises(ConfigurationError, match="^empty-result: .*'fig5b'"):
        write_figure_csv(rows, ["fig4a", "fig5b"], out)
    assert not out.exists()
    write_figure_csv(rows, None, out)
    with open(out, encoding="utf-8", newline="") as fh:
        assert {cell["figure"] for cell in csv.DictReader(fh)} == {"fig4a", "fig4b", "fig5a",
                                                                   "fig6"}


def test_failed_trials_logged_and_capped(monkeypatch):
    cfg = replace(TINY, experiments=("fig4",), trials=10)
    original = harness._ROW_BUILDERS["fig4"]

    def flaky(c, s, real, seeder, trial):
        if trial == 0:
            raise NearSingularError("boom")
        return original(c, s, real, seeder, trial)

    monkeypatch.setitem(harness._ROW_BUILDERS, "fig4", flaky)
    result = run_experiment(cfg)  # one of ten failures is tolerated
    assert {r["trial"] for r in result.rows} == set(range(1, 10))

    # the worker entry point hands the failure back as data instead of raising
    scn = harness.build_scenario(cfg)
    assert harness.run_trial(cfg, scn, "fig4", 0) == ([], ("NearSingularError", "boom"))
    rows, failure = harness.run_trial(cfg, scn, "fig4", 1)
    assert failure is None and {r["trial"] for r in rows} == {1}

    def very_flaky(c, s, real, seeder, trial):
        if trial < 3:
            raise NearSingularError("boom")
        return original(c, s, real, seeder, trial)

    monkeypatch.setitem(harness._ROW_BUILDERS, "fig4", very_flaky)
    with pytest.raises(RuntimeError, match="trials failed"):
        run_experiment(cfg)


def test_programming_error_stops_the_run(monkeypatch):
    cfg = replace(TINY, experiments=("fig4",), trials=10)
    original = harness._ROW_BUILDERS["fig4"]

    def broken(c, s, real, seeder, trial):
        if trial == 0:
            raise RuntimeError("boom")
        return original(c, s, real, seeder, trial)

    # one failure is within the 10 % cap, but only numerical failures are tolerated
    monkeypatch.setitem(harness._ROW_BUILDERS, "fig4", broken)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(cfg)


def test_programming_error_in_a_worker_cancels_the_queued_trials(monkeypatch):
    # threads stand in for the spawned workers, so the patched builder reaches them
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers, mp_context: ThreadPoolExecutor(max_workers))
    original = harness._ROW_BUILDERS["fig4"]
    built = []

    def broken(c, s, real, seeder, trial):
        built.append(trial)
        if trial == 0:
            raise RuntimeError("boom")
        return original(c, s, real, seeder, trial)

    monkeypatch.setitem(harness._ROW_BUILDERS, "fig4", broken)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(replace(TINY, experiments=("fig4",), trials=40, threads=2))
    assert len(built) < 40


def test_config_validation_rule_names():
    two_users = replace(TINY, users=2)
    bad = [
        ("taps-within-cp", replace(TINY, num_taps=64)),
        ("subarray-divisibility", replace(TINY, users=3)),
        ("rf-chain-rule", replace(TINY, rx_chains_per_subarray=1, sic_chain_counts=(2,))),
        ("rf-chain-rule", replace(TINY, sic_chain_counts=(1,))),
        ("ps-kind-valid", replace(TINY, ps_kinds=("ideal", "lossless"))),
        ("structure-valid", replace(TINY, structures=("hybrid",))),
        ("sigma-e-nonnegative", replace(TINY, sigma_e_grid=(-0.1,))),
        ("ci-reference-distance", replace(TINY, backhaul_distance_m=0.2)),
        ("positive-counts", replace(TINY, trials=0)),
        ("grids-nonempty", replace(TINY, snr_db_grid=())),
        ("angle-spread-nonnegative", replace(TINY, angle_spread_deg=-5.0)),
        ("angle-spread-nonnegative", replace(TINY, access_angle_spread_deg=-5.0)),
        # 1.5 wavelengths put the receive panel's first column on the
        # transmit panel's last one (4 columns at half-wavelength spacing)
        ("panel-separation", replace(TINY, panel_separation_wavelengths=1.5)),
        # 12 paths against the 2 x 7 eigenvectors of the fully connected receive stage
        ("path-count", replace(two_users, rx_chains_per_subarray=7, experiments=("fig4",))),
        # 6 paths against fig6's 8 eigenvectors per subarray block
        ("path-count", replace(two_users, rays_per_cluster=2, rx_chains_per_subarray=2,
                               structures=("subarray",), experiments=("fig6",),
                               sic_chain_counts=(2, 4, 8))),
        # a repeated grid point or selection would write its rows twice
        ("distinct-values", replace(TINY, snr_db_grid=(10.0, 10.0))),
        ("distinct-values", replace(TINY, experiments=("fig4", "fig4"))),
        ("distinct-values", replace(TINY, ps_kinds=("ideal", "ideal"))),
        ("distinct-values", replace(TINY, sic_chain_counts=(2, 2))),
        ("finite-values", replace(TINY, snr_db_grid=(float("nan"),))),
        ("finite-values", replace(TINY, snr_db_grid=(float("inf"),))),
        ("finite-values", replace(TINY, path_loss_exponent=float("nan"))),
        ("finite-values", replace(TINY, sic_snr_db=float("nan"))),
        ("finite-values", replace(TINY, si_rician_db=float("nan"))),
        ("finite-values", replace(TINY, si_rician_db=-float("inf"))),
    ]
    for rule, cfg in bad:
        with pytest.raises(ConfigurationError, match=rule):
            cfg.validate()


def test_one_access_path_serves_each_user():
    # each user's access channel is its own draw, so 1 x 2 access paths serve
    # 4 users; positive-counts is the only access rule validate() needs
    cfg = replace(TINY, access_clusters=1, access_rays_per_cluster=2, master_seed=6)
    assert cfg.users == 4 and set(cfg.experiments) == {"fig4", "fig5", "fig6"}
    cfg.validate()
    for experiment in cfg.experiments:
        scn = harness.study_scenario(cfg, experiment)
        rows, failure = harness.run_trial(cfg, scn, experiment, 0)
        assert rows and failure is None, (experiment, failure)


@pytest.mark.filterwarnings("ignore:panel separation")   # small panels, far field
def test_more_receive_chains_than_iab_antennas_fail_every_trial():
    # 2 users x 3 chains on a 2 x 2 IAB panel: the rf-chain-rule clause
    # users * L <= iab_elements is the only rule this config breaks, and no
    # trial of either structure could run it
    cfg = replace(TINY, iab_rows=2, iab_cols=2, users=2, rx_chains_per_subarray=3,
                  experiments=("fig4",))
    with pytest.raises(ConfigurationError,
                       match="^rf-chain-rule: more receive RF chains than IAB antennas$"):
        cfg.validate()
    for structure in cfg.structures:
        single = replace(cfg, structures=(structure,))
        scn = harness.build_scenario(single)
        for trial in range(single.trials):
            rows, failure = harness.run_trial(single, scn, "fig4", trial)
            assert not rows and failure[0] == "DegenerateInputError", (structure, trial)


def test_config_accepts_pure_line_of_sight_si(tmp_path):
    # the one infinite setting: an infinite Rician factor, in code and in a file
    replace(TINY, si_rician_db=float("inf")).validate()
    path = tmp_path / "cfg.ini"
    path.write_text("[channel]\nsi_rician_db = inf\n")
    load_config(path).validate()
    path.write_text("[system]\npath_loss_exponent = nan\n")
    with pytest.raises(ConfigurationError, match="finite-values"):
        load_config(path).validate()


def test_config_checks_fig6_chain_counts_only_when_fig6_runs():
    # no fig4 design uses the chain counts of the fig6 sweep
    replace(ExperimentConfig(), experiments=("fig4",), sic_chain_counts=(1,)).validate()


def test_config_ini_layout(tmp_path):
    parser = configparser.ConfigParser()
    parser.read_string(dump_config(ExperimentConfig()))
    # every field once, the sections in declaration order
    assert [key for section in parser.sections() for key in parser[section]] == \
        [f.name for f in fields(ExperimentConfig)]
    assert parser.sections() == ["meta", "system", "channel", "sweep", "run"]
    for key, section in (("panel_separation_wavelengths", "system"), ("sic_db", "channel"),
                         ("sic_snr_db", "sweep"), ("threads", "run")):
        assert key in parser[section]
    path = tmp_path / "cfg.ini"
    # settings that no longer exist: the transmit chain count is the user count,
    # and channel delays count sample periods, so no subcarrier spacing is needed
    for key in ("access_distance_m", "tx_rf_chains", "subcarrier_spacing_hz"):
        path.write_text(f"[system]\n{key} = 4\n")
        with pytest.raises(ConfigurationError, match="unknown-key"):
            load_config(path)


def test_config_ini_round_trip(tmp_path):
    path = tmp_path / "cfg.ini"
    save_config(TINY, path)
    back = load_config(path)
    assert back == TINY
    assert "schema_version" in dump_config(TINY)


def test_config_round_trip_keeps_every_float_digit(tmp_path):
    cfg = replace(TINY, backhaul_distance_m=123.4567, sigma_e_grid=(0.0, 0.1234567),
                  carrier_hz=28.123456789e9)
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # floats that read back exactly from 6 digits keep their short text
    assert "carrier_hz = 2.8e+10" in dump_config(ExperimentConfig())


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[system]\nwarp_factor = 9\n")
    with pytest.raises(ConfigurationError, match="unknown-key"):
        load_config(path)
    path.write_text("[warp]\nspeed = 9\n")
    with pytest.raises(ConfigurationError, match="unknown-section"):
        load_config(path)
    path.write_text("[system]\nsubcarriers = many\n")
    with pytest.raises(ConfigurationError, match="bad-value"):
        load_config(path)
