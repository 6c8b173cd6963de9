"""Seeded Monte Carlo orchestration of the three sweep experiments.

fig4 compares hybrid structures and phase-shifter kinds over SNR for both
links; fig5 sweeps the effective SI-channel estimation error at fixed SNRs;
fig6 varies the receive-chain count per subarray to expose the reach of
digital cancellation against ideal references.

Every random draw site gets its own generator seeded from
hash(master_seed, experiment, site, trial), so results are reproducible
byte-for-byte regardless of worker count, and all schemes within a trial
share the same channel drop for paired comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .channel import draw_cee_noise
from .config import ExperimentConfig
from .errors import ConfigurationError, DegenerateInputError, NearSingularError
from .scenario import (AccessLinkDesign, BackhaulLink, BackhaulLinkDesign, Scenario,
                       build_scenario, draw_realization, full_digital_backhaul_se)

log = logging.getLogger(__name__)

CSV_COLUMNS = ("experiment", "scheme", "link", "duplex", "snr_db", "sigma_e", "L",
               "ps_kind", "trial", "se_bps_hz", "rfil_db")

SORT_KEYS = ("experiment", "scheme", "snr_db", "sigma_e", "L", "trial", "link",
             "duplex", "ps_kind")


@dataclass
class SweepResult:
    """All sampled rows of one run, sorted for deterministic output."""

    rows: list[dict]

    def sort(self) -> None:
        self.rows.sort(key=lambda r: tuple(r[k] for k in SORT_KEYS))


def derive_seed(master_seed: int, experiment: str, site: str, trial: int) -> int:
    """Stable 64-bit seed independent of execution order and platform."""
    text = f"{master_seed}|{experiment}|{site}|{trial}"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _seeder(master_seed: int, experiment: str, trial: int):
    def make(site: str) -> np.random.Generator:
        return np.random.default_rng(derive_seed(master_seed, experiment, site, trial))
    return make


def _row(experiment, scheme, link, duplex, snr_db, sigma_e, chains, ps_kind, trial,
         se, rfil_db) -> dict:
    return {"experiment": experiment, "scheme": scheme, "link": link, "duplex": duplex,
            "snr_db": float(snr_db), "sigma_e": float(sigma_e), "L": int(chains),
            "ps_kind": ps_kind, "trial": int(trial), "se_bps_hz": float(se),
            "rfil_db": float(rfil_db)}


# A trial draws its channels once. Each link design is read for its rows and
# released, when its row builder returns or by del, before the next one is
# built: a trial holds its drop and at most one design at a time.

def _trial_fig4(cfg: ExperimentConfig, scn: Scenario, trial: int) -> list[dict]:
    seeder = _seeder(cfg.master_seed, "fig4", trial)
    real = draw_realization(scn, seeder)
    rows = []
    for structure in cfg.structures:
        rows += _fig4_rows(cfg, scn, real, structure, trial)
    return rows


def _fig4_rows(cfg, scn, real, structure, trial) -> list[dict]:
    chains = cfg.rx_chains_per_subarray
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLinkDesign(real, BackhaulLink(scn, real, structure, chains), access)
    # (budgets, evaluation) per link: the backhaul's link prices it, its receiver rates it
    designs = {"access": (access.budgets, access.evaluate),
               "backhaul": (backhaul.link.budgets, backhaul.evaluate)}
    rows = []
    for ps_kind in cfg.ps_kinds:
        for link in cfg.links:
            budgets, evaluate = designs[link]
            tx_b, rx_b = budgets(ps_kind)
            for snr_db in cfg.snr_db_grid:
                results = evaluate(ps_kind, scn.snr_point(snr_db))
                for duplex in cfg.duplexes:
                    rows.append(_row("fig4", structure, link, duplex, snr_db, 0.0,
                                     chains, ps_kind, trial, results[duplex].se_bps_hz,
                                     tx_b.total_db + rx_b.total_db))
    return rows


def _trial_fig5(cfg: ExperimentConfig, scn: Scenario, trial: int) -> list[dict]:
    seeder = _seeder(cfg.master_seed, "fig5", trial)
    real = draw_realization(scn, seeder)
    rows = []
    for structure in cfg.structures:
        rows += _fig5_rows(cfg, scn, real, seeder, structure, trial)
    return rows


def _fig5_rows(cfg, scn, real, seeder, structure, trial) -> list[dict]:
    chains = cfg.rx_chains_per_subarray
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLinkDesign(real, BackhaulLink(scn, real, structure, chains), access)
    cee_noise = draw_cee_noise(seeder(f"cee/{structure}"),
                               (cfg.subcarriers, cfg.users * chains, cfg.users))
    rows = []
    for sigma_e in cfg.sigma_e_grid:
        combiner = backhaul.combiner(sigma_e, cee_noise)
        for ps_kind in cfg.cee_ps_kinds:
            bh_tx, bh_rx = backhaul.link.budgets(ps_kind)
            rfil_db = bh_tx.total_db + bh_rx.total_db
            for snr_db in cfg.cee_snrs_db:
                results = backhaul.evaluate(ps_kind, scn.snr_point(snr_db), combiner)
                for duplex in ("fd", "hd"):
                    rows.append(_row("fig5", structure, "backhaul", duplex, snr_db,
                                     sigma_e, chains, ps_kind, trial,
                                     results[duplex].se_bps_hz, rfil_db))
    return rows


def _trial_fig6(cfg: ExperimentConfig, scn: Scenario, trial: int) -> list[dict]:
    seeder = _seeder(cfg.master_seed, "fig6", trial)
    real = draw_realization(scn, seeder)
    snr = scn.snr_point(cfg.sic_snr_db)
    access = AccessLinkDesign(scn, real, "subarray")
    rows = [row for chains in cfg.sic_chain_counts
            for row in _fig6_subarray_rows(cfg, scn, real, access, chains, snr, trial)]
    del access
    # the fully connected reference is the link alone, without its receiver
    fc = BackhaulLink(scn, real, "fully-connected", cfg.rx_chains_per_subarray)
    rows.append(_row("fig6", "fully-connected", "backhaul", "fd_perfect_sic",
                     cfg.sic_snr_db, 0.0, cfg.rx_chains_per_subarray, "ideal", trial,
                     fc.interference_free(fc.a("ideal", snr)).se_bps_hz, 0.0))
    del fc                              # the reference runs with the drop alone alive
    digital = full_digital_backhaul_se(real, scn, snr)
    rows.append(_row("fig6", "full-digital", "backhaul", "fd_perfect_sic", cfg.sic_snr_db,
                     0.0, 0, "ideal", trial, digital.se_bps_hz, 0.0))
    return rows


def _fig6_subarray_rows(cfg, scn, real, access, chains, snr, trial) -> list[dict]:
    backhaul = BackhaulLinkDesign(real, BackhaulLink(scn, real, "subarray", chains), access)
    results = backhaul.evaluate("ideal", snr)
    no_dsic = backhaul.evaluate("ideal", snr, backhaul.rates.blind_combiner())["fd"]
    return [
        _row("fig6", "subarray", "backhaul", "fd", cfg.sic_snr_db, 0.0,
             chains, "ideal", trial, results["fd"].se_bps_hz, 0.0),
        _row("fig6", "subarray-no-dsic", "backhaul", "fd", cfg.sic_snr_db,
             0.0, chains, "ideal", trial, no_dsic.se_bps_hz, 0.0),
        _row("fig6", "subarray", "backhaul", "fd_perfect_sic", cfg.sic_snr_db,
             0.0, chains, "ideal", trial, results["fd_perfect_sic"].se_bps_hz, 0.0),
    ]


_TRIALS = {"fig4": _trial_fig4, "fig5": _trial_fig5, "fig6": _trial_fig6}

# Each worker process runs its LAPACK calls on one thread: with the default
# per-process BLAS pool, workers and BLAS threads compete for the same cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_trial(cfg: ExperimentConfig, scenario: Scenario, experiment: str,
              trial: int) -> tuple[list[dict], tuple[str, str] | None]:
    """Rows of one trial and its failure as (exception type name, message).

    The worker entry point of the sweep. A trial that meets one of the
    numerical failures a sweep tolerates (a near-singular or degenerate
    channel) returns no rows and a failure record instead of raising, so the
    record crosses a process boundary as plain data. Any other exception
    propagates and stops the run.
    """
    try:
        return _TRIALS[experiment](cfg, scenario, trial), None
    except (NearSingularError, DegenerateInputError) as exc:
        return [], (type(exc).__name__, str(exc))


@contextmanager
def _single_threaded_blas():
    """Set one BLAS thread in the environment that new worker processes inherit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run the configured experiments over all trials; deterministic in the seed.

    With ``cfg.threads > 1`` the trials run in that many spawned worker
    processes, each with single-threaded BLAS; otherwise they run in this
    process. A trial that fails with ``NearSingularError`` or
    ``DegenerateInputError`` is logged and skipped; more than 10 percent such
    failures abort the run, as do any other exception and a worker process
    that dies.
    """
    cfg.validate()
    tasks = [(experiment, trial) for experiment in cfg.experiments
             for trial in range(cfg.trials)]
    scenarios = {}
    for experiment in cfg.experiments:
        exp_cfg = cfg
        if experiment == "fig5":
            exp_cfg = replace(cfg, backhaul_distance_m=cfg.cee_backhaul_distance_m)
        elif experiment == "fig6":
            exp_cfg = replace(cfg, backhaul_distance_m=cfg.sic_backhaul_distance_m)
        scenarios[experiment] = build_scenario(exp_cfg)

    if cfg.threads > 1:
        # workers start at submit time, inside the single-threaded environment
        with _single_threaded_blas(), ProcessPoolExecutor(
                max_workers=cfg.threads,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(run_trial, cfg, scenarios[experiment], experiment,
                                   trial) for experiment, trial in tasks]
            outcomes = [future.result() for future in futures]
    else:
        outcomes = [run_trial(cfg, scenarios[experiment], experiment, trial)
                    for experiment, trial in tasks]

    failures = []
    for (experiment, trial), (_, failure) in zip(tasks, outcomes):
        if failure is not None:
            log.warning("trial failed: experiment=%s trial=%d master_seed=%d: %s: %s",
                        experiment, trial, cfg.master_seed, *failure)
            failures.append(failure)
    if len(failures) > 0.1 * len(tasks):
        raise RuntimeError(
            f"{len(failures)} of {len(tasks)} trials failed; first error: "
            f"{failures[0][0]}: {failures[0][1]}")

    result = SweepResult([row for rows, _ in outcomes for row in rows])
    result.sort()
    return result


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(result: SweepResult, path) -> None:
    """UTF-8 CSV with the fixed column set, floats at 6 significant digits."""
    if not result.rows:
        raise ConfigurationError("empty-result: nothing to write")
    result.sort()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def read_csv(path) -> list[dict]:
    """Read back a results CSV with numeric fields restored."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            record["snr_db"] = float(record["snr_db"])
            record["sigma_e"] = float(record["sigma_e"])
            record["L"] = int(record["L"])
            record["trial"] = int(record["trial"])
            record["se_bps_hz"] = float(record["se_bps_hz"])
            record["rfil_db"] = float(record["rfil_db"])
            out.append(record)
    return out


FIGURE_VIEWS = {
    "fig4a": {"experiment": "fig4", "link": "backhaul",
              "keys": ("scheme", "duplex", "ps_kind", "snr_db")},
    "fig4b": {"experiment": "fig4", "link": "access",
              "keys": ("scheme", "duplex", "ps_kind", "snr_db")},
    "fig5a": {"experiment": "fig5", "ps_kind": "active",
              "keys": ("scheme", "duplex", "snr_db", "sigma_e")},
    "fig5b": {"experiment": "fig5", "ps_kind": "passive",
              "keys": ("scheme", "duplex", "snr_db", "sigma_e")},
    "fig6": {"experiment": "fig6", "keys": ("scheme", "duplex", "L")},
}

AGGREGATE_COLUMNS = ("figure", "scheme", "link", "duplex", "ps_kind", "snr_db",
                     "sigma_e", "L", "se_mean", "se_std", "num_trials")


def aggregate_figure(rows: list[dict], figure: str) -> list[dict]:
    """Mean and standard deviation of SE per grid cell of one figure view."""
    if figure not in FIGURE_VIEWS:
        raise ConfigurationError(
            f"figure-id: {figure!r} not one of {tuple(FIGURE_VIEWS)}")
    view = FIGURE_VIEWS[figure]
    keys = view["keys"]
    filters = {k: v for k, v in view.items() if k != "keys"}
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if any(row[k] != v for k, v in filters.items()):
            continue
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for group_key in sorted(groups):
        members = groups[group_key]
        se = np.array([m["se_bps_hz"] for m in members])
        cell = dict(members[0])
        cell.update({
            "figure": figure,
            "se_mean": float(se.mean()),
            "se_std": float(se.std(ddof=1)) if len(se) > 1 else 0.0,
            "num_trials": len(se),
        })
        out.append({c: cell.get(c, "") for c in AGGREGATE_COLUMNS})
    return out


def write_figure_csv(rows: list[dict], figures: list[str], path) -> None:
    aggregated = [cell for figure in figures for cell in aggregate_figure(rows, figure)]
    if not aggregated:
        raise ConfigurationError("empty-result: no rows match the requested figures")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for cell in aggregated:
            writer.writerow([_format_cell(cell[c]) for c in AGGREGATE_COLUMNS])
