"""Seeded Monte Carlo orchestration of the three sweep experiments.

fig4 compares hybrid structures and phase-shifter kinds over SNR for both
links; fig5 sweeps the effective SI-channel estimation error at fixed SNRs;
fig6 varies the receive-chain count per subarray to expose the reach of
digital cancellation against ideal references.

``run_trial`` draws each trial's channel drop once and hands it to the
experiment's row builder; ``CSV_COLUMNS`` is the row schema, the column
names and cell types that building, writing and reading a row share.

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

# column -> cell type of a results row, in CSV order
CSV_COLUMNS = {"experiment": str, "scheme": str, "link": str, "duplex": str,
               "snr_db": float, "sigma_e": float, "L": int, "ps_kind": str,
               "trial": int, "se_bps_hz": float, "rfil_db": float}

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


def _typed(cells: dict) -> dict:
    """The row of ``cells`` in CSV order, each cell converted to its column's type."""
    return {column: kind(cells[column]) for column, kind in CSV_COLUMNS.items()}


# A row builder turns one drawn drop into the rows of its experiment, all but
# the experiment column. Each link design is read for its rows and released,
# when its row builder returns or by del, before the next one is built: a
# trial holds its drop and at most one design at a time.

def _per_structure(structure_rows):
    """The row builder that runs ``structure_rows`` for each configured structure."""
    def build(cfg: ExperimentConfig, scn: Scenario, real, seeder, trial: int) -> list[dict]:
        return [row for structure in cfg.structures
                for row in structure_rows(cfg, scn, real, seeder, structure, trial)]
    return build


def _fig4_rows(cfg, scn, real, seeder, structure, trial) -> list[dict]:
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
            cells = dict(scheme=structure, link=link, sigma_e=0.0, L=chains,
                         ps_kind=ps_kind, trial=trial, rfil_db=tx_b.total_db + rx_b.total_db)
            for snr_db in cfg.snr_db_grid:
                results = evaluate(ps_kind, scn.snr_point(snr_db))
                rows += [dict(cells, duplex=duplex, snr_db=snr_db,
                              se_bps_hz=results[duplex].se_bps_hz)
                         for duplex in cfg.duplexes]
    return rows


def _fig5_rows(cfg, scn, real, seeder, structure, trial) -> list[dict]:
    chains = cfg.rx_chains_per_subarray
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLinkDesign(real, BackhaulLink(scn, real, structure, chains), access)
    cee_noise = draw_cee_noise(seeder(f"cee/{structure}"), backhaul.g_si0.shape)
    rows = []
    for sigma_e in cfg.sigma_e_grid:
        combiner = backhaul.combiner(sigma_e, cee_noise)
        for ps_kind in cfg.cee_ps_kinds:
            bh_tx, bh_rx = backhaul.link.budgets(ps_kind)
            cells = dict(scheme=structure, link="backhaul", sigma_e=sigma_e, L=chains,
                         ps_kind=ps_kind, trial=trial, rfil_db=bh_tx.total_db + bh_rx.total_db)
            for snr_db in cfg.cee_snrs_db:
                results = backhaul.evaluate(ps_kind, scn.snr_point(snr_db), combiner)
                rows += [dict(cells, duplex=duplex, snr_db=snr_db,
                              se_bps_hz=results[duplex].se_bps_hz)
                         for duplex in ("fd", "hd")]
    return rows


def _fig6_rows(cfg: ExperimentConfig, scn: Scenario, real, seeder, trial: int) -> list[dict]:
    snr = scn.snr_point(cfg.sic_snr_db)
    # every fig6 row is a backhaul rate at the one SNR, with ideal phase shifters
    cells = dict(link="backhaul", snr_db=cfg.sic_snr_db, sigma_e=0.0, ps_kind="ideal",
                 trial=trial, rfil_db=0.0)
    access = AccessLinkDesign(scn, real, "subarray")
    rows = [row for chains in cfg.sic_chain_counts
            for row in _fig6_subarray_rows(scn, real, access, chains, snr, cells)]
    del access
    # the fully connected reference is the link alone, without its receiver
    fc = BackhaulLink(scn, real, "fully-connected", cfg.rx_chains_per_subarray)
    rows.append(dict(cells, scheme="fully-connected", duplex="fd_perfect_sic",
                     L=cfg.rx_chains_per_subarray,
                     se_bps_hz=fc.interference_free(fc.a("ideal", snr)).se_bps_hz))
    del fc                              # the reference runs with the drop alone alive
    digital = full_digital_backhaul_se(real, scn, snr)
    rows.append(dict(cells, scheme="full-digital", duplex="fd_perfect_sic", L=0,
                     se_bps_hz=digital.se_bps_hz))
    return rows


def _fig6_subarray_rows(scn, real, access, chains, snr, cells) -> list[dict]:
    backhaul = BackhaulLinkDesign(real, BackhaulLink(scn, real, "subarray", chains), access)
    results = backhaul.evaluate("ideal", snr)
    no_dsic = backhaul.evaluate("ideal", snr, backhaul.blind_combiner())["fd"]
    cells = dict(cells, L=chains)
    return [dict(cells, scheme="subarray", duplex="fd", se_bps_hz=results["fd"].se_bps_hz),
            dict(cells, scheme="subarray-no-dsic", duplex="fd", se_bps_hz=no_dsic.se_bps_hz),
            dict(cells, scheme="subarray", duplex="fd_perfect_sic",
                 se_bps_hz=results["fd_perfect_sic"].se_bps_hz)]


_ROW_BUILDERS = {"fig4": _per_structure(_fig4_rows), "fig5": _per_structure(_fig5_rows),
                 "fig6": _fig6_rows}

# Each worker process runs its LAPACK calls on one thread: with the default
# per-process BLAS pool, workers and BLAS threads compete for the same cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def study_scenario(cfg: ExperimentConfig, experiment: str) -> Scenario:
    """The scenario of ``experiment`` at that study's backhaul distance."""
    distance = {"fig4": cfg.backhaul_distance_m, "fig5": cfg.cee_backhaul_distance_m,
                "fig6": cfg.sic_backhaul_distance_m}[experiment]
    return build_scenario(replace(cfg, backhaul_distance_m=distance))


def run_trial(cfg: ExperimentConfig, scenario: Scenario, experiment: str,
              trial: int) -> tuple[list[dict], tuple[str, str] | None]:
    """Rows of one trial and its failure as (exception type name, message).

    The worker entry point of the sweep. It draws the trial's channel drop
    and builds the experiment's rows from it. A trial that meets one of the
    numerical failures a sweep tolerates (a near-singular or degenerate
    channel) returns no rows and a failure record instead of raising, so the
    record crosses a process boundary as plain data. Any other exception
    propagates and stops the run.
    """
    try:
        seeder = _seeder(cfg.master_seed, experiment, trial)
        real = draw_realization(scenario, seeder)
        rows = _ROW_BUILDERS[experiment](cfg, scenario, real, seeder, trial)
        return [_typed(dict(row, experiment=experiment)) for row in rows], None
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
    scenarios = {experiment: study_scenario(cfg, experiment) for experiment in cfg.experiments}

    if cfg.threads > 1:
        # workers start at submit time, inside the single-threaded environment
        with _single_threaded_blas(), ProcessPoolExecutor(
                max_workers=cfg.threads,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(run_trial, cfg, scenarios[experiment], experiment,
                                   trial) for experiment, trial in tasks]
            try:
                outcomes = [future.result() for future in futures]
            except BaseException:
                # the pool's exit would first run every queued trial
                pool.shutdown(cancel_futures=True)
                raise
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


def _write_table(path, columns, rows) -> None:
    """UTF-8 CSV of ``rows`` under the header ``columns``, floats at 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{row[c]:.6g}" if isinstance(row[c], float) else row[c]
                             for c in columns])


def write_csv(result: SweepResult, path) -> None:
    """UTF-8 CSV with the fixed column set, floats at 6 significant digits."""
    if not result.rows:
        raise ConfigurationError("empty-result: nothing to write")
    result.sort()
    _write_table(path, CSV_COLUMNS, result.rows)


def read_csv(path) -> list[dict]:
    """Read back a results CSV with each cell converted to its column's type."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [_typed(record) for record in csv.DictReader(fh)]


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
        if all(row[k] == v for k, v in filters.items()):
            groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for group_key in sorted(groups):
        members = groups[group_key]
        se = np.array([m["se_bps_hz"] for m in members])
        cell = dict(members[0], figure=figure, se_mean=float(se.mean()),
                    se_std=float(se.std(ddof=1)) if len(se) > 1 else 0.0,
                    num_trials=len(se))
        out.append({c: cell.get(c, "") for c in AGGREGATE_COLUMNS})
    return out


def write_figure_csv(rows: list[dict], figures: list[str] | None, path) -> None:
    """Aggregated cells of ``figures``, or of every view that has rows if None.

    A requested view without rows is an error, and no file is written.
    """
    # a repeated figure would write each of its cells twice
    if figures is not None and len(set(figures)) != len(figures):
        raise ConfigurationError(f"figure-id: a figure is requested twice: {figures}")
    views = {figure: aggregate_figure(rows, figure) for figure in figures or sorted(FIGURE_VIEWS)}
    empty = [figure for figure, cells in views.items() if not cells]
    if empty and (figures or len(empty) == len(views)):
        raise ConfigurationError(f"empty-result: no rows match the figures {empty}")
    _write_table(path, AGGREGATE_COLUMNS, [cell for cells in views.values() for cell in cells])
