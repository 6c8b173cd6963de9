"""Output checks of a sweep: properties the method must have, and oracles.

Every check compares rows against a rule of the model or against an
independent computation, never against stored output. `row_checks` returns
the names of the checks that failed with one message each; the two oracle
checks (`full_digital_oracle`, `worker_independence`) return a message or
None. Floats are compared with a relative tolerance of 1e-9.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np

REL = 1e-9

# component losses of the paper: dB per 2-way divider / combiner stage, and
# per phase shifter
DIVIDER_DB = 0.6
COMBINER_DB = 3.6
PHASE_SHIFTER_DB = {"active": -2.3, "passive": 8.8}


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def _at_most(a: float, b: float) -> bool:
    return a <= b + REL * abs(b) + 1e-12


def _group(rows, experiment, keys, **where):
    groups = defaultdict(dict)
    for r in rows:
        if r["experiment"] == experiment and all(r[k] == v for k, v in where.items()):
            groups[tuple(r[k] for k in keys[:-1])][r[keys[-1]]] = r["se_bps_hz"]
    return groups


def rows_per_trial(cfg, experiment: str) -> int:
    """Rows one trial of ``experiment`` yields under the config's grids."""
    if experiment == "fig4":
        per_point = len(cfg.duplexes) * len(cfg.links)
        return len(cfg.structures) * len(cfg.ps_kinds) * len(cfg.snr_db_grid) * per_point
    if experiment == "fig5":
        return (len(cfg.structures) * len(cfg.cee_ps_kinds) * len(cfg.cee_snrs_db)
                * len(cfg.sigma_e_grid) * 2)
    # subarray fd, no-dsic and perfect-SIC per chain count, plus the
    # fully-connected and full-digital references
    return 3 * len(cfg.sic_chain_counts) + 2


def missing_trials(cfg, rows) -> set[tuple[str, int]]:
    present = {(r["experiment"], r["trial"]) for r in rows}
    return {(e, t) for e in cfg.experiments for t in range(cfg.trials)} - present


def _stages(way: int) -> int:
    return math.ceil(math.log2(way)) if way > 1 else 0


def _budget(ps_kind: str, divider_way: int, combiner_way: int) -> float:
    if ps_kind == "ideal":
        return 0.0
    return (DIVIDER_DB * _stages(divider_way) + PHASE_SHIFTER_DB[ps_kind]
            + COMBINER_DB * _stages(combiner_way))


def expected_rfil_db(cfg, row) -> float:
    """Closed-form per-path loss of a row's transmit plus receive network."""
    kind = row["ps_kind"]
    if row["experiment"] == "fig6":
        return 0.0
    n_donor, n_iab, n_user = cfg.donor_elements, cfg.iab_elements, cfg.user_elements
    ns, users = cfg.tx_rf_chains, cfg.users
    if row["link"] == "backhaul":
        m = users * row["L"]
        if row["scheme"] == "fully-connected":
            # N_ant-way dividers per chain and N_rf-way combiners per antenna at
            # the transmitter; the roles swap at the receiver
            return _budget(kind, n_donor, ns) + _budget(kind, m, n_iab)
        # one N/U-element subarray per chain on both sides
        return (_budget(kind, n_donor // ns, 1)
                + _budget(kind, m // users, n_iab // users))
    user_rx = _budget(kind, 1, n_user)
    if row["scheme"] == "fully-connected":
        return _budget(kind, n_iab, ns) + user_rx
    return _budget(kind, n_iab // users, 1) + user_rx


def check_row_counts(cfg, rows, logged_failures):
    counts = defaultdict(int)
    for r in rows:
        counts[(r["experiment"], r["trial"])] += 1
    for (experiment, trial), n in counts.items():
        if experiment not in cfg.experiments or not 0 <= trial < cfg.trials:
            raise CheckFailed(f"unexpected rows for {experiment} trial {trial}")
        if n != rows_per_trial(cfg, experiment):
            raise CheckFailed(f"{experiment} trial {trial}: {n} rows, "
                              f"expected {rows_per_trial(cfg, experiment)}")
    missing = missing_trials(cfg, rows)
    logged = {(experiment, trial) for experiment, trial in logged_failures}
    if missing != logged:
        raise CheckFailed(f"trials without rows {sorted(missing)} differ from the "
                          f"failures the harness logged {sorted(logged)}")


def check_se_finite(cfg, rows, logged_failures):
    for r in rows:
        if not (math.isfinite(r["se_bps_hz"]) and r["se_bps_hz"] >= 0.0):
            raise CheckFailed(f"se_bps_hz {r['se_bps_hz']} in {r}")


def check_rfil(cfg, rows, logged_failures):
    for r in rows:
        want = expected_rfil_db(cfg, r)
        if not _close(r["rfil_db"], want):
            raise CheckFailed(f"rfil_db {r['rfil_db']} != closed form {want} in {r}")


def check_fig4_duplexes(cfg, rows, logged_failures):
    keys = ("scheme", "snr_db", "ps_kind", "trial", "duplex")
    for link, half_of in (("backhaul", "fd_perfect_sic"), ("access", "fd")):
        for key, se in _group(rows, "fig4", keys, link=link).items():
            if "hd" in se and half_of in se and not _close(se["hd"], 0.5 * se[half_of]):
                raise CheckFailed(f"{link} {key}: hd {se['hd']} != half of {half_of} "
                                  f"{se[half_of]}")
            if "fd" in se and "fd_perfect_sic" in se:
                fd, ideal = se["fd"], se["fd_perfect_sic"]
                ok = _close(fd, ideal) if link == "access" else _at_most(fd, ideal)
                if not ok:
                    raise CheckFailed(f"{link} {key}: fd {fd} vs fd_perfect_sic {ideal}")


def check_fig4_snr_monotone(cfg, rows, logged_failures):
    keys = ("scheme", "link", "ps_kind", "trial", "duplex", "snr_db")
    for key, se in _group(rows, "fig4", keys).items():
        if key[4] == "fd":
            continue
        values = [se[s] for s in sorted(se)]
        if any(not _at_most(a, b) for a, b in zip(values, values[1:])):
            raise CheckFailed(f"{key}: se falls with SNR: {values}")


def check_fig4_passive_below_active(cfg, rows, logged_failures):
    keys = ("scheme", "link", "snr_db", "trial", "duplex", "ps_kind")
    for key, se in _group(rows, "fig4", keys).items():
        if key[4] != "fd" and "passive" in se and "active" in se \
                and not se["passive"] < se["active"]:
            raise CheckFailed(f"{key}: passive {se['passive']} >= active {se['active']}")


def check_fig5_hd_constant(cfg, rows, logged_failures):
    keys = ("scheme", "ps_kind", "snr_db", "trial", "sigma_e")
    for key, se in _group(rows, "fig5", keys, duplex="hd").items():
        values = list(se.values())
        if any(not _close(v, values[0]) for v in values):
            raise CheckFailed(f"{key}: hd varies with sigma_e: {values}")


def check_fig5_fd_sigma0_max(cfg, rows, logged_failures):
    keys = ("scheme", "ps_kind", "snr_db", "trial", "sigma_e")
    for key, se in _group(rows, "fig5", keys, duplex="fd").items():
        if 0.0 in se and any(not _at_most(v, se[0.0]) for v in se.values()):
            raise CheckFailed(f"{key}: fd at sigma_e = 0 ({se[0.0]}) is below {se}")


def check_fig6_ordering(cfg, rows, logged_failures):
    fd = _group(rows, "fig6", ("trial", "L", "scheme"), duplex="fd")
    ideal = _group(rows, "fig6", ("trial", "L", "scheme"), duplex="fd_perfect_sic")
    for key, se in fd.items():
        chain = [se["subarray-no-dsic"], se["subarray"], ideal[key]["subarray"]]
        if not (_at_most(chain[0], chain[1]) and _at_most(chain[1], chain[2])):
            raise CheckFailed(f"trial, L = {key}: no-dsic <= fd <= fd_perfect_sic fails: "
                              f"{chain}")


ROW_CHECKS = {
    "row_counts": check_row_counts,
    "se_finite": check_se_finite,
    "rfil_closed_form": check_rfil,
    "fig4_duplexes": check_fig4_duplexes,
    "fig4_snr_monotone": check_fig4_snr_monotone,
    "fig4_passive_below_active": check_fig4_passive_below_active,
    "fig5_hd_constant": check_fig5_hd_constant,
    "fig5_fd_sigma0_max": check_fig5_fd_sigma0_max,
    "fig6_ordering": check_fig6_ordering,
}


def row_checks(cfg, rows, logged_failures=()) -> dict[str, str]:
    """Failed row checks by name, with their messages."""
    failed = {}
    for name, check in ROW_CHECKS.items():
        try:
            check(cfg, rows, logged_failures)
        except (CheckFailed, KeyError) as exc:
            failed[name] = f"{type(exc).__name__}: {exc}"
    return failed


def dense_full_digital_se(cfg, trial: int, chunk: int = 32) -> float:
    """Full-digital SE of one fig6 trial from an SVD of every dense H[k].

    The realization is drawn again with the public seed derivation; H[k] =
    A_rx diag(m[:, k]) A_tx^H is materialized a few subcarriers at a time.
    """
    from fdiab.harness import derive_seed
    from fdiab.scenario import build_scenario, draw_realization

    scn = build_scenario(replace(cfg, backhaul_distance_m=cfg.sic_backhaul_distance_m))
    real = draw_realization(scn, lambda site: np.random.default_rng(
        derive_seed(cfg.master_seed, "fig6", site, trial)))
    ch = real.backhaul
    tx_h = ch.tx_basis.conj().T
    sigma = []
    for k0 in range(0, ch.num_subcarriers, chunk):
        dense = (ch.rx_basis[None, :, :] * ch.weights[:, k0:k0 + chunk].T[:, None, :]) @ tx_h
        sigma.append(np.linalg.svd(dense, compute_uv=False)[:, :cfg.tx_rf_chains])
    sigma = np.concatenate(sigma)
    snr = scn.snr_point(cfg.sic_snr_db)
    p = snr.stream_power(cfg.tx_rf_chains)
    return float(np.mean(np.sum(np.log2(1.0 + p * sigma ** 2 / snr.noise_power), axis=1)))


def full_digital_oracle(cfg, rows, trial: int = 0) -> str | None:
    """None when the trial's full-digital row matches the dense SVD."""
    found = [r["se_bps_hz"] for r in rows if r["experiment"] == "fig6"
             and r["scheme"] == "full-digital" and r["trial"] == trial]
    if len(found) != 1:
        return f"{len(found)} full-digital rows for trial {trial}"
    want = dense_full_digital_se(cfg, trial)
    if abs(found[0] - want) > REL * abs(want):
        return f"full-digital trial {trial}: row {found[0]!r}, dense SVD {want!r}"
    return None


def _same_row(a: dict, b: dict) -> bool:
    keys_match = all(a[k] == b[k] for k in a if k != "se_bps_hz") and a.keys() == b.keys()
    return keys_match and _close(a["se_bps_hz"], b["se_bps_hz"])


def _blas_sensitive(row: dict) -> bool:
    # fig5 fd with an estimation error: the combiner is solved against a
    # badly conditioned covariance, and these rows move by up to 4.4e-7
    # relative between single-threaded BLAS (workers) and the BLAS defaults
    # (in-process), depending on the seed; every other row stays within 5e-11
    return row["experiment"] == "fig5" and row["duplex"] == "fd" and row["sigma_e"] > 0.0


def worker_independence(cfg, rows, reference=None) -> str | None:
    """None when the rows match a single-worker in-process run of the same trials.

    Without ``reference`` rows, the first trial is run in-process. Rows that
    `_blas_sensitive` names are left out of the comparison.
    """
    from fdiab.harness import run_experiment

    if reference is None:
        reference = run_experiment(replace(cfg, trials=1, threads=1)).rows
    trials = {r["trial"] for r in reference}
    subset = [r for r in rows if r["trial"] in trials and not _blas_sensitive(r)]
    reference = [r for r in reference if not _blas_sensitive(r)]
    if len(subset) != len(reference) or not all(map(_same_row, subset, reference)):
        diff = sum(not _same_row(a, b) for a, b in zip(subset, reference))
        return (f"trials {sorted(trials)}: {len(subset)} rows at {cfg.threads} workers, "
                f"{len(reference)} in-process, {diff} differ")
    return None
