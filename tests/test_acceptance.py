"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The sweep criteria run the default configuration at 200 trials; the
subcarrier count is reduced to 128 (continuous-integration scale) with the
same pass thresholds. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fdiab.arrays import ArrayGeometry, partition_subarrays
from fdiab.channel import (ClusterConfig, PathChannel, draw_cee_noise,
                           perturb_effective_channel, sample_cluster_geometry)
from fdiab.config import ExperimentConfig
from fdiab.harness import run_experiment, write_csv
from fdiab.link import SnrPoint, duplex_rates, se_backhaul
from fdiab.rfil import RfNetwork, loss_fully_connected
from fdiab.scenario import rf_stage
from fdiab.transceiver import mmse_bb_combiner, normalize_power, zf_bb_precoder
from oracles import WidebandChannel, assemble_delay_taps, to_frequency

ACCEPTANCE = replace(ExperimentConfig(), subcarriers=128, num_taps=128,
                     snr_db_grid=(15.0,), trials=200, master_seed=1, threads=2)


def _passed(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def sweep():
    start = time.time()
    result = run_experiment(ACCEPTANCE)
    elapsed = time.time() - start
    return result.rows, elapsed


def _mean(rows, **kw):
    vals = [r["se_bps_hz"] for r in rows if all(r[k] == v for k, v in kw.items())]
    assert vals, f"no rows for {kw}"
    return float(np.mean(vals))


# --------------------------------------------------------------------------
# criterion 1: exact property suite


def test_criterion_1_property_suite(tmp_path):
    rng = np.random.default_rng(2)
    cfg = ClusterConfig(num_clusters=2, rays_per_cluster=4, num_taps=16)
    # the RF stage of the sweep, on a 4x4-to-4x4 channel over 16 subcarriers
    channel = PathChannel(sample_cluster_geometry(cfg, 2), ArrayGeometry(4, 4),
                          ArrayGeometry(4, 4), cfg, 16)
    factors = channel.covariance_factors("tx")
    f_rf = rf_stage(factors, RfNetwork((range(16),), 4))
    assert np.allclose(np.abs(f_rf), 1.0, atol=1e-12)

    part = partition_subarrays(16, 4)
    f_sub = rf_stage(factors, RfNetwork(part, 1))
    for col in range(4):
        off = np.setdiff1d(np.arange(16), np.asarray(part[col]))
        assert np.all(f_sub[off, col] == 0.0)

    bb = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    bb = normalize_power(f_rf, bb)
    assert np.allclose(np.linalg.norm(f_rf[None] @ bb, axis=(1, 2)) ** 2, 4.0, atol=1e-12)

    eff = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    zf = zf_bb_precoder(eff)
    coupled = eff @ zf
    diag = np.abs(np.einsum("kuu->ku", coupled))
    mui = np.abs(coupled - np.einsum("ku,uv->kuv", np.einsum("kuu->ku", coupled), np.eye(4)))
    assert np.max(mui) <= 1e-10 * np.min(diag)

    taps = assemble_delay_taps(sample_cluster_geometry(cfg, 3),
                               ArrayGeometry(2, 2), ArrayGeometry(2, 2), cfg)
    ch = to_frequency(WidebandChannel(taps=taps), 64)
    lhs = np.sum(np.abs(ch.freq) ** 2)
    rhs = 64 * np.sum(np.abs(taps) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-9

    snr = SnrPoint(10.0, num_users=4, num_subcarriers=8)
    desired = rng.standard_normal((8, 8, 4)) + 1j * rng.standard_normal((8, 8, 4))
    comb = mmse_bb_combiner(desired, np.zeros_like(desired), snr.noise_power,
                            snr.stream_power(4), 1.0)
    modes = duplex_rates(se_backhaul(desired, comb, snr, np.zeros_like(desired), 1.0),
                         se_backhaul(desired, comb, snr))
    assert modes["fd"].se_bps_hz == 2.0 * modes["hd"].se_bps_hz

    wins = 0
    for inst in range(100):
        a = rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4))
        b = rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4))
        p, q, noise = 2.0, 1.5, 0.5
        w_opt = mmse_bb_combiner(a, b, noise, p, q)[0]
        r = p * a[0] @ a[0].conj().T + q * b[0] @ b[0].conj().T + noise * np.eye(8)

        def mse(w):
            wm = w.conj().T
            m = np.eye(4) - np.sqrt(p) * wm @ a[0] - np.sqrt(p) * a[0].conj().T @ wm.conj().T \
                + wm @ r @ wm.conj().T
            return np.real(np.diag(m))

        base = mse(w_opt)
        rand = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        wins += np.all(mse(rand) >= base - 1e-12)
    assert wins == 100

    tiny = replace(ACCEPTANCE, subcarriers=32, num_taps=16, donor_rows=4, donor_cols=4,
                   iab_rows=4, iab_cols=4, user_rows=2, user_cols=2, clusters=3,
                   rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
                   panel_separation_wavelengths=5.0, sic_chain_counts=(2,),
                   trials=2, threads=1, experiments=("fig4",))
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(tiny), a_path)
    write_csv(run_experiment(tiny), b_path)
    assert a_path.read_bytes() == b_path.read_bytes()

    _passed("criterion 1", "unit modulus, block diagonality, power equality, "
            "ZF residual, Parseval, FD=2xHD, MMSE optimality 100/100, byte-identical rerun")


# --------------------------------------------------------------------------
# criterion 2: insertion-loss closed forms


def test_criterion_2_rfil_closed_forms():
    passive, active = "passive", "active"
    fc_tx = loss_fully_connected("tx", 256, 4, passive).total_db
    sa_tx = RfNetwork.partition(256, 4, 4).budget("tx", passive).total_db
    assert abs(fc_tx - 20.8) < 1e-12
    assert abs(sa_tx - 12.4) < 1e-12
    for side, n_ant, n_rf in (("tx", 256, 4), ("rx", 256, 8), ("tx", 64, 2)):
        delta = loss_fully_connected(side, n_ant, n_rf, active).total_db \
            - loss_fully_connected(side, n_ant, n_rf, passive).total_db
        assert abs(delta + 11.1) < 1e-12
    _passed("criterion 2", "fully connected tx 20.8 dB, subarray tx 12.4 dB, "
            "active-passive delta -11.1 dB, all exact")


# --------------------------------------------------------------------------
# criterion 3: structure comparison trends (200 trials, 15 dB)


def test_criterion_3_structure_gaps(sweep):
    rows, elapsed = sweep
    details = []
    for link, window in (("backhaul", (14.0, 26.0)), ("access", (8.0, 16.0))):
        fc = _mean(rows, experiment="fig4", scheme="fully-connected", link=link,
                   duplex="fd", ps_kind="ideal")
        sa = _mean(rows, experiment="fig4", scheme="subarray", link=link,
                   duplex="fd", ps_kind="ideal")
        fch = _mean(rows, experiment="fig4", scheme="fully-connected", link=link,
                    duplex="hd", ps_kind="ideal")
        sah = _mean(rows, experiment="fig4", scheme="subarray", link=link,
                    duplex="hd", ps_kind="ideal")
        gap = fc - sa
        ratio = (fch - sah) / gap
        assert window[0] <= gap <= window[1], f"{link} gap {gap:.2f} outside {window}"
        assert 0.4 <= ratio <= 0.6, f"{link} HD/FD gap ratio {ratio:.3f}"
        details.append(f"{link} gap {gap:.1f} (ratio {ratio:.2f})")
        for ps_kind in ("active", "passive"):
            fc_l = _mean(rows, experiment="fig4", scheme="fully-connected", link=link,
                         duplex="fd", ps_kind=ps_kind)
            sa_l = _mean(rows, experiment="fig4", scheme="subarray", link=link,
                         duplex="fd", ps_kind=ps_kind)
            rel = abs(sa_l - fc_l) / fc_l
            assert rel <= 0.15, f"{link}/{ps_kind} with-RFIL relative gap {rel:.1%}"
            details.append(f"{link}/{ps_kind} RFIL rel {rel:.1%}")
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
    _passed("criterion 3", "; ".join(details) + f"; runtime {elapsed:.0f}s")


def test_passive_below_active_everywhere(sweep):
    rows, _ = sweep
    for link in ("backhaul", "access"):
        for scheme in ("fully-connected", "subarray"):
            for duplex in ("fd", "hd"):
                act = _mean(rows, experiment="fig4", scheme=scheme, link=link,
                            duplex=duplex, ps_kind="active")
                pas = _mean(rows, experiment="fig4", scheme=scheme, link=link,
                            duplex=duplex, ps_kind="passive")
                assert pas < act
    _passed("criterion 3 supplement", "passive phase shifters below active in "
            "every configuration")


# --------------------------------------------------------------------------
# criterion 4: estimation-error crossings


def _crossing(rows, ps_kind, snr_db, sigma_grid):
    fd = np.array([_mean(rows, experiment="fig5", scheme="subarray", duplex="fd",
                         ps_kind=ps_kind, snr_db=snr_db, sigma_e=s) for s in sigma_grid])
    hd = np.array([_mean(rows, experiment="fig5", scheme="subarray", duplex="hd",
                         ps_kind=ps_kind, snr_db=snr_db, sigma_e=s) for s in sigma_grid])
    diff = fd - hd
    for i in range(len(sigma_grid) - 1):
        if diff[i] > 0 >= diff[i + 1]:
            frac = diff[i] / (diff[i] - diff[i + 1])
            return sigma_grid[i] + frac * (sigma_grid[i + 1] - sigma_grid[i])
    return np.nan


def test_criterion_4_fd_hd_crossings(sweep):
    rows, _ = sweep
    grid = ACCEPTANCE.sigma_e_grid
    lo, hi = ACCEPTANCE.cee_snrs_db
    # growing estimation error never helps the full-duplex mean
    for ps_kind in ("active", "passive"):
        fd = [_mean(rows, experiment="fig5", scheme="subarray", duplex="fd",
                    ps_kind=ps_kind, snr_db=lo, sigma_e=s) for s in grid]
        assert all(b <= a + 0.05 for a, b in zip(fd, fd[1:]))
    crossings = {}
    for ps_kind in ("active", "passive"):
        for snr_db in (lo, hi):
            x = _crossing(rows, ps_kind, snr_db, grid)
            assert np.isfinite(x), f"no FD/HD crossing for {ps_kind} at {snr_db} dB"
            crossings[(ps_kind, snr_db)] = x
        assert crossings[(ps_kind, hi)] < crossings[(ps_kind, lo)], \
            f"{ps_kind}: higher SNR must cross at smaller sigma_e"
    for snr_db in (lo, hi):
        assert crossings[("passive", snr_db)] >= crossings[("active", snr_db)], \
            f"passive crossing must sit right of active at {snr_db} dB"
    detail = ", ".join(f"{k[0]}@{k[1]:g}dB: {v:.3f}" for k, v in sorted(crossings.items()))
    _passed("criterion 4", detail)


# --------------------------------------------------------------------------
# criterion 5: digital-cancellation ability versus chain count


def test_criterion_5_digital_sic_ability(sweep):
    rows, _ = sweep
    improvements, losses = [], []
    for chains in ACCEPTANCE.sic_chain_counts:
        with_dsic = _mean(rows, experiment="fig6", scheme="subarray", duplex="fd",
                          L=chains)
        without = _mean(rows, experiment="fig6", scheme="subarray-no-dsic",
                        duplex="fd", L=chains)
        ideal = _mean(rows, experiment="fig6", scheme="subarray",
                      duplex="fd_perfect_sic", L=chains)
        improvements.append(100.0 * (with_dsic - without) / without)
        losses.append(ideal - with_dsic)
    assert 15.0 <= improvements[0] <= 31.0, f"L=2 improvement {improvements[0]:.1f}%"
    assert 25.0 <= improvements[1] <= 41.0, f"L=4 improvement {improvements[1]:.1f}%"
    assert improvements[0] < improvements[1] < improvements[2], "improvement not increasing"
    assert losses[0] > losses[1] > losses[2], "rate loss not decreasing"
    assert losses[2] <= 2.0, f"L=8 rate loss {losses[2]:.2f} b/s/Hz"
    _passed("criterion 5", "improvements " +
            "/".join(f"{i:.0f}%" for i in improvements) + ", rate losses " +
            "/".join(f"{l:.2f}" for l in losses))


# --------------------------------------------------------------------------
# criterion 6: cancellation gap to the perfect-cancellation reference


def test_criterion_6_digital_sic_near_ideal(sweep):
    rows, _ = sweep
    fd = _mean(rows, experiment="fig4", scheme="fully-connected", link="backhaul",
               duplex="fd", ps_kind="ideal", snr_db=15.0)
    perfect = _mean(rows, experiment="fig4", scheme="fully-connected", link="backhaul",
                    duplex="fd_perfect_sic", ps_kind="ideal", snr_db=15.0)
    gap = (perfect - fd) / perfect
    assert gap < 0.05, f"gap to perfect cancellation {gap:.1%}"
    _passed("criterion 6", f"gap to perfect cancellation {gap:.2%} (< 5%)")


# --------------------------------------------------------------------------
# criterion 7: statistical channel oracles


def test_criterion_7_statistical_oracles():
    cfg = ClusterConfig(num_clusters=100, rays_per_cluster=1, angle_spread=0.0, num_taps=8)
    rng = np.random.default_rng(99)
    azimuths = np.concatenate([sample_cluster_geometry(cfg, rng).aoa_azimuth
                               for _ in range(1000)])
    res = stats.kstest(azimuths, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert res.pvalue > 0.01

    cfg2 = ClusterConfig(num_clusters=10, rays_per_cluster=10, num_taps=8)
    rng = np.random.default_rng(2024)
    totals = [np.sum(np.abs(sample_cluster_geometry(cfg2, rng).gains) ** 2)
              for _ in range(1000)]
    assert abs(np.mean(totals) - 1.0) < 0.02

    rng = np.random.default_rng(12)
    h = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    ratios = []
    for _ in range(1000):
        delta = h - perturb_effective_channel(h, 0.1, draw_cee_noise(rng, h.shape))
        ratios.append(np.sum(np.abs(delta) ** 2) / np.sum(np.abs(h) ** 2))
    assert abs(np.mean(ratios) / 0.01 - 1.0) < 0.05

    _passed("criterion 7", f"angle uniformity p={res.pvalue:.3f}, ray power within 2%, "
            "estimation-error variance within 5%")
