import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

from fdiab.arrays import ArrayGeometry, element_positions
from fdiab.channel import (ClusterConfig, PathChannel, SiChannelConfig, _range_factor,
                           _si_nlos_config, ci_path_loss, draw_cee_noise, near_field_los,
                           perturb_effective_channel, raised_cosine,
                           sample_cluster_geometry, si_channel_parts)
from fdiab.config import ExperimentConfig
from fdiab.errors import ConfigurationError, DegenerateInputError, DomainError
from fdiab.harness import _seeder
from fdiab.scenario import build_scenario, draw_realization, full_digital_backhaul_se
from oracles import (WidebandChannel, assemble_delay_taps, frequency_response,
                     gen_si_channel, subcarrier_singular_values, to_frequency)


def small_cfg(**kw):
    defaults = dict(num_clusters=2, rays_per_cluster=3, num_taps=8)
    defaults.update(kw)
    return ClusterConfig(**defaults)


def test_single_ray_geometry_shapes():
    cfg = small_cfg(num_clusters=1, rays_per_cluster=1)
    paths = sample_cluster_geometry(cfg, 5)
    assert paths.num_paths == 1
    assert 0.0 <= paths.delays[0] <= cfg.num_taps
    assert -np.pi / 2 <= paths.aoa_elevation[0] <= np.pi / 2


def test_same_seed_reproducible():
    cfg = small_cfg()
    a = sample_cluster_geometry(cfg, 42)
    b = sample_cluster_geometry(cfg, 42)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.aod_azimuth, b.aod_azimuth)


def test_ray_power_normalization_monte_carlo():
    # total expected ray-gain power is 1: mean over realizations within 2%
    cfg = small_cfg(num_clusters=10, rays_per_cluster=10)
    rng = np.random.default_rng(2024)
    total = [np.sum(np.abs(sample_cluster_geometry(cfg, rng).gains) ** 2)
             for _ in range(1000)]  # 100k ray gains in total
    assert abs(np.mean(total) - 1.0) < 0.02


def test_central_azimuth_uniformity():
    # with one ray per cluster and zero spread the ray azimuths equal the
    # cluster centers; Kolmogorov-Smirnov against U[-pi, pi] at 1% significance
    cfg = small_cfg(num_clusters=100, rays_per_cluster=1, angle_spread=0.0)
    rng = np.random.default_rng(99)
    draws = np.concatenate([sample_cluster_geometry(cfg, rng).aoa_azimuth
                            for _ in range(1000)])
    assert draws.size == 100_000
    res = stats.kstest(draws, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert res.pvalue > 0.01


def test_angles_stay_in_domain():
    cfg = small_cfg(num_clusters=4, rays_per_cluster=50, angle_spread=1.2)
    paths = sample_cluster_geometry(cfg, 11)
    for az in (paths.aoa_azimuth, paths.aod_azimuth):
        assert np.all(az >= -np.pi) and np.all(az <= np.pi)
    for el in (paths.aoa_elevation, paths.aod_elevation):
        assert np.all(el >= -np.pi / 2) and np.all(el <= np.pi / 2)


def test_raised_cosine_basics():
    assert raised_cosine(0.0, 0.5) == 1.0
    # rolloff 0 reduces to the sinc pulse
    x = np.linspace(-3, 3, 13)
    assert np.allclose(raised_cosine(x, 0.0), np.sinc(x))
    # the textbook value at the rolloff singularity for beta = 1
    assert np.isclose(raised_cosine(0.5, 1.0), 0.5)


def test_on_grid_delay_with_sinc_pulse_hits_single_tap():
    cfg = small_cfg(num_clusters=1, rays_per_cluster=1, pulse_rolloff=0.0)
    paths = sample_cluster_geometry(cfg, 3)
    paths.delays[:] = 3.0
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2)
    taps = assemble_delay_taps(paths, tx, rx, cfg)
    energy = np.linalg.norm(taps, axis=(1, 2)) ** 2
    assert energy[3] > 0
    mask = np.ones(cfg.num_taps, dtype=bool)
    mask[3] = False
    assert np.all(energy[mask] < 1e-20 * energy[3])
    assert np.linalg.matrix_rank(taps[3]) == 1


def test_tap_power_normalization_monte_carlo():
    cfg = small_cfg(num_clusters=2, rays_per_cluster=4, num_taps=16)
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2)
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(1000):
        taps = assemble_delay_taps(sample_cluster_geometry(cfg, rng), tx, rx, cfg)
        ratios.append(np.sum(np.abs(taps) ** 2) / (tx.num_elements * rx.num_elements))
    assert abs(np.mean(ratios) - 1.0) < 0.03


def test_to_frequency_flat_channel():
    taps = np.zeros((4, 2, 2), dtype=complex)
    taps[0] = np.array([[1, 2], [3, 4]])
    ch = to_frequency(WidebandChannel(taps=taps), 16)
    assert np.allclose(ch.freq, ch.freq[0])


def test_to_frequency_two_tap_comb():
    k = 8
    a = 1.0 + 2j
    taps = np.zeros((k, 1, 1), dtype=complex)
    taps[0, 0, 0] = a
    taps[k // 2, 0, 0] = a
    ch = to_frequency(WidebandChannel(taps=taps), k)
    expected = np.array([a * (1 + (-1) ** kk) for kk in range(k)])
    assert np.allclose(ch.freq[:, 0, 0], expected)


def test_parseval_identity():
    cfg = small_cfg(num_taps=16)
    tx, rx = ArrayGeometry(2, 2), ArrayGeometry(1, 3)
    taps = assemble_delay_taps(sample_cluster_geometry(cfg, 8), tx, rx, cfg)
    ch = to_frequency(WidebandChannel(taps=taps), 64)
    lhs = np.sum(np.abs(ch.freq) ** 2)
    rhs = 64 * np.sum(np.abs(taps) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-9


def test_to_frequency_rejects_short_fft():
    taps = np.zeros((8, 1, 1), dtype=complex)
    with pytest.raises(ConfigurationError, match="taps-within-cp"):
        to_frequency(WidebandChannel(taps=taps), 4)
    with pytest.raises(DegenerateInputError):
        to_frequency(WidebandChannel(), 16)


def test_tap_rank_bounded_by_path_count():
    cfg = small_cfg(num_clusters=1, rays_per_cluster=2, num_taps=4)
    tx, rx = ArrayGeometry(3, 3), ArrayGeometry(3, 3)
    taps = assemble_delay_taps(sample_cluster_geometry(cfg, 1), tx, rx, cfg)
    for d in range(4):
        assert np.linalg.matrix_rank(taps[d], tol=1e-9) <= cfg.num_paths


def test_ci_path_loss_values():
    fspl = ci_path_loss(1.0, 28e9)
    assert np.isclose(fspl, 20 * np.log10(4 * np.pi * 28e9 / 3e8))
    assert abs(fspl - 61.385) < 0.01
    assert np.isclose(ci_path_loss(10.0, 28e9, 2.0) - fspl, 20.0)
    with pytest.raises(DomainError):
        ci_path_loss(0.5, 28e9)


def test_path_channel_matches_dense_assembly():
    cfg = small_cfg(num_taps=8)
    tx, rx = ArrayGeometry(2, 3), ArrayGeometry(2, 2)
    paths = sample_cluster_geometry(cfg, 21)
    k = 32
    pc = PathChannel(paths, tx, rx, cfg, k)
    dense = to_frequency(WidebandChannel(taps=assemble_delay_taps(paths, tx, rx, cfg)), k)
    assert np.allclose(frequency_response(pc), dense.freq, atol=1e-10)
    # effective channels through explicit matrices
    rng = np.random.default_rng(0)
    w = rng.standard_normal((rx.num_elements, 2)) + 1j * rng.standard_normal((rx.num_elements, 2))
    f = rng.standard_normal((tx.num_elements, 3)) + 1j * rng.standard_normal((tx.num_elements, 3))
    eff = pc.effective(w, f)
    ref = np.einsum("ia,kij,jb->kab", w.conj(), dense.freq, f, optimize=True)
    assert np.allclose(eff, ref, atol=1e-10)
    # sample covariances, whole array and one element subset per side
    def covariance(side, idx=slice(None)):
        basis, core = pc.covariance_factors(side)
        return basis[idx] @ core @ basis[idx].conj().T

    assert np.allclose(covariance("tx"),
                       np.einsum("kni,knj->ij", dense.freq.conj(), dense.freq) / k, atol=1e-10)
    assert np.allclose(covariance("rx"),
                       np.einsum("kin,kjn->ij", dense.freq, dense.freq.conj()) / k, atol=1e-10)
    cols, rows = np.array([0, 2, 5]), np.array([1, 3])
    sub_tx, sub_rx = dense.freq[:, :, cols], dense.freq[:, rows, :]
    assert np.allclose(covariance("tx", cols),
                       np.einsum("kni,knj->ij", sub_tx.conj(), sub_tx) / k, atol=1e-10)
    assert np.allclose(covariance("rx", rows),
                       np.einsum("kin,kjn->ij", sub_rx, sub_rx.conj()) / k, atol=1e-10)
    # per-subcarrier singular values
    sv = pc.subcarrier_singular_values(2)
    ref_sv = np.linalg.svd(dense.freq, compute_uv=False)[:, :2]
    assert np.allclose(sv, ref_sv, atol=1e-9)


def test_singular_values_with_small_ratio_within_absolute_bound():
    # ray gains falling by a decade each: the fourth kept singular value is
    # about 2e-4 of the first, where the Gram eigenvalues promise an absolute
    # error of a few eps * s_1^2 / s_n, not the relative accuracy of an SVD
    cfg = replace(ExperimentConfig(), subcarriers=32, num_taps=16, donor_rows=4,
                  donor_cols=4, iab_rows=4, iab_cols=4, user_rows=2, user_cols=2,
                  clusters=3, rays_per_cluster=4, access_clusters=2,
                  access_rays_per_cluster=4, panel_separation_wavelengths=5.0)
    scn = build_scenario(cfg)
    paths = sample_cluster_geometry(scn.cluster_cfg, 3)
    paths.gains = paths.gains * 10.0 ** -np.arange(paths.num_paths)
    pc = PathChannel(paths, scn.donor_geom, scn.iab_rx_geom, scn.cluster_cfg,
                     scn.num_subcarriers)
    sv = pc.subcarrier_singular_values(scn.users)
    ref = subcarrier_singular_values(pc, scn.users)
    assert np.max(ref[:, -1] / ref[:, 0]) < 1e-3
    assert np.all(np.abs(sv - ref) <= 1e-10 * ref[:, :1])
    # the full-digital reference on this channel against the dense SVD
    real = replace(draw_realization(scn, _seeder(1, "test", 0)), backhaul=pc)
    snr = scn.snr_point(15.0)
    se = full_digital_backhaul_se(real, scn, snr).se_bps_hz
    gains = snr.stream_power(scn.users) * ref ** 2 / snr.noise_power
    se_ref = float(np.mean(np.sum(np.log2(1.0 + gains), axis=1)))
    assert abs(se - se_ref) <= 1e-9 * se_ref


@pytest.mark.parametrize("tx_shape, rx_shape", [((2, 3), (2, 2)), ((2, 2), (2, 3))],
                         ids=["receive-side-gram", "transmit-side-gram"])
def test_singular_values_on_both_gram_sides(tx_shape, rx_shape):
    # 6 paths on a 4-element side: the path-space core is 4 x 6 or 6 x 4
    cfg = small_cfg(num_taps=8)
    paths = sample_cluster_geometry(cfg, 21)
    k = 21
    pc = PathChannel(paths, ArrayGeometry(*tx_shape), ArrayGeometry(*rx_shape), cfg, k)
    sv = pc.subcarrier_singular_values(4)
    assert sv.shape == (k, 4)
    assert np.allclose(sv, subcarrier_singular_values(pc, 4), rtol=1e-9, atol=1e-9)
    assert np.all(np.diff(sv, axis=1) <= 0.0)


def test_singular_values_beyond_the_rank_rejected():
    cfg = small_cfg(num_taps=8)
    pc = PathChannel(sample_cluster_geometry(cfg, 21), ArrayGeometry(2, 3),
                     ArrayGeometry(2, 2), cfg, 16)
    assert pc.subcarrier_singular_values(4).shape == (16, 4)
    with pytest.raises(ConfigurationError):
        pc.subcarrier_singular_values(5)


def test_singular_values_on_rank_deficient_bases():
    # rays clipped to one elevation pole share one steering vector, so each
    # 40-path basis has a numerical rank below 40
    cfg = ClusterConfig(num_clusters=5, rays_per_cluster=8, num_taps=16)
    paths = sample_cluster_geometry(cfg, 7)
    paths.aoa_elevation[:10] = np.pi / 2
    paths.aoa_elevation[10:15] = -np.pi / 2
    paths.aod_elevation[20:32] = np.pi / 2
    pc = PathChannel(paths, ArrayGeometry(8, 8), ArrayGeometry(8, 8), cfg, 32)
    ranks = []
    for basis in (pc.rx_basis, pc.tx_basis):
        f = _range_factor(basis)
        assert f.shape == (np.linalg.matrix_rank(basis), cfg.num_paths)
        assert len(f) < cfg.num_paths
        # basis = U F with orthonormal U: F keeps the Gram of the basis
        assert np.allclose(f.conj().T @ f, basis.conj().T @ basis, atol=1e-12)
        ranks.append(len(f))
    sv = pc.subcarrier_singular_values(4)
    assert np.allclose(sv, subcarrier_singular_values(pc, 4), rtol=1e-9, atol=1e-9)
    # beyond the smaller numerical rank the values are 0, where the dense
    # SVD returns values at its rounding level; every value stays within the
    # Gram's accuracy, about sqrt(eps) * s_1. Only the structural rank,
    # min(N, P) = 40, bounds the stream count
    rank = min(ranks)
    sv = pc.subcarrier_singular_values(rank + 2)
    dense = subcarrier_singular_values(pc, rank + 2)
    assert np.all(sv[:, rank:] == 0)
    assert np.all(dense[:, rank:] <= 1e-12 * dense[:, :1])
    assert np.all(np.abs(sv - dense) <= 4 * np.sqrt(np.finfo(float).eps) * dense[:, :1])
    assert pc.subcarrier_singular_values(cfg.num_paths).shape == (32, cfg.num_paths)
    with pytest.raises(ConfigurationError):
        pc.subcarrier_singular_values(cfg.num_paths + 1)


@pytest.mark.parametrize("k", [32, 256])
def test_singular_values_memory_does_not_grow_with_subcarriers(k):
    # 40 paths on 64-element arrays: a few 40 x 40 temporaries at a time, at any K
    cfg = ClusterConfig(num_clusters=5, rays_per_cluster=8, num_taps=16)
    pc = PathChannel(sample_cluster_geometry(cfg, 7), ArrayGeometry(8, 8),
                     ArrayGeometry(8, 8), cfg, k)
    tracemalloc.start()
    try:
        sv = pc.subcarrier_singular_values(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = cfg.num_paths
    assert peak - sv.nbytes < 8 * p * p * 16


def test_covariance_factors_computed_once_per_side(monkeypatch):
    cfg = small_cfg()
    tx, rx = ArrayGeometry(2, 3), ArrayGeometry(2, 2)
    paths = sample_cluster_geometry(cfg, 4)
    pc = PathChannel(paths, tx, rx, cfg, 16)
    weight_gram = PathChannel._weight_gram
    grams = []

    def counted(channel):
        grams.append(channel)
        return weight_gram(channel)

    monkeypatch.setattr(PathChannel, "_weight_gram", counted)
    first = {side: pc.covariance_factors(side) for side in ("tx", "rx")}
    # one W W^H / K per channel serves both sides
    assert grams == [pc]
    for side, (basis, core) in first.items():
        again = pc.covariance_factors(side)
        assert again[0] is basis and again[1] is core
        assert not core.flags.writeable
        fresh = PathChannel(paths, tx, rx, cfg, 16).covariance_factors(side)
        assert np.array_equal(fresh[0], basis) and np.array_equal(fresh[1], core)
    assert len(grams) == 3
    # the tx core is A_rx^H A_rx times the conjugate weight Gram, the rx core
    # A_tx^H A_tx times the Gram itself
    gram = weight_gram(pc)
    assert np.array_equal(first["tx"][1], (pc.rx_basis.conj().T @ pc.rx_basis) * gram.conj())
    assert np.array_equal(first["rx"][1], (pc.tx_basis.conj().T @ pc.tx_basis) * gram)
    assert first["tx"][0] is pc.tx_basis and first["rx"][0] is pc.rx_basis
    with pytest.raises(ConfigurationError):
        pc.covariance_factors("both")


@pytest.mark.filterwarnings("ignore:panel separation")
def test_near_field_los_hand_values():
    lam = 0.01
    tx = ArrayGeometry(1, 2, spacing=0.5)
    rx = ArrayGeometry(1, 2, spacing=0.5, origin=(0.05, 0.0, 0.0))
    los = near_field_los(tx, rx, lam)
    tx_pos = element_positions(tx, lam)
    rx_pos = element_positions(rx, lam)
    r = np.linalg.norm(rx_pos[:, None, :] - tx_pos[None, :, :], axis=2)
    raw = np.exp(-2j * np.pi * r / lam) / r
    rho = np.sqrt(4.0 / np.sum(1.0 / r ** 2))
    assert np.allclose(los, rho * raw, atol=1e-12)
    assert np.isclose(np.linalg.norm(los) ** 2, 4.0)


@pytest.mark.filterwarnings("ignore:panel separation")
def test_los_magnitude_decreases_with_distance():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(4, 4, spacing=0.5)
    rx = ArrayGeometry(4, 4, spacing=0.5, origin=(20 * lam, 0.0, 0.0))
    los = near_field_los(tx, rx, lam)
    r = np.linalg.norm(element_positions(rx, lam)[:, None, :]
                       - element_positions(tx, lam)[None, :, :], axis=2)
    order = np.argsort(r.ravel())
    mags = np.abs(los).ravel()[order]
    assert np.all(np.diff(mags) <= 1e-12)


@pytest.mark.filterwarnings("ignore:panel separation")
def test_si_channel_pure_los_limit():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(10 * lam, 0.0, 0.0))
    cfg = SiChannelConfig(rician_factor_db=np.inf)
    cluster = small_cfg()
    a = gen_si_channel(tx, rx, cfg, cluster, 1, lam)
    b = gen_si_channel(tx, rx, cfg, cluster, 2, lam)
    assert np.array_equal(a.taps, b.taps)
    assert np.allclose(a.taps[0], near_field_los(tx, rx, lam))
    assert np.linalg.matrix_rank(a.taps[0], tol=1e-9) >= 1


@pytest.mark.filterwarnings("ignore:panel separation")
@pytest.mark.parametrize("rician_db", [np.inf, -np.inf])
def test_si_channel_parts_rician_limits(rician_db):
    """+inf dB leaves the LoS matrix alone on every subcarrier, -inf dB the NLoS paths."""
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(8 * lam, 0.0, 0.0))
    cfg = SiChannelConfig(rician_factor_db=rician_db, pre_digital_sic_db=20.0)
    cluster, k = small_cfg(), 16
    parts = si_channel_parts(tx, rx, cfg, cluster, 5, lam, k)
    assert (parts.los_weight, parts.nlos_weight) == ((1.0, 0.0) if rician_db > 0 else (0.0, 1.0))
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    if rician_db > 0:
        flat = parts.amplitude * (w.conj().T @ near_field_los(tx, rx, lam) @ f)
        expected = np.broadcast_to(flat, (k,) + flat.shape)
    else:
        nlos_cfg = _si_nlos_config(cfg, cluster)
        nlos = PathChannel(sample_cluster_geometry(nlos_cfg, 5), tx, rx, nlos_cfg, k)
        expected = parts.amplitude * nlos.effective(w, f)
    assert np.array_equal(parts.effective(w, f), expected)


@pytest.mark.filterwarnings("ignore:panel separation")
def test_si_channel_rician_power_split():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(8 * lam, 0.0, 0.0))
    cfg = SiChannelConfig(rician_factor_db=0.0)
    cluster = small_cfg(num_clusters=2, rays_per_cluster=4)
    rng = np.random.default_rng(6)
    los_power = np.linalg.norm(near_field_los(tx, rx, lam)) ** 2 / 2.0
    nlos_powers = []
    for _ in range(1000):
        ch = gen_si_channel(tx, rx, cfg, cluster, rng, lam)
        total = np.sum(np.abs(ch.taps) ** 2)
        # remove the deterministic LoS half to isolate the random part
        nlos_powers.append(total)
    mean_total = np.mean(nlos_powers)
    # kappa = 1: halves are equal in expectation, so total is 2x the LoS half
    assert abs(mean_total / (2 * los_power) - 1.0) < 0.03


@pytest.mark.filterwarnings("ignore:panel separation")
def test_si_parts_match_dense_channel():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(8 * lam, 0.0, 0.0))
    # the dense oracle carries no cancellation budget
    cfg = SiChannelConfig(rician_factor_db=10.0, pre_digital_sic_db=0.0)
    cluster = small_cfg(num_taps=8)
    k = 16
    dense = to_frequency(WidebandChannel(
        taps=gen_si_channel(tx, rx, cfg, cluster, 33, lam).taps), k)
    parts = si_channel_parts(tx, rx, cfg, cluster, 33, lam, k)
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    f = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    eff = parts.effective(w, f)
    ref = np.einsum("ia,kij,jb->kab", w.conj(), dense.freq, f, optimize=True)
    assert np.allclose(eff, ref, atol=1e-10)


def test_near_field_warning_outside_radius():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(1000 * lam, 0.0, 0.0))
    with pytest.warns(UserWarning, match="near-field"):
        near_field_los(tx, rx, lam)


@pytest.mark.filterwarnings("ignore:panel separation")
def test_apply_residual_sic():
    lam = 3e8 / 28e9
    tx = ArrayGeometry(2, 2)
    rx = ArrayGeometry(2, 2, origin=(8 * lam, 0.0, 0.0))

    def parts(sic_db):
        cfg = SiChannelConfig(rician_factor_db=10.0, pre_digital_sic_db=sic_db)
        return si_channel_parts(tx, rx, cfg, small_cfg(), 4, lam, 16)

    eye = np.eye(4)
    unattenuated = parts(0.0)
    assert unattenuated.amplitude == 1.0
    full = unattenuated.effective(eye, eye)
    out = parts(80.0).effective(eye, eye)
    # the parts of one seed differ by the budget of their config alone
    assert np.array_equal(out, 10 ** (-80 / 20) * full)
    assert np.isclose(np.sum(np.abs(full) ** 2) / np.sum(np.abs(out) ** 2), 1e8)
    with pytest.raises(ConfigurationError):
        SiChannelConfig(pre_digital_sic_db=-1.0)


def test_cee_perfect_estimate():
    h = np.random.default_rng(0).standard_normal((4, 3, 2)) + 0j
    assert np.array_equal(perturb_effective_channel(h, 0.0, draw_cee_noise(1, h.shape)), h)


def test_cee_variance_ratio():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    sigma_e = 0.1
    ratios = []
    for _ in range(1000):
        delta = h - perturb_effective_channel(h, sigma_e, draw_cee_noise(rng, h.shape))
        ratios.append(np.sum(np.abs(delta) ** 2) / np.sum(np.abs(h) ** 2))
    assert abs(np.mean(ratios) / sigma_e ** 2 - 1.0) < 0.05


def test_cee_zero_mean():
    rng = np.random.default_rng(13)
    h = np.ones((1, 2, 2), dtype=complex)
    deltas = np.array([h - perturb_effective_channel(h, 0.3, draw_cee_noise(rng, h.shape))
                       for _ in range(10_000)])
    mean = deltas.mean()
    sigma = 0.3 / np.sqrt(deltas.size)
    assert abs(mean) < 3 * sigma * 2  # complex mean, loose 3-sigma band
