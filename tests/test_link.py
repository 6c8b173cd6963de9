import numpy as np
import pytest

from fdiab.errors import DomainError
from fdiab.link import DUPLEX_MODES, SnrPoint, duplex_rates, se_access, se_backhaul
from fdiab.transceiver import mmse_bb_combiner


def rand_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_snr_point_definition_invariant():
    snr = SnrPoint(15.0, num_users=4, num_subcarriers=512)
    # SNR = P_r / (K * U * sigma_n^2) with sigma_n^2 the band noise power
    assert np.isclose(snr.received_power / (512 * 4 * snr.band_noise_power),
                      10 ** 1.5)
    assert np.isclose(snr.stream_power(4), snr.received_power / 512 / 4)
    with pytest.raises(DomainError):
        SnrPoint(0.0, noise_power=0.0)


def _designed_link(seed=0, k=16, m=8, ns=4):
    rng = np.random.default_rng(seed)
    desired = rand_stack(rng, (k, m, ns))
    snr = SnrPoint(10.0, num_users=4, num_subcarriers=k)
    comb = mmse_bb_combiner(desired, None, snr.noise_power, snr.stream_power(ns))
    return desired, comb, snr


def test_full_duplex_exactly_doubles_half_duplex_at_zero_rsi():
    desired, comb, snr = _designed_link()
    zero_rsi = np.zeros_like(desired)
    fd = se_backhaul(desired, comb, snr, zero_rsi, rsi_power=5.0)
    perfect = se_backhaul(desired, comb, snr)
    hd = duplex_rates(fd, perfect)["hd"]
    assert fd.se_bps_hz == 2.0 * hd.se_bps_hz  # bit-exact
    assert fd.se_bps_hz == perfect.se_bps_hz


def test_perfect_sic_never_below_fd_with_interference():
    rng = np.random.default_rng(1)
    desired, comb, snr = _designed_link(seed=2)
    rsi = rand_stack(rng, desired.shape)
    fd = se_backhaul(desired, comb, snr, rsi, rsi_power=2.0)
    perfect = se_backhaul(desired, comb, snr)
    assert perfect.se_bps_hz >= fd.se_bps_hz


def test_se_monotone_in_snr():
    rng = np.random.default_rng(3)
    desired = rand_stack(rng, (8, 8, 4))
    last = 0.0
    for snr_db in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        snr = SnrPoint(snr_db, num_subcarriers=8)
        comb = mmse_bb_combiner(desired, None, snr.noise_power, snr.stream_power(4))
        se = se_backhaul(desired, comb, snr).se_bps_hz
        assert se >= last
        last = se


def test_se_invariant_to_unitary_stream_rotation():
    # rotating the baseband precoder columns by a common unitary changes the
    # effective stream basis but not the achievable log-det rate
    rng = np.random.default_rng(4)
    eff = rand_stack(rng, (8, 8, 4))
    bb = rand_stack(rng, (8, 4, 4))
    q, _ = np.linalg.qr(rand_stack(rng, (4, 4)))
    snr = SnrPoint(10.0, num_subcarriers=8)
    p = snr.stream_power(4)

    def run(precoded):
        comb = mmse_bb_combiner(precoded, None, snr.noise_power, p)
        return se_backhaul(precoded, comb, snr).se_bps_hz

    # norm is preserved by the rotation, so no renormalization is needed
    assert np.isclose(run(eff @ bb), run(eff @ bb @ q), atol=1e-9)


def test_regularization_flagged_for_singular_output_covariance():
    desired, comb, snr = _designed_link(seed=5, m=6)
    gram = np.zeros((6, 6))  # degenerate noise coloring forces the ridge
    res = se_backhaul(desired, comb, snr, noise_gram=gram)
    assert res.regularized_subcarriers == desired.shape[0]
    assert np.isfinite(res.se_bps_hz)


def test_access_symmetric_identity_channel():
    rows = np.repeat(np.eye(4, dtype=complex)[None], 8, axis=0)
    snr = SnrPoint(0.0, num_subcarriers=8)
    res = se_access(rows, snr)
    assert np.allclose(res.per_user, res.per_user[0])
    assert np.isclose(res.se_bps_hz, res.per_user.sum())
    hd = duplex_rates(res, res)["hd"]
    assert np.isclose(hd.se_bps_hz, 0.5 * res.se_bps_hz)


def test_half_duplex_halves_every_rate():
    desired, comb, snr = _designed_link(seed=8)
    free = se_backhaul(desired, comb, snr)
    modes = duplex_rates(se_backhaul(desired, comb, snr, desired, rsi_power=1.0), free)
    assert tuple(modes) == DUPLEX_MODES
    assert modes["fd_perfect_sic"] is free
    assert np.array_equal(2.0 * modes["hd"].per_subcarrier, free.per_subcarrier)
    rows = rand_stack(np.random.default_rng(9), (4, 4, 4))
    access = se_access(rows, SnrPoint(5.0, num_subcarriers=4))
    hd = duplex_rates(access, access)["hd"]
    assert np.array_equal(2.0 * hd.per_user, access.per_user)
    assert np.array_equal(2.0 * hd.per_subcarrier, access.per_subcarrier)
    assert hd.se_bps_hz == 0.5 * access.se_bps_hz


def test_access_sum_is_additive_over_users():
    rng = np.random.default_rng(6)
    rows = rand_stack(rng, (4, 4, 4))
    res = se_access(rows, SnrPoint(5.0, num_subcarriers=4), noise_scales=np.full(4, 2.0))
    assert np.isclose(res.se_bps_hz, np.sum(res.per_user))


def test_access_zero_forcing_interference_below_noise():
    # rows produced by an exact zero-forcing design: off-diagonals at numerical
    # precision contribute < 1e-8 of the noise to the SINR denominator
    rng = np.random.default_rng(7)
    eff = rand_stack(rng, (8, 4, 4))
    cond = np.linalg.cond(eff)
    assert np.all(cond < 1e4)
    f = np.linalg.pinv(eff)
    rows = eff @ f
    mui = np.abs(rows - np.eye(4)[None]) ** 2
    snr = SnrPoint(10.0, num_subcarriers=8)
    assert np.max(mui.sum(axis=2)) * snr.stream_power(4) < 1e-8 * snr.noise_power
