import numpy as np
import pytest

from fdiab.arrays import ArrayGeometry, partition_subarrays, steering_matrix, upa_steering
from fdiab.errors import (ConfigurationError, DegenerateInputError, DomainError,
                          NearSingularError)
from fdiab.transceiver import (bb_svd, mmse_bb_combiner, normalize_power,
                               top_eigvecs_factored, zf_bb_precoder)
from oracles import (effective_channel, rf_from_covariance, rf_stage_fully_connected,
                     rf_stage_subarray)


def random_freq_channel(k, nr, nt, seed=0, paths=6):
    """Low-rank multipath-style channel stack for design tests."""
    rng = np.random.default_rng(seed)
    ar = rng.standard_normal((nr, paths)) + 1j * rng.standard_normal((nr, paths))
    at = rng.standard_normal((nt, paths)) + 1j * rng.standard_normal((nt, paths))
    g = rng.standard_normal((paths, k)) + 1j * rng.standard_normal((paths, k))
    return np.einsum("np,pk,mp->knm", ar, g, at.conj())


def test_rank_one_channel_phase_alignment():
    geom_r = ArrayGeometry(2, 2)
    geom_t = ArrayGeometry(2, 4)
    a_r = upa_steering(geom_r, 0.4, -0.2)
    a_t = upa_steering(geom_t, -1.0, 0.3)
    freq = np.repeat(np.outer(a_r, a_t.conj())[None], 8, axis=0)
    f_rf = rf_stage_fully_connected(freq, "tx", 1)
    # phase projection of a constant-modulus vector realigns it exactly:
    # the inner product reaches the Cauchy-Schwarz bound sqrt(N)
    assert np.isclose(np.abs(a_t.conj() @ f_rf[:, 0]), np.sqrt(geom_t.num_elements))
    w_rf = rf_stage_fully_connected(freq, "rx", 1)
    assert np.isclose(np.abs(a_r.conj() @ w_rf[:, 0]), np.sqrt(geom_r.num_elements))


def test_rf_entries_unit_modulus():
    freq = random_freq_channel(16, 8, 8, seed=1)
    f = rf_stage_fully_connected(freq, "tx", 4)
    assert np.allclose(np.abs(f), 1.0, atol=1e-12)


def test_sample_covariance_permutation_invariance():
    freq = random_freq_channel(8, 4, 4, seed=2)
    swapped = freq.copy()
    swapped[[0, 5]] = swapped[[5, 0]]
    assert np.allclose(rf_stage_fully_connected(freq, "tx", 2),
                       rf_stage_fully_connected(swapped, "tx", 2))


def test_eigen_design_beats_random_phases():
    rng = np.random.default_rng(3)
    wins = 0
    for trial in range(100):
        freq = random_freq_channel(8, 8, 8, seed=100 + trial, paths=3)
        w = rf_stage_fully_connected(freq, "rx", 2)
        f = rf_stage_fully_connected(freq, "tx", 2)
        gain = np.linalg.norm(effective_channel(freq, w, f))
        w_r = np.exp(1j * rng.uniform(0, 2 * np.pi, w.shape))
        f_r = np.exp(1j * rng.uniform(0, 2 * np.pi, f.shape))
        gain_r = np.linalg.norm(effective_channel(freq, w_r, f_r))
        wins += gain >= gain_r
    assert wins >= 95


def test_subarray_single_block_equals_fully_connected():
    freq = random_freq_channel(8, 4, 8, seed=4)
    part = partition_subarrays(8, 1)
    assert np.allclose(rf_stage_subarray(freq, part, "tx", 2),
                       rf_stage_fully_connected(freq, "tx", 2))


def test_subarray_block_diagonal_structure():
    freq = random_freq_channel(4, 8, 256, seed=5)
    part = partition_subarrays(256, 4)
    f = rf_stage_subarray(freq, part, "tx", 1)
    assert f.shape == (256, 4)
    for col in range(4):
        onblock = np.zeros(256, dtype=bool)
        onblock[np.asarray(part[col])] = True
        assert np.count_nonzero(f[:, col]) == 64
        assert np.all(f[~onblock, col] == 0.0)
        assert np.allclose(np.abs(f[onblock, col]), 1.0, atol=1e-12)


def test_subarray_structure_random_sizes():
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = int(rng.integers(1, 5))
        n = u * int(rng.integers(2, 9))
        freq = random_freq_channel(4, n, 6, seed=int(rng.integers(1e6)))
        part = partition_subarrays(n, u)
        w = rf_stage_subarray(freq, part, "rx", 1)
        for col in range(u):
            idx = np.asarray(part[col])
            off = np.setdiff1d(np.arange(n), idx)
            assert np.all(w[off, col] == 0.0)


def test_factored_eigvectors_match_dense():
    rng = np.random.default_rng(7)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    basis, core = gaussian(24, 6), gaussian(6, 6)
    cases = [(basis, core @ core.conj().T)]
    # 10 of 16 rays clipped to one elevation pole: their steering vectors
    # coincide to rounding and R is singular to working precision
    pole = np.random.default_rng(1)
    elevation = pole.uniform(-1.2, 1.2, 16)
    elevation[:10] = np.pi / 2
    clipped = steering_matrix(ArrayGeometry(4, 8), pole.uniform(-np.pi, np.pi, 16), elevation)
    core = pole.standard_normal((16, 16)) + 1j * pole.standard_normal((16, 16))
    cases.append((clipped, core @ core.conj().T))
    # a short block: fewer elements than paths
    core = gaussian(10, 10)
    cases.append((gaussian(6, 10), core @ core.conj().T))
    for basis, core in cases:
        dense = basis @ core @ basis.conj().T
        v_fact = top_eigvecs_factored(basis, core, 3)
        v_dense = np.linalg.eigh(dense)[1][:, ::-1][:, :3]
        assert np.allclose(np.abs(v_fact.conj().T @ v_dense), np.eye(3), atol=1e-8)
        # both eigenvector routes feed the same phase projection
        assert np.allclose(rf_from_covariance(dense, 3), np.exp(1j * np.angle(v_fact)),
                           atol=1e-8)


def test_factored_eigvectors_of_a_rank_deficient_covariance():
    # a covariance of rank 2: the third vector, lifted through Q, is still a
    # unit vector of its null space, orthogonal to the first two
    rng = np.random.default_rng(8)
    basis = rng.standard_normal((24, 6)) + 1j * rng.standard_normal((24, 6))
    half = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    core = half @ half.conj().T
    dense = basis @ core @ basis.conj().T
    v = top_eigvecs_factored(basis, core, 3)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
    v_dense = np.linalg.eigh(dense)[1][:, ::-1][:, :2]
    assert np.allclose(np.abs(v[:, :2].conj().T @ v_dense), np.eye(2), atol=1e-8)
    assert np.linalg.norm(dense @ v[:, 2]) <= 1e-12 * np.linalg.norm(dense, 2)


def test_rf_design_errors():
    freq = random_freq_channel(4, 4, 4, seed=8)
    with pytest.raises(ConfigurationError):
        rf_stage_fully_connected(freq, "tx", 5)
    with pytest.raises(DegenerateInputError):
        rf_from_covariance(np.zeros((4, 4), dtype=complex), 2)


def test_bb_svd_diagonal_channel():
    eff = np.zeros((2, 3, 3), dtype=complex)
    eff[:] = np.diag([3.0, 2.0, 1.0])
    prec, comb = bb_svd(eff, 2)
    coupled = comb.conj().transpose(0, 2, 1) @ eff @ prec
    assert np.allclose(coupled, np.diag([3.0, 2.0]), atol=1e-10)


def test_bb_svd_diagonalizes_with_top_singular_values():
    eff = random_freq_channel(8, 6, 4, seed=9)
    prec, comb = bb_svd(eff, 3)
    coupled = comb.conj().transpose(0, 2, 1) @ eff @ prec
    s = np.linalg.svd(eff, compute_uv=False)[:, :3]
    for k in range(8):
        assert np.allclose(coupled[k], np.diag(s[k]), atol=1e-10)


def test_bb_svd_beats_random_unitary():
    rng = np.random.default_rng(10)
    for trial in range(100):
        eff = random_freq_channel(1, 6, 6, seed=200 + trial, paths=4)
        prec, comb = bb_svd(eff, 2)
        se = _se(eff, prec, comb)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        qc, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        se_r = _se(eff, q[None], qc[None])
        assert se >= se_r - 1e-9


def _se(eff, prec, comb, p=1.0):
    g = comb.conj().transpose(0, 2, 1) @ eff @ prec
    q = comb.conj().transpose(0, 2, 1) @ comb
    m = np.eye(g.shape[1]) + p * np.linalg.solve(q, g @ g.conj().transpose(0, 2, 1))
    return float(np.mean(np.linalg.slogdet(m)[1]))


def test_bb_svd_stream_count_error():
    with pytest.raises(ConfigurationError):
        bb_svd(random_freq_channel(2, 3, 3), 4)


def test_zf_single_user_matched_direction():
    eff = random_freq_channel(4, 1, 4, seed=11)
    f = zf_bb_precoder(eff)
    # pseudo-inverse of a row vector is the matched direction
    for k in range(4):
        h = eff[k, 0]
        assert np.allclose(f[k, :, 0], h.conj() / np.linalg.norm(h), atol=1e-10)


def test_zf_identity_channel():
    eff = np.repeat(np.eye(4, dtype=complex)[None], 3, axis=0)
    f = zf_bb_precoder(eff)
    # pseudo-inverse of the identity with unit-norm columns is the identity
    assert np.allclose(eff @ f, np.eye(4), atol=1e-12)


def test_zf_residual_multiuser_interference():
    eff = random_freq_channel(16, 4, 4, seed=12, paths=8)
    f = zf_bb_precoder(eff)
    coupled = eff @ f
    diag = np.abs(np.einsum("kuu->ku", coupled))
    mui = np.abs(coupled - np.einsum("ku,uv->kuv", np.einsum("kuu->ku", coupled), np.eye(4)))
    assert np.max(mui) <= 1e-10 * np.min(diag)


@pytest.mark.parametrize("k,u,m", [(8, 4, 4), (16, 4, 16), (5, 3, 7), (3, 1, 5)])
def test_zf_equals_pinv_bit_for_bit(k, u, m):
    rng = np.random.default_rng(k * 100 + u * 10 + m)
    eff = rng.standard_normal((k, u, m)) + 1j * rng.standard_normal((k, u, m))
    pinv = np.linalg.pinv(eff)
    assert np.array_equal(zf_bb_precoder(eff),
                          pinv / np.linalg.norm(pinv, axis=1, keepdims=True))


def test_zf_near_singular_error():
    nearly_parallel = [[1, 0, 0, 0], [1, 1e-12, 0, 0], [0, 0, 1, 0]]
    # an exactly singular subcarrier: parallel users, or a user with a zero row
    parallel = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
    zero_row = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    for rows in (nearly_parallel, parallel, zero_row):
        eff = np.repeat(np.array(rows, dtype=complex)[None], 2, axis=0)
        with np.errstate(all="raise"), pytest.raises(NearSingularError) as err:
            zf_bb_precoder(eff)
        assert err.value.condition_number is None or err.value.condition_number > 1e8


def test_mmse_high_snr_converges_to_pseudo_inverse():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4))
    comb = mmse_bb_combiner(a, None, 1e-10, 1.0)
    w = comb.conj().transpose(0, 2, 1)[0]
    pinv = np.linalg.pinv(a[0])
    assert np.linalg.norm(w - pinv) / np.linalg.norm(pinv) < 1e-3


def test_mmse_beats_random_combiners_per_stream():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4))
    b = rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4))
    p, q, noise = 2.0, 1.5, 0.5
    comb = mmse_bb_combiner(a, b, noise, p, q)

    def per_stream_mse(w):
        # w acts as s_hat = w^H x with x = sqrt(p) A s + sqrt(q) B s_i + n
        r = p * a[0] @ a[0].conj().T + q * b[0] @ b[0].conj().T + noise * np.eye(8)
        wm = w.conj().T
        m = np.eye(4) - np.sqrt(p) * wm @ a[0] - np.sqrt(p) * a[0].conj().T @ wm.conj().T \
            + wm @ r @ wm.conj().T
        return np.real(np.diag(m))

    base = per_stream_mse(comb[0])
    for _ in range(1000):
        w = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        assert np.all(per_stream_mse(w) >= base - 1e-12)


def test_mmse_chain_rule_and_noise_checks():
    a = np.ones((1, 6, 4), dtype=complex)
    b = np.ones((1, 6, 4), dtype=complex)
    with pytest.raises(ConfigurationError, match="rf-chain-rule"):
        mmse_bb_combiner(a, b, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mmse_bb_combiner(a, None, 0.0, 1.0)


def test_normalize_power_equality_per_subcarrier():
    rng = np.random.default_rng(15)
    rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 4)))
    bb = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    out = normalize_power(rf, bb)
    norms = np.linalg.norm(rf[None] @ out, axis=(1, 2)) ** 2
    # four streams at unit power each: total power N_s = 4 on every subcarrier
    assert np.allclose(norms, 4.0, atol=1e-12)


def test_normalize_power_equal_streams():
    rng = np.random.default_rng(16)
    rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 4)))
    bb = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    coupled = rf[None] @ normalize_power(rf, bb)
    # four users, four streams: per-stream power N_s / U = 1 under equal allocation
    assert np.allclose(np.linalg.norm(coupled, axis=1) ** 2, 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(coupled, axis=(1, 2)) ** 2, 4.0, atol=1e-12)


def test_normalize_power_scale_invariance():
    rng = np.random.default_rng(17)
    rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 2)))
    bb = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    assert np.allclose(normalize_power(rf, bb), normalize_power(rf, 2.0 * bb), atol=1e-14)
    with pytest.raises(DegenerateInputError):
        normalize_power(rf, np.zeros_like(bb))


def test_design_determinism():
    freq = random_freq_channel(8, 8, 8, seed=18)
    assert np.array_equal(rf_stage_fully_connected(freq, "tx", 3),
                          rf_stage_fully_connected(freq, "tx", 3))
    prec1, comb1 = bb_svd(freq, 2)
    prec2, comb2 = bb_svd(freq, 2)
    assert np.array_equal(prec1, prec2) and np.array_equal(comb1, comb2)
    # fixed global phase: leading significant entry of each precoder column is
    # real and positive
    lead = prec1[0, :, 0]
    first = np.argmax(np.abs(lead) > 1e-12 * np.abs(lead).max())
    assert abs(np.imag(lead[first])) < 1e-12 and np.real(lead[first]) > 0
