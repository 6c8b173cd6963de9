import copy

import mpmath
import numpy as np
import pytest
from dataclasses import replace

from fdiab.arrays import partition_subarrays
from fdiab.channel import draw_cee_noise, estimation_error, near_field_los
from fdiab.config import STRUCTURES, ExperimentConfig
from fdiab.errors import ConfigurationError
from fdiab.harness import _seeder, study_scenario
from fdiab.link import combiner_rate
from fdiab.rfil import PS_KINDS, RfNetwork, loss_fully_connected
from fdiab.scenario import (AccessLinkDesign, BackhaulLink, BackhaulLinkDesign,
                            build_scenario, draw_realization, full_digital_backhaul_se,
                            rf_stage)
from fdiab.transceiver import bb_svd
from oracles import frequency_response, rf_stage_fully_connected, rf_stage_subarray

SMALL = replace(
    ExperimentConfig(), subcarriers=32, num_taps=16,
    donor_rows=4, donor_cols=4, iab_rows=4, iab_cols=4, user_rows=2, user_cols=2,
    clusters=3, rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
    panel_separation_wavelengths=5.0, trials=2,
)


def _backhaul(scn, real, access, structure, chains):
    """The full-duplex receiver of the backhaul link of ``structure``."""
    return BackhaulLinkDesign(real, BackhaulLink(scn, real, structure, chains), access)


def _desired(real, link):
    """The link's desired effective channel A, which it keeps only whitened."""
    return real.backhaul.effective(link.w_rf, link.f_rf) @ link.f_bb


@pytest.fixture(scope="module")
def drop():
    scn = build_scenario(SMALL)
    real = draw_realization(scn, _seeder(1, "test", 0))
    return scn, real


def test_realizations_reproducible():
    scn = build_scenario(SMALL)
    a = draw_realization(scn, _seeder(9, "test", 3))
    b = draw_realization(scn, _seeder(9, "test", 3))
    assert np.array_equal(a.backhaul.weights, b.backhaul.weights)
    assert np.array_equal(a.si.los, b.si.los)
    assert np.array_equal(a.access[0].weights, b.access[0].weights)
    c = draw_realization(scn, _seeder(9, "test", 4))
    assert not np.array_equal(a.backhaul.weights, c.backhaul.weights)


def test_near_field_los_shared_read_only_across_draws():
    scn = build_scenario(SMALL)
    a = draw_realization(scn, _seeder(9, "test", 3))
    b = draw_realization(scn, _seeder(9, "test", 4))
    assert a.si.los is b.si.los
    assert not a.si.los.flags.writeable
    with pytest.raises(ValueError):
        a.si.los[0, 0] = 0.0
    fresh = near_field_los(scn.iab_tx_geom, scn.iab_rx_geom, scn.wavelength)
    assert fresh.flags.writeable
    assert np.array_equal(a.si.los, fresh)


def test_si_channel_carries_cancellation_budget(drop):
    scn, real = drop
    # 80 dB of pre-digital cancellation scales amplitudes by 1e-4
    assert np.isclose(real.si.amplitude, 10 ** (-scn.si_cfg.pre_digital_sic_db / 20.0))


@pytest.mark.parametrize("structure", ["fully-connected", "subarray"])
def test_designs_respect_rf_constraints(drop, structure):
    scn, real = drop
    access = AccessLinkDesign(scn, real, structure)
    bh = BackhaulLink(scn, real, structure, 2)
    for mat in (access.f_rf, bh.f_rf, bh.w_rf):
        nz = np.abs(mat) > 0
        assert np.allclose(np.abs(mat[nz]), 1.0, atol=1e-12)
    # power constraint with equality on every subcarrier
    norms = np.linalg.norm(bh.f_rf[None] @ bh.f_bb, axis=(1, 2)) ** 2
    assert np.allclose(norms, scn.users, atol=1e-12)
    per_stream = np.linalg.norm(access.f_rf[None] @ access.f_bb, axis=1) ** 2
    assert np.allclose(per_stream, 1.0, atol=1e-12)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_rf_stages_match_dense_oracle(drop, side):
    scn, real = drop
    freq = frequency_response(real.backhaul)
    geom = scn.donor_geom if side == "tx" else scn.iab_rx_geom
    blocks = partition_subarrays(geom.num_elements, scn.users)
    factors = real.backhaul.covariance_factors(side)
    panel = (range(blocks[-1].stop),)
    for n_rf in (1, 2):
        assert np.allclose(rf_stage(factors, RfNetwork(panel, n_rf)),
                           rf_stage_fully_connected(freq, side, n_rf), rtol=0, atol=1e-8)
        assert np.allclose(rf_stage(factors, RfNetwork(blocks, n_rf)),
                           rf_stage_subarray(freq, blocks, side, n_rf), rtol=0, atol=1e-8)
    # the access stages as designed: column u of the transmit stage comes from
    # user u's channel, over the whole panel or over subarray u alone
    if side == "tx":
        fully = AccessLinkDesign(scn, real, "fully-connected").f_rf
        per_user = AccessLinkDesign(scn, real, "subarray").f_rf
        iab_blocks = partition_subarrays(scn.iab_tx_geom.num_elements, scn.users)
        for b, ch in enumerate(real.access):
            freq_u = frequency_response(ch)
            assert np.allclose(fully[:, b], rf_stage_fully_connected(freq_u, "tx", 1)[:, 0],
                               rtol=0, atol=1e-8)
            idx = np.asarray(iab_blocks[b])
            dense = rf_stage_subarray(freq_u, iab_blocks, "tx", 1)
            assert np.allclose(per_user[idx, b], dense[idx, b], rtol=0, atol=1e-8)
    else:
        combiners = AccessLinkDesign(scn, real, "fully-connected").combiners
        for w, ch in zip(combiners, real.access, strict=True):
            assert np.allclose(w, rf_stage_fully_connected(frequency_response(ch), "rx", 1),
                               rtol=0, atol=1e-8)


def test_subarray_designs_block_diagonal(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "subarray")
    bh = BackhaulLink(scn, real, "subarray", 2)
    for mat, geom in ((access.f_rf, scn.iab_tx_geom), (bh.f_rf, scn.donor_geom)):
        blocks = partition_subarrays(geom.num_elements, scn.users)
        for col in range(mat.shape[1]):
            block = np.asarray(blocks[col % len(blocks)])
            off = np.setdiff1d(np.arange(mat.shape[0]), block)
            assert np.all(mat[off, col] == 0.0)


def test_rf_stages_shared_within_a_drop():
    # the users' combiners serve both structures, the donor stage every
    # receive chain count and a receive stage every design with its network;
    # each is built once per drop and read-only
    scn = build_scenario(SMALL)
    real = draw_realization(scn, _seeder(1, "test", 0))
    fc, sa = (AccessLinkDesign(scn, real, s) for s in ("fully-connected", "subarray"))
    assert all(a is b for a, b in zip(fc.combiners, sa.combiners, strict=True))
    two, four = (BackhaulLink(scn, real, "subarray", n) for n in (2, 4))
    assert two.f_rf is four.f_rf and two.w_rf.shape != four.w_rf.shape
    assert BackhaulLink(scn, real, "subarray", 2).w_rf is two.w_rf
    assert not np.array_equal(BackhaulLink(scn, real, "fully-connected", 2).f_rf, two.f_rf)
    assert not (two.f_rf.flags.writeable or two.w_rf.flags.writeable
                or fc.combiners[0].flags.writeable)
    fresh = draw_realization(scn, _seeder(1, "test", 0))
    assert np.array_equal(BackhaulLink(scn, fresh, "subarray", 4).f_rf, two.f_rf)


@pytest.mark.parametrize("chains", [2, 3])
@pytest.mark.parametrize("ps_kind", PS_KINDS)
@pytest.mark.parametrize("structure", STRUCTURES)
def test_budgets_match_closed_forms(drop, structure, ps_kind, chains):
    # a subarray path crosses one of the 4 blocks of a 16-element panel; the
    # 2x2 user array has the size of an IAB subarray, so the user side is
    # (4, 1) in both structures
    scn, real = drop
    assert (scn.donor_geom.num_elements, scn.iab_rx_geom.num_elements,
            scn.user_geom.num_elements, scn.users) == (16, 16, 4, 4)
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLink(scn, real, structure, chains)
    fully = structure == "fully-connected"
    want = {backhaul: (("tx", 16, 4) if fully else ("tx", 4, 1),
                       ("rx", 16, 4 * chains) if fully else ("rx", 4, chains)),
            access: (("tx", 16, 4) if fully else ("tx", 4, 1), ("rx", 4, 1))}
    for design, sides in want.items():
        for got, (side, n_ant, n_rf) in zip(design.budgets(ps_kind), sides, strict=True):
            ref = loss_fully_connected(side, n_ant, n_rf, ps_kind)
            assert (got.total_db, got.breakdown) == (ref.total_db, ref.breakdown)


def _joint_interference_free(chol, interference, desired, a):
    """Per-subcarrier rate without interference, from the squared singular
    values of the trailing block of qr(L^{-1} [B | A], mode="r")."""
    white = np.linalg.solve(chol, np.concatenate([interference, desired], axis=2))
    r = np.linalg.qr(white, mode="r")[:, :, interference.shape[2]:]
    return np.sum(np.log1p(a * np.linalg.svd(r, compute_uv=False) ** 2), axis=1) / np.log(2.0)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_interference_free_rate_matches_joint_factoring(drop, structure):
    # the link whitens and factors its desired channel alone; the rate equals
    # the one read from the joint factoring of the SI and desired channels
    scn, real = drop
    access = AccessLinkDesign(scn, real, structure)
    bh = _backhaul(scn, real, access, structure, 2)
    link = bh.link
    for snr in (scn.snr_point(-10.0), scn.snr_point(20.0)):
        a = link.a("ideal", snr)
        want = _joint_interference_free(link.chol, bh.g_si0 @ access.f_bb,
                                        _desired(real, link), a)
        got = link.interference_free(a).per_subcarrier
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        # the aware combiner at zero interference power is the link's own
        assert np.allclose(combiner_rate(bh.aware, a, 0.0).per_subcarrier, got,
                           rtol=1e-12, atol=0)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_donor_svd_precoder_leaves_every_rate_unchanged(drop, structure):
    # the donor sends one stream per chain, so the right singular vectors of
    # its effective channel form a unitary V[k]: A V has the same rates as A
    scn, real = drop
    access = AccessLinkDesign(scn, real, structure)
    bh = _backhaul(scn, real, access, structure, 2)
    link = bh.link
    eff = real.backhaul.effective(link.w_rf, link.f_rf)
    svd = bb_svd(eff, scn.users)[0]
    totals = np.linalg.norm(link.f_rf[None] @ svd, axis=(1, 2)) ** 2
    svd = svd * np.sqrt(scn.users / totals)[:, None, None]
    precoded = eff @ svd
    old_link = copy.copy(link)
    old_link.white = np.linalg.solve(link.chol, precoded)
    old = BackhaulLinkDesign(real, old_link, access)
    assert not np.allclose(precoded, eff @ link.f_bb)
    cee = draw_cee_noise(np.random.default_rng(3), (scn.num_subcarriers, 2 * scn.users,
                                                    scn.users))
    # the operating points at -10 and 20 dB with ideal phase shifters
    for snr in (scn.snr_point(-10.0), scn.snr_point(20.0)):
        a = snr.stream_power(scn.users) / snr.noise_power
        b = a * scn.si_power_advantage
        pairs = [(combiner_rate(bh.aware, a, b), combiner_rate(old.aware, a, b)),
                 (combiner_rate(bh.combiner(0.1, cee), a, b),
                  combiner_rate(old.combiner(0.1, cee), a, b)),
                 (combiner_rate(bh.blind_combiner(), a, b),
                  combiner_rate(old.blind_combiner(), a, b))]
        for new, ref in pairs:
            assert np.allclose(new.per_subcarrier, ref.per_subcarrier, rtol=1e-12, atol=0)
        old_free = _joint_interference_free(link.chol, bh.g_si0 @ access.f_bb, precoded, a)
        assert np.allclose(link.interference_free(a).per_subcarrier, old_free,
                           rtol=1e-12, atol=0)


def test_access_zero_forcing_holds(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "fully-connected")
    coupled = access.rows0
    diag = np.abs(np.einsum("kuu->ku", coupled))
    mui = np.abs(coupled - np.einsum("ku,uv->kuv", np.einsum("kuu->ku", coupled),
                                     np.eye(scn.users)))
    assert np.max(mui) <= 1e-9 * np.min(diag)


def test_half_duplex_is_exactly_half_of_perfect(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "fully-connected")
    bh = _backhaul(scn, real, access, "fully-connected", 2)
    out = bh.evaluate("ideal", scn.snr_point(10.0))
    assert out["fd_perfect_sic"].se_bps_hz == 2.0 * out["hd"].se_bps_hz
    assert out["fd"].se_bps_hz <= out["fd_perfect_sic"].se_bps_hz + 1e-12


def test_interference_aware_combiner_beats_ignorant(drop):
    # exact interference covariance: the aware combiner never loses
    scn, real = drop
    for structure in ("fully-connected", "subarray"):
        access = AccessLinkDesign(scn, real, structure)
        bh = _backhaul(scn, real, access, structure, 2)
        snr = scn.snr_point(10.0)
        aware = bh.evaluate("ideal", snr)["fd"]
        blind = bh.evaluate("ideal", snr, bh.blind_combiner())["fd"]
        assert aware.se_bps_hz >= blind.se_bps_hz - 1e-9


def test_ideal_components_bit_exact(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "subarray")
    bh = _backhaul(scn, real, access, "subarray", 2)
    a = bh.evaluate("ideal", scn.snr_point(5.0))
    b = bh.evaluate("ideal", scn.snr_point(5.0))
    assert a["fd"].se_bps_hz == b["fd"].se_bps_hz
    # the default combiner is the exact estimate's, ``aware``
    cee = np.ones((scn.num_subcarriers, 2 * scn.users, scn.users), dtype=complex)
    assert bh.combiner(0.0, cee) is bh.aware
    c = bh.evaluate("ideal", scn.snr_point(5.0), bh.aware)
    for mode in a:
        assert a[mode].se_bps_hz == c[mode].se_bps_hz
        assert np.array_equal(a[mode].per_subcarrier, c[mode].per_subcarrier)


def test_rfil_ordering_passive_worst(drop):
    # interference-free rates order strictly by transmit-side insertion loss
    scn, real = drop
    for structure in ("fully-connected", "subarray"):
        access = AccessLinkDesign(scn, real, structure)
        bh = _backhaul(scn, real, access, structure, 2)
        snr = scn.snr_point(10.0)
        per_kind = {kind: bh.evaluate(kind, snr)["fd_perfect_sic"].se_bps_hz
                    for kind in ("ideal", "active", "passive")}
        # active phase shifters carry a net per-traversal gain, so only the
        # active-versus-passive ordering is universal
        assert per_kind["active"] > per_kind["passive"]
        assert per_kind["ideal"] > per_kind["passive"]
        acc = {kind: access.evaluate(kind, snr)["fd"].se_bps_hz
               for kind in ("ideal", "active", "passive")}
        assert acc["active"] > acc["passive"]
        assert acc["ideal"] > acc["passive"]


def test_full_digital_upper_bounds_hybrid(drop):
    scn, real = drop
    snr = scn.snr_point(10.0)
    digital = full_digital_backhaul_se(real, scn, snr).se_bps_hz
    for structure in ("fully-connected", "subarray"):
        access = AccessLinkDesign(scn, real, structure)
        bh = _backhaul(scn, real, access, structure, 2)
        hybrid = bh.evaluate("ideal", snr)["fd_perfect_sic"].se_bps_hz
        assert digital >= hybrid - 1e-9


def test_estimation_error_degrades_full_duplex(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "subarray")
    bh = _backhaul(scn, real, access, "subarray", 2)
    snr = scn.snr_point(10.0)
    rng = np.random.default_rng(0)
    m = scn.users * 2
    cee = (rng.standard_normal((scn.num_subcarriers, m, scn.users))
           + 1j * rng.standard_normal((scn.num_subcarriers, m, scn.users))) / np.sqrt(2)
    ses = [bh.evaluate("ideal", snr, bh.combiner(s, cee))["fd"].se_bps_hz
           for s in (0.0, 0.05, 0.2, 0.8)]
    assert ses[0] >= ses[1] >= ses[2] >= ses[3]


def test_more_receive_chains_never_hurt_with_dsic(drop):
    scn, real = drop
    access = AccessLinkDesign(scn, real, "subarray")
    snr = scn.snr_point(10.0)
    ses = []
    for chains in (2, 3, 4):
        bh = _backhaul(scn, real, access, "subarray", chains)
        ses.append(bh.evaluate("ideal", snr)["fd"].se_bps_hz)
    assert ses[0] <= ses[1] + 1e-9 and ses[1] <= ses[2] + 1e-9


def _mp(a):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def _mp_rate(desired, interference_cov, combiner, a):
    """log2 of det(C^H (R + a A A^H) C) / det(C^H R C): the combiner's rate."""
    ch = combiner.H
    total = interference_cov + a * desired * desired.H
    ratio = mpmath.det(ch * total * combiner) / mpmath.det(ch * interference_cov * combiner)
    return mpmath.log(mpmath.re(ratio), 2)


# drops 1-4 at fig5's distance, and drop 3 at fig4's and fig6's: on drop 3 a
# subarray ``fd`` rate that formed R22's Gram errs by up to 1.5e-12
@pytest.mark.parametrize("seed,structure,study", [
    pytest.param(seed, structure, study,
                 id=f"drop{seed}-{structure}" + ("" if study == "fig5" else f"-{study}"))
    for seed, study in [(1, "fig5"), (2, "fig5"), (3, "fig5"), (4, "fig5"),
                        (3, "fig4"), (3, "fig6")]
    for structure in STRUCTURES])
def test_closed_form_rates_match_extended_precision_oracle(seed, structure, study):
    # at fig5's backhaul distance the interference arrives about 2e13 times
    # stronger than the desired signal per stream, and the rates rest on
    # its null space
    scn = study_scenario(SMALL, study)
    seeder = _seeder(seed, "test", 0)
    real = draw_realization(scn, seeder)
    access = AccessLinkDesign(scn, real, structure)
    bh = _backhaul(scn, real, access, structure, 2)
    snr = scn.snr_point(20.0)
    out = bh.evaluate("active", snr)
    out["fd_no_dsic"] = bh.evaluate("active", snr, bh.blind_combiner())["fd"]
    # the combiner designed from an estimate with error sigma_e, judged
    # against the truth: estimate plus error
    cee = draw_cee_noise(seeder("cee"), (scn.num_subcarriers, 2 * scn.users, scn.users))
    sigmas = (0.01, 1.0)
    errors = [estimation_error(bh.g_si0, sigma_e, cee) for sigma_e in sigmas]
    mismatched = [bh.evaluate("active", snr, bh.combiner(sigma_e, cee))["fd"]
                  for sigma_e in sigmas]
    p = snr.stream_power(scn.users)
    with mpmath.workdps(40):
        n = mpmath.mpf(snr.noise_power)
        a = mpmath.mpf(p) * mpmath.mpf(bh.link.budgets("active")[0].linear_scale) ** 2 / n
        b = (mpmath.mpf(p) * mpmath.mpf(scn.si_power_advantage)
             * mpmath.mpf(access.budgets("active")[0].linear_scale) ** 2 / n)
        gram = _mp(bh.link.noise_gram)
        des0 = _desired(real, bh.link)
        for k in range(scn.num_subcarriers):
            desired = _mp(des0[k])
            rsi = _mp(bh.g_si0[k]) * _mp(access.f_bb[k])
            interference = gram + b * rsi * rsi.H
            aware = mpmath.inverse(interference + a * desired * desired.H) * desired
            blind = mpmath.inverse(gram + a * desired * desired.H) * desired
            want = {"fd": _mp_rate(desired, interference, aware, a),
                    "fd_perfect_sic": _mp_rate(desired, gram, blind, a),
                    "fd_no_dsic": _mp_rate(desired, interference, blind, a)}
            for mode, rel in (("fd", 1e-13), ("fd_perfect_sic", 1e-13), ("fd_no_dsic", 1e-11)):
                got = out[mode].per_subcarrier[k]
                assert abs(got - want[mode]) <= rel * abs(want[mode]), (mode, k, got, want[mode])
            for sigma_e, error, res in zip(sigmas, errors, mismatched):
                estimate = rsi - _mp(error[k]) * _mp(access.f_bb[k])
                comb = mpmath.inverse(gram + b * estimate * estimate.H
                                      + a * desired * desired.H) * desired
                want = _mp_rate(desired, interference, comb, a)
                got = res.per_subcarrier[k]
                assert abs(got - want) <= 1e-11 * abs(want), (sigma_e, k, got, want)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("sigma_e", [0.0, 0.1])
def test_too_few_receive_chains_rejected_at_evaluation(drop, structure, sigma_e):
    # one chain per subarray: M = U receive chains for U desired plus U
    # interfering streams; the route to a rate at any sigma_e stops at
    # rf-chain-rule, because the receiver is refused before any combiner exists
    scn, real = drop
    access = AccessLinkDesign(scn, real, structure)
    cee = np.ones((scn.num_subcarriers, scn.users, scn.users), dtype=complex)
    with pytest.raises(ConfigurationError, match="rf-chain-rule"):
        bh = _backhaul(scn, real, access, structure, 1)
        bh.evaluate("ideal", scn.snr_point(10.0), bh.combiner(sigma_e, cee))
