"""Property tests of the designs the sweep runs: RF stages, duplex modes, the
growth of spectral efficiency with SNR and the closed-form backhaul rates;
and of the configs it accepts, which are exactly those it can run.

Each example draws one small drop with a random seed and geometry, designs
both links and checks their RF and zero-forcing stages or evaluates them at
one operating point or over the SNR grid.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdiab.arrays import partition_subarrays
from fdiab.channel import draw_cee_noise, perturb_effective_channel
from fdiab.config import EXPERIMENTS, PS_KINDS, STRUCTURES, ExperimentConfig
from fdiab.errors import ConfigurationError
from fdiab.harness import _seeder, run_trial, study_scenario
from fdiab.link import DUPLEX_MODES, combiner_rate, se_backhaul
from fdiab.scenario import (AccessLinkDesign, BackhaulLink, BackhaulLinkDesign,
                            build_scenario, draw_realization)
from fdiab.transceiver import mmse_bb_combiner

# 16 backhaul paths: enough for every receive-chain count on a 16-element panel
SMALL = replace(
    ExperimentConfig(), subcarriers=16, num_taps=8,
    clusters=4, rays_per_cluster=4, access_clusters=2, access_rays_per_cluster=4,
    panel_separation_wavelengths=5.0,
)


@st.composite
def drops(draw):
    users = draw(st.sampled_from((2, 4)))
    iab_rows, iab_cols = draw(st.sampled_from(((2, 4), (4, 4))))
    chains = draw(st.integers(2, iab_rows * iab_cols // users))
    donor_rows, donor_cols = draw(st.sampled_from(((2, 2), (2, 4), (4, 4))))
    user_rows, user_cols = draw(st.sampled_from(((1, 2), (2, 2))))
    cfg = replace(SMALL, users=users, iab_rows=iab_rows, iab_cols=iab_cols,
                  donor_rows=donor_rows, donor_cols=donor_cols, user_rows=user_rows,
                  user_cols=user_cols, rx_chains_per_subarray=chains,
                  sic_chain_counts=(chains,))
    cfg.validate()
    seed = draw(st.integers(0, 2 ** 16))
    return cfg, seed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drop=drops(), structure=st.sampled_from(STRUCTURES),
       ps_kind=st.sampled_from(PS_KINDS), snr_db=st.sampled_from((-10.0, 5.0, 20.0)),
       sigma_e=st.sampled_from((0.0, 0.1, 1.0)))
def test_duplex_modes_of_production_designs(drop, structure, ps_kind, snr_db, sigma_e):
    cfg, seed = drop
    scn = build_scenario(cfg)
    seeder = _seeder(seed, "property", 0)
    real = draw_realization(scn, seeder)
    access = AccessLinkDesign(scn, real, structure)
    link = BackhaulLink(scn, real, structure, cfg.rx_chains_per_subarray)
    backhaul = BackhaulLinkDesign(real, link, access)
    snr = scn.snr_point(snr_db)
    cee = draw_cee_noise(seeder("cee"),
                         (cfg.subcarriers, cfg.users * cfg.rx_chains_per_subarray, cfg.users))

    acc = access.evaluate(ps_kind, snr)
    mismatched = backhaul.combiner(sigma_e, cee)
    bh = backhaul.evaluate(ps_kind, snr, mismatched)
    for out in (acc, bh):
        assert tuple(out) == DUPLEX_MODES
        assert out["hd"].se_bps_hz == 0.5 * out["fd_perfect_sic"].se_bps_hz
        assert np.array_equal(out["hd"].per_subcarrier,
                              0.5 * out["fd_perfect_sic"].per_subcarrier)
    # the users see no self-interference
    assert acc["fd"].se_bps_hz == acc["fd_perfect_sic"].se_bps_hz
    fd, ideal = bh["fd"].se_bps_hz, bh["fd_perfect_sic"].se_bps_hz
    assert fd <= ideal * (1.0 + 1e-12)
    # without interference power every MMSE combiner has the link's rate
    for a in (1e2, 1e5):
        want = link.interference_free(a).per_subcarrier
        for combiner in (backhaul.aware, mismatched, backhaul.blind_combiner()):
            got = combiner_rate(combiner, a, 0.0).per_subcarrier
            assert np.all(np.abs(got - want) <= 1e-12 * want), (a, got, want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drop=drops())
def test_se_non_decreasing_in_snr(drop):
    cfg, seed = drop
    scn = build_scenario(cfg)
    real = draw_realization(scn, _seeder(seed, "property", 0))
    snrs = [scn.snr_point(snr_db) for snr_db in sorted(cfg.snr_db_grid)]
    assert (snrs[0].snr_db, snrs[-1].snr_db) == (-10.0, 20.0)
    for structure in STRUCTURES:
        access = AccessLinkDesign(scn, real, structure)
        link = BackhaulLink(scn, real, structure, cfg.rx_chains_per_subarray)
        for design in (access, BackhaulLinkDesign(real, link, access)):
            for ps_kind in PS_KINDS:
                curves = [design.evaluate(ps_kind, snr) for snr in snrs]
                for mode in DUPLEX_MODES:
                    se = [curve[mode].se_bps_hz for curve in curves]
                    for low, high in zip(se, se[1:]):
                        assert high >= low * (1.0 - 1e-12), (structure, ps_kind, mode, se)


def _general_rates(real, backhaul, ps_kind, snr, sigma_e, cee):
    """fd, fd_perfect_sic and fd_no_dsic through explicit MMSE combiners; the
    full-duplex combiner is designed from the SI estimate with error sigma_e."""
    link, access = backhaul.link, backhaul.access
    scn = link.scn
    des0 = real.backhaul.effective(link.w_rf, link.f_rf) @ link.f_bb
    desired = des0 * link.budgets(ps_kind)[0].linear_scale
    g_si = backhaul.g_si0 * access.budgets(ps_kind)[0].linear_scale
    rsi = g_si @ access.f_bb
    rsi_est = perturb_effective_channel(g_si, sigma_e, cee) @ access.f_bb
    p = snr.stream_power(scn.users)
    p_rsi = p * scn.si_power_advantage
    gram = link.noise_gram
    aware = mmse_bb_combiner(desired, rsi_est, snr.noise_power, p, p_rsi, noise_gram=gram)
    blind = mmse_bb_combiner(desired, None, snr.noise_power, p, noise_gram=gram)
    return {"fd": se_backhaul(desired, aware, snr, rsi, p_rsi, gram),
            "fd_perfect_sic": se_backhaul(desired, blind, snr, noise_gram=gram),
            "fd_no_dsic": se_backhaul(desired, blind, snr, rsi, p_rsi, gram)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drop=drops(), structure=st.sampled_from(STRUCTURES),
       ps_kind=st.sampled_from(PS_KINDS), snr_db=st.sampled_from((-10.0, 5.0, 20.0)),
       sigma_e=st.sampled_from((0.0, 0.1, 1.0)))
def test_closed_form_rates_match_general_combiner_path(drop, structure, ps_kind, snr_db,
                                                       sigma_e):
    cfg, seed = drop
    scn = build_scenario(cfg)
    seeder = _seeder(seed, "property", 0)
    real = draw_realization(scn, seeder)
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLinkDesign(
        real, BackhaulLink(scn, real, structure, cfg.rx_chains_per_subarray), access)
    snr = scn.snr_point(snr_db)
    cee = draw_cee_noise(seeder("cee"),
                         (cfg.subcarriers, cfg.users * cfg.rx_chains_per_subarray, cfg.users))
    closed = backhaul.evaluate(ps_kind, snr, backhaul.combiner(sigma_e, cee))
    closed["fd_no_dsic"] = backhaul.evaluate(ps_kind, snr,
                                             backhaul.blind_combiner())["fd"]
    general = _general_rates(real, backhaul, ps_kind, snr, sigma_e, cee)
    # the general path itself is off by up to 1e-11 on the blind combiner's
    # rate; with an estimation error the two paths differed by up to 8.2e-13
    # over these examples, and the bound leaves room for the general path's
    # own rounding
    fd_rel = 1e-12 if sigma_e == 0.0 else 1e-11
    for mode, rel in (("fd", fd_rel), ("fd_perfect_sic", 1e-12), ("fd_no_dsic", 1e-10)):
        want, got = general[mode].se_bps_hz, closed[mode].se_bps_hz
        assert general[mode].regularized_subcarriers == 0
        assert abs(got - want) <= rel * want, (mode, got, want)


def _support(blocks, n_rf, structure):
    """Where a stage of ``n_rf`` columns per block may be nonzero."""
    mask = np.full((sum(len(block) for block in blocks), len(blocks) * n_rf),
                   structure == "fully-connected")
    for b, block in enumerate(blocks):
        mask[np.asarray(block), b * n_rf:(b + 1) * n_rf] = True
    return mask


@settings(max_examples=30, deadline=None, derandomize=True)
@given(drop=drops())
def test_rf_and_zero_forcing_stages_of_production_designs(drop):
    cfg, seed = drop
    scn = build_scenario(cfg)
    real = draw_realization(scn, _seeder(seed, "property", 0))
    chains = cfg.rx_chains_per_subarray
    iab_blocks = partition_subarrays(cfg.iab_elements, cfg.users)
    donor_blocks = partition_subarrays(cfg.donor_elements, cfg.users)
    for structure in STRUCTURES:
        access = AccessLinkDesign(scn, real, structure)
        backhaul = BackhaulLink(scn, real, structure, chains)
        for mat, support in ((access.f_rf, _support(iab_blocks, 1, structure)),
                             (backhaul.f_rf, _support(donor_blocks, 1, structure)),
                             (backhaul.w_rf, _support(iab_blocks, chains, structure))):
            assert mat.shape == support.shape
            assert np.all(mat[~support] == 0.0)
            assert np.allclose(np.abs(mat[support]), 1.0, rtol=0, atol=1e-12)
        # zero forcing leaves no multiuser interference on any subcarrier
        diag = np.einsum("kuu->ku", access.rows0)
        mui = np.abs(access.rows0 - np.einsum("ku,uv->kuv", diag, np.eye(cfg.users)))
        assert np.max(mui) <= 1e-9 * np.min(np.abs(diag))


# the space of small configs: arrays of 2-6 elements a side, 1-3 chains per
# subarray, 1-12 backhaul and access paths, at K = 32 with 16 taps
@st.composite
def small_configs(draw):
    side = st.integers(2, 6)
    return replace(
        ExperimentConfig(), subcarriers=32, num_taps=16, users=draw(st.integers(1, 4)),
        donor_rows=draw(side), donor_cols=draw(side), iab_rows=draw(side),
        iab_cols=draw(side), user_rows=draw(side), user_cols=draw(side),
        rx_chains_per_subarray=draw(st.integers(1, 3)),
        sic_chain_counts=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                             unique=True))),
        clusters=draw(st.integers(1, 3)), rays_per_cluster=draw(st.integers(1, 4)),
        access_clusters=draw(st.integers(1, 3)), access_rays_per_cluster=draw(st.integers(1, 4)),
        panel_separation_wavelengths=5.0, snr_db_grid=(10.0,), sigma_e_grid=(0.0, 0.1),
        cee_snrs_db=(10.0,), cee_ps_kinds=("active",), trials=2)


@pytest.mark.filterwarnings("ignore:panel separation")   # small panels, far field
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(cfg=small_configs())
def test_validate_accepts_exactly_the_configs_a_sweep_can_run(cfg):
    # a sweep tolerates only numerical failures of one drop; a config that
    # fails every trial of a study, or raises anything else inside one, is
    # one validate() should have rejected by one of its named rules
    try:
        cfg.validate()
    except ConfigurationError as exc:
        assert re.match(r"[a-z]+(-[a-z]+)*: ", str(exc)), str(exc)
        return
    for experiment in EXPERIMENTS:
        scn = study_scenario(cfg, experiment)
        outcomes = [run_trial(cfg, scn, experiment, trial) for trial in range(cfg.trials)]
        for rows, failure in outcomes:
            assert bool(rows) != (failure is not None), (experiment, failure)
        assert any(rows for rows, _ in outcomes), (experiment, outcomes[0][1])
