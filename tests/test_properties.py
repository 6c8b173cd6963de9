"""Property tests of the duplex modes on the designs the sweep runs.

Each example draws one small drop with a random seed and geometry, designs
both links and evaluates them at one operating point.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from fdiab.channel import draw_cee_noise
from fdiab.config import PS_KINDS, STRUCTURES, ExperimentConfig
from fdiab.harness import _seeder
from fdiab.link import DUPLEX_MODES
from fdiab.scenario import (AccessLinkDesign, BackhaulLinkDesign, build_scenario,
                            draw_realization)

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
    cfg = replace(SMALL, users=users, tx_rf_chains=users, iab_rows=iab_rows,
                  iab_cols=iab_cols, donor_rows=donor_rows, donor_cols=donor_cols,
                  user_rows=user_rows, user_cols=user_cols, rx_chains_per_subarray=chains,
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
    backhaul = BackhaulLinkDesign(scn, real, access, structure, cfg.rx_chains_per_subarray)
    snr = scn.snr_point(snr_db)
    cee = draw_cee_noise(seeder("cee"),
                         (cfg.subcarriers, cfg.users * cfg.rx_chains_per_subarray, cfg.users))

    acc = access.evaluate(ps_kind, snr)
    bh = backhaul.evaluate(ps_kind, snr, sigma_e, cee)
    for out in (acc, bh):
        assert tuple(out) == DUPLEX_MODES
        assert out["hd"].se_bps_hz == 0.5 * out["fd_perfect_sic"].se_bps_hz
        assert np.array_equal(out["hd"].per_subcarrier,
                              0.5 * out["fd_perfect_sic"].per_subcarrier)
    # the users see no self-interference
    assert acc["fd"].se_bps_hz == acc["fd_perfect_sic"].se_bps_hz
    fd, ideal = bh["fd"].se_bps_hz, bh["fd_perfect_sic"].se_bps_hz
    assert fd <= ideal * (1.0 + 1e-12)
