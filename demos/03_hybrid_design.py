#!/usr/bin/env python3
"""Design one full-duplex drop end to end and compare the two RF structures."""

import numpy as np
from dataclasses import replace

from fdiab import ExperimentConfig
from fdiab.harness import derive_seed
from fdiab.scenario import (AccessLinkDesign, BackhaulLink, BackhaulLinkDesign,
                            build_scenario, draw_realization, full_digital_backhaul_se)

cfg = replace(ExperimentConfig(), subcarriers=128, num_taps=64)
scn = build_scenario(cfg)


def seeder(site):
    return np.random.default_rng(derive_seed(3, "demo", site, 0))


real = draw_realization(scn, seeder)
snr = scn.snr_point(15.0)

print(f"one drop at SNR 15 dB, {cfg.subcarriers} subcarriers, "
      f"{scn.iab_rx_geom.num_elements}-element panels\n")

print(f"{'structure':>16} {'duplex':>16} {'SE [b/s/Hz]':>12}")
for structure in ("fully-connected", "subarray"):
    # the hybrid backhaul link, then the full-duplex receiver that cancels the
    # IAB node's own access transmission on it
    link = BackhaulLink(scn, real, structure, cfg.rx_chains_per_subarray)
    # RF stages are phase-only; every connected entry has unit magnitude
    nz = np.abs(link.w_rf) > 0
    assert np.allclose(np.abs(link.w_rf[nz]), 1.0)
    access = AccessLinkDesign(scn, real, structure)
    backhaul = BackhaulLinkDesign(real, link, access)
    results = backhaul.evaluate("ideal", snr)
    for duplex, res in results.items():
        print(f"{structure:>16} {duplex:>16} {res.se_bps_hz:12.1f}")
    acc = access.evaluate("ideal", snr)
    print(f"{structure:>16} {'access fd':>16} {acc['fd'].se_bps_hz:12.1f}")

digital = full_digital_backhaul_se(real, scn, snr)
print(f"{'full-digital':>16} {'fd_perfect_sic':>16} {digital.se_bps_hz:12.1f}")

print("\nwith insertion loss (passive phase shifters):")
for structure in ("fully-connected", "subarray"):
    link = BackhaulLink(scn, real, structure, cfg.rx_chains_per_subarray)
    backhaul = BackhaulLinkDesign(real, link, AccessLinkDesign(scn, real, structure))
    tx_b, rx_b = link.budgets("passive")
    res = backhaul.evaluate("passive", snr)
    print(f"{structure:>16}: tx {tx_b.total_db:4.1f} dB + rx {rx_b.total_db:4.1f} dB "
          f"-> fd {res['fd'].se_bps_hz:5.1f} b/s/Hz")
