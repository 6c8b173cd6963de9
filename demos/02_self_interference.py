#!/usr/bin/env python3
"""The co-located transmit/receive coupling channel.

The line-of-sight part is deterministic: each element pair contributes a
spherical-wavefront term with 1/r amplitude, valid because the panels sit
well inside the near-field radius 2 D^2 / lambda. A sparse clustered part
models reflections off nearby objects; a Rician factor mixes the two.
"""

import numpy as np

from fdiab import (ArrayGeometry, ClusterConfig, SiChannelConfig, draw_cee_noise,
                   near_field_los, near_field_radius, perturb_effective_channel,
                   si_channel_parts)

lam = 3e8 / 28e9
tx = ArrayGeometry(16, 16, spacing=0.5)
rx = ArrayGeometry(16, 16, spacing=0.5, origin=(150 * lam, 0.0, 0.0))

radius = near_field_radius(tx, lam)
print(f"aperture near-field radius: {radius / lam:.0f} wavelengths "
      f"({radius:.2f} m at 28 GHz)")
print(f"panel separation:           150 wavelengths ({150 * lam:.2f} m) -> near field\n")

los = near_field_los(tx, rx, lam)
sv = np.linalg.svd(los, compute_uv=False)
print(f"LoS matrix {los.shape}, Frobenius power {np.linalg.norm(los)**2:.1f} "
      f"(= N_tx * N_rx)")
print("normalized singular values:", np.round(sv[:6] / sv[0], 4))
print("-> sparse and low rank, dominated by the direct coupling\n")

cluster = ClusterConfig(num_clusters=2, rays_per_cluster=4, num_taps=32)


def draw(sic_db):
    """The SI channel of seed 1 after sic_db of antenna/analog cancellation."""
    cfg = SiChannelConfig(rician_factor_db=45.0, nlos_clusters=2, nlos_rays=4,
                          pre_digital_sic_db=sic_db)
    return si_channel_parts(tx, rx, cfg, cluster, rng_seed=1, wavelength=lam,
                            num_subcarriers=128)


channel = draw(0.0)
print(f"wideband SI channel over {channel.nlos.num_subcarriers} subcarriers; "
      f"LoS power fraction {channel.los_weight**2:.5f} (Rician factor 45 dB)")

# the effective channel through 16 random phase-only columns on each side
rng = np.random.default_rng(0)
w = np.exp(2j * np.pi * rng.random((rx.num_elements, 16)))
f = np.exp(2j * np.pi * rng.random((tx.num_elements, 16)))
before = np.sum(np.abs(channel.effective(w, f)) ** 2)
after = np.sum(np.abs(draw(80.0).effective(w, f)) ** 2)
print(f"after 80 dB of antenna/analog cancellation: power ratio {before / after:.3e}\n")

# estimation error on an effective channel (what the digital stage sees)
h_eff = rng.standard_normal((8, 8, 4)) + 1j * rng.standard_normal((8, 8, 4))
for sigma_e in (0.0, 0.05, 0.2):
    h_hat = perturb_effective_channel(h_eff, sigma_e, draw_cee_noise(rng, h_eff.shape))
    err = np.linalg.norm(h_eff - h_hat) ** 2 / np.linalg.norm(h_eff) ** 2
    print(f"sigma_e = {sigma_e:4.2f}: realized error-to-channel power ratio {err:.4f}")
