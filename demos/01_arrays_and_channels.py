#!/usr/bin/env python3
"""Walk through the array and wideband-channel building blocks.

Builds a uniform planar array, inspects steering vectors and subarray
element blocks, draws one clustered channel realization in its factored
per-path form, and checks its power normalization and rank numerically.
"""

import numpy as np

from fdiab import (ArrayGeometry, ClusterConfig, PathChannel, ci_path_loss,
                   partition_subarrays, sample_cluster_geometry, upa_steering)

print("=" * 70)
print("Uniform planar arrays")
print("=" * 70)

panel = ArrayGeometry(16, 16, spacing=0.5)
print(f"16x16 panel, {panel.num_elements} elements at half-wavelength pitch")

a = upa_steering(panel, azimuth=0.35, elevation=-0.1)
print(f"steering vector norm: {np.linalg.norm(a):.12f} (unit by construction)")
print(f"entry magnitude:      {np.abs(a[0]):.6f} = 1/sqrt(256)")

part = partition_subarrays(panel.num_elements, 4)
print(f"partition into 4 subarrays: blocks of {len(part[0])} elements "
      f"(one 4x16 panel per user)")

print()
print("=" * 70)
print("Clustered wideband channel")
print("=" * 70)

cfg = ClusterConfig(num_clusters=5, rays_per_cluster=10,
                    sampling_time=1.0 / (128 * 120e3), num_taps=32)
paths = sample_cluster_geometry(cfg, rng_seed=7)
print(f"{cfg.num_paths} rays drawn; total gain power {np.sum(np.abs(paths.gains)**2):.3f} "
      "(expected value 1)")

tx = ArrayGeometry(4, 4)
rx = ArrayGeometry(4, 4)
channel = PathChannel(paths, tx, rx, cfg, num_subcarriers=128)
print(f"factored form: rx basis {channel.rx_basis.shape}, "
      f"per-path subcarrier weights {channel.weights.shape}, tx basis {channel.tx_basis.shape}")

# identity "RF stages" give the full per-subcarrier matrices H[k]
freq = channel.effective(np.eye(rx.num_elements), np.eye(tx.num_elements))
print(f"subcarrier responses: {freq.shape}")

power = np.mean(np.sum(np.abs(freq) ** 2, axis=(1, 2))) / (tx.num_elements * rx.num_elements)
print(f"normalized power per subcarrier for this draw: {power:.3f} (unit in expectation)")

sv = channel.subcarrier_singular_values(4)
print(f"top-4 singular values on subcarrier 0: {np.round(sv[0], 2)}")

print()
print("=" * 70)
print("Close-in path loss at 28 GHz")
print("=" * 70)
for d in (1, 10, 30, 100, 1000):
    print(f"  d = {d:>5} m -> {ci_path_loss(d, 28e9, 2.0):6.1f} dB")
