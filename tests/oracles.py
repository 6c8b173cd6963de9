"""Dense reference implementations of the channel and the RF stages.

The library keeps only the factored forms (``PathChannel``,
``SiChannelParts``, ``scenario.rf_stage``). The functions here build the
full (D, N_rx, N_tx) delay-tap and (K, N_rx, N_tx) subcarrier tensors and
design RF stages from explicit sample covariances, so tests can compare the
factored code against a direct evaluation of the model on small arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fdiab.arrays import ArrayGeometry, steering_matrix
from fdiab.channel import (ClusterConfig, ClusterGeometry, PathChannel, SiChannelConfig,
                           _pulse_taps, _rician_weights, _si_nlos_config, _tap_amplitude,
                           as_rng, near_field_los, sample_cluster_geometry)
from fdiab.errors import ConfigurationError, DegenerateInputError, DimensionError
from fdiab.transceiver import _fix_column_phases, phase_project


@dataclass
class WidebandChannel:
    """Delay-tap tensor (D, N_rx, N_tx) and optional subcarrier form (K, N_rx, N_tx)."""

    taps: np.ndarray | None = None
    freq: np.ndarray | None = None


def assemble_delay_taps(paths: ClusterGeometry, tx_geom: ArrayGeometry,
                        rx_geom: ArrayGeometry, cfg: ClusterConfig) -> np.ndarray:
    """Dense delay-domain tensor (D, N_rx, N_tx) from a sampled ray set."""
    ar = steering_matrix(rx_geom, paths.aoa_azimuth, paths.aoa_elevation)
    at = steering_matrix(tx_geom, paths.aod_azimuth, paths.aod_elevation)
    amp = _tap_amplitude(tx_geom.num_elements, rx_geom.num_elements, cfg)
    w = paths.gains[:, None] * _pulse_taps(paths.delays, cfg) * amp  # (P, D)
    return np.einsum("np,pd,mp->dnm", ar, w, at.conj(), optimize=True)


def to_frequency(channel: WidebandChannel, num_subcarriers: int) -> WidebandChannel:
    """Populate the per-subcarrier response: freq[k] = sum_d taps[d] e^{-j2pi k d / K}."""
    if channel.taps is None:
        raise DegenerateInputError("channel has no delay taps to transform")
    d = channel.taps.shape[0]
    if d > num_subcarriers:
        raise ConfigurationError(
            f"taps-within-cp: {d} delay taps exceed {num_subcarriers} subcarriers"
        )
    channel.freq = np.fft.fft(channel.taps, n=num_subcarriers, axis=0)
    return channel


def gen_si_channel(tx_geom: ArrayGeometry, rx_geom: ArrayGeometry, cfg: SiChannelConfig,
                   cluster_cfg: ClusterConfig, rng_seed, wavelength: float) -> WidebandChannel:
    """Dense SI channel: sqrt(k/(1+k)) LoS at tap 0 plus sqrt(1/(1+k)) clustered NLoS taps.

    Same draw as ``fdiab.channel.si_channel_parts`` for the same seed.
    """
    rng = as_rng(rng_seed)
    los = near_field_los(tx_geom, rx_geom, wavelength)
    w_los, w_nlos = _rician_weights(cfg.rician_factor_db)
    taps = np.zeros((cluster_cfg.num_taps, rx_geom.num_elements, tx_geom.num_elements),
                    dtype=complex)
    nlos_cfg = _si_nlos_config(cfg, cluster_cfg)
    paths = sample_cluster_geometry(nlos_cfg, rng)
    taps += w_nlos * assemble_delay_taps(paths, tx_geom, rx_geom, nlos_cfg)
    taps[0] += w_los * los
    return WidebandChannel(taps=taps)


def frequency_response(channel: PathChannel) -> np.ndarray:
    """Dense (K, N_rx, N_tx) tensor of a factored channel."""
    return np.einsum("np,pk,mp->knm", channel.rx_basis, channel.weights,
                     channel.tx_basis.conj(), optimize=True)


def subcarrier_singular_values(channel: PathChannel, num_streams: int) -> np.ndarray:
    """Top singular values (K, n) of the dense per-subcarrier matrices, by SVD."""
    return np.linalg.svd(frequency_response(channel), compute_uv=False)[:, :num_streams]


def sample_covariance(freq: np.ndarray, side: str) -> np.ndarray:
    if freq.ndim != 3:
        raise DimensionError("frequency-domain channel must have shape (K, N_rx, N_tx)")
    k = freq.shape[0]
    if side == "tx":
        return np.einsum("kni,knj->ij", freq.conj(), freq, optimize=True) / k
    if side == "rx":
        return np.einsum("kin,kjn->ij", freq, freq.conj(), optimize=True) / k
    raise ConfigurationError("side must be 'tx' or 'rx'")


def rf_from_covariance(cov: np.ndarray, n_rf: int) -> np.ndarray:
    """Phase-only projections of the n_rf dominant eigenvectors, by falling eigenvalue."""
    n = cov.shape[0]
    if n_rf < 1 or n_rf > n:
        raise ConfigurationError(f"need 1 <= n_rf <= {n}, got {n_rf}")
    if not np.any(np.abs(cov) > 0):
        raise DegenerateInputError("channel covariance is identically zero")
    _, vecs = np.linalg.eigh(cov)
    top = vecs[:, ::-1][:, :n_rf]
    return phase_project(_fix_column_phases(top)[0])


def rf_stage_fully_connected(freq: np.ndarray, side: str, n_rf: int) -> np.ndarray:
    """Unit-modulus RF matrix (N, n_rf) from the sample covariance of the channel."""
    return rf_from_covariance(sample_covariance(freq, side), n_rf)


def rf_stage_subarray(freq: np.ndarray, blocks: tuple[range, ...], side: str,
                      n_rf_per_subarray: int) -> np.ndarray:
    """Block-diagonal unit-modulus RF matrix; block u is the fully connected
    design of the sub-channel on the elements ``blocks[u]``. Off-block entries
    are exactly zero."""
    n = sum(len(block) for block in blocks)
    expected = freq.shape[2] if side == "tx" else freq.shape[1]
    if expected != n:
        raise DimensionError(
            f"partition covers {n} elements but channel has {expected} on the {side} side")
    out = np.zeros((n, len(blocks) * n_rf_per_subarray), dtype=complex)
    for b, block in enumerate(blocks):
        idx = np.asarray(block)
        sub = freq[:, :, idx] if side == "tx" else freq[:, idx, :]
        cols = slice(b * n_rf_per_subarray, (b + 1) * n_rf_per_subarray)
        out[idx, cols] = rf_from_covariance(sample_covariance(sub, side), n_rf_per_subarray)
    return out


def effective_channel(freq: np.ndarray, rx_matrix: np.ndarray | None,
                      tx_matrix: np.ndarray | None) -> np.ndarray:
    """Dense per-subcarrier W^H H[k] F for explicit (K, N_rx, N_tx) tensors."""
    out = freq
    if rx_matrix is not None:
        out = np.einsum("ia,kij->kaj", rx_matrix.conj(), out, optimize=True)
    if tx_matrix is not None:
        out = out @ tx_matrix
    return out
