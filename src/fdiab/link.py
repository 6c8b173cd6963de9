"""Spectral-efficiency evaluation for the backhaul and access links.

Signal scaling follows the sweep definition SNR = P_r / (K * U * sigma_n^2)
with P_r = P_t / mean path loss: with unit per-subcarrier noise power the
per-stream receive scale is snr_linear * U * K / N_s, and the co-located
transmitter's interference reaches the receiver with a path-loss advantage
of PL_dB minus the applied pre-digital cancellation.

Thermal noise is referenced at the output of the unscaled (unit-modulus)
analog combining network: its covariance after the baseband combiner is
noise_power * W_bb^H (W_rf^H W_rf) W_bb. The receive-side insertion loss
would scale this covariance by the same factor as the signal and
interference terms, so it cancels in the SINR, and the channels passed here
carry only the transmit-side loss. With ideal components this
reduces to the usual antenna-referenced noise model, which keeps
full-digital and hybrid schemes comparable.

Both links are evaluated at full rate; ``duplex_rates`` derives the three
duplex modes from a full-duplex and an interference-free rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class SnrPoint:
    """Operating point of the sweep.

    ``noise_power`` is the per-subcarrier noise reference; sigma_n^2 in the
    sweep definition is the receiver noise power over the full signal band,
    i.e. num_subcarriers * noise_power.
    """

    snr_db: float
    num_users: int = 4
    num_subcarriers: int = 512
    noise_power: float = 1.0

    def __post_init__(self):
        if self.noise_power <= 0.0:
            raise DomainError("noise power must be positive")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def band_noise_power(self) -> float:
        """sigma_n^2: receiver noise power integrated over all subcarriers."""
        return self.num_subcarriers * self.noise_power

    @property
    def received_power(self) -> float:
        """Total received power P_r implied by SNR = P_r / (K * U * sigma_n^2)."""
        return (self.snr_linear * self.num_subcarriers * self.num_users
                * self.band_noise_power)

    def stream_power(self, num_streams: int) -> float:
        """Per-stream receive scale: the per-subcarrier budget P_r/K over N_s streams."""
        return self.received_power / self.num_subcarriers / num_streams


DUPLEX_MODES = ("fd", "hd", "fd_perfect_sic")


@dataclass
class SeResult:
    """Spectral efficiency of one link at one operating point."""

    se_bps_hz: float
    per_subcarrier: np.ndarray | None = None
    per_user: np.ndarray | None = None
    regularized_subcarriers: int = 0


def duplex_rates(full_duplex: SeResult, interference_free: SeResult) -> dict[str, SeResult]:
    """One link's rate under each of ``DUPLEX_MODES``.

    ``full_duplex`` is the rate with the residual self-interference,
    ``interference_free`` the rate of the same hardware without it
    (``fd_perfect_sic``). Half duplex is that interference-free link for half
    of the time; halving is exact in floating point.
    """
    def half(values):
        return None if values is None else 0.5 * values

    hd = replace(interference_free, se_bps_hz=half(interference_free.se_bps_hz),
                 per_subcarrier=half(interference_free.per_subcarrier),
                 per_user=half(interference_free.per_user))
    return {"fd": full_duplex, "hd": hd, "fd_perfect_sic": interference_free}


def _logdet_ratio(q: np.ndarray, boost: np.ndarray, noise_floor: float):
    """log2 det(q + boost) - log2 det(q) with a flagged ridge for singular q."""
    herm = lambda m: 0.5 * (m + m.conj().transpose(0, 2, 1))
    q = herm(q)
    ns = q.shape[1]
    eye = np.eye(ns)
    bad = np.linalg.eigvalsh(q)[:, 0] <= noise_floor * 1e-12
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        q = q + (noise_floor * 1e-6) * bad[:, None, None] * eye
    sign_a, logdet_a = np.linalg.slogdet(herm(q + boost))
    sign_b, logdet_b = np.linalg.slogdet(q)
    se_k = (logdet_a - logdet_b) / np.log(2.0)
    return np.maximum(se_k, 0.0), n_bad


def se_backhaul(desired: np.ndarray, combiner: np.ndarray, snr: SnrPoint,
                rsi_true: np.ndarray | None = None, rsi_power: float = 0.0,
                noise_gram: np.ndarray | None = None) -> SeResult:
    """Backhaul spectral efficiency under a linear baseband combiner.

    ``desired`` (K, M, N_s) is the true effective channel including the
    transmit baseband stage, ``combiner`` (K, M, N_s) the receive baseband
    columns, ``rsi_true`` (K, M, N_i) the true residual self-interference
    effective channel (leakage is evaluated against it even though the
    combiner was designed from an estimate); without it the rate is
    interference free.
    """
    if desired.shape != combiner.shape:
        raise DimensionError("desired channel and combiner shapes must match")
    k, m, ns = desired.shape
    w = combiner
    gram = np.eye(m) if noise_gram is None else noise_gram
    wh = w.conj().transpose(0, 2, 1)
    q = snr.noise_power * (wh @ (gram[None, :, :] @ w))
    if rsi_true is not None and rsi_power > 0.0:
        leak = wh @ rsi_true
        q = q + rsi_power * leak @ leak.conj().transpose(0, 2, 1)
    g = wh @ desired
    boost = snr.stream_power(ns) * g @ g.conj().transpose(0, 2, 1)
    se_k, n_bad = _logdet_ratio(q, boost, snr.noise_power)
    return SeResult(float(np.mean(se_k)), per_subcarrier=se_k, regularized_subcarriers=n_bad)


def se_access(effective_rows: np.ndarray, snr: SnrPoint,
              noise_scales: np.ndarray | None = None) -> SeResult:
    """Per-user and sum spectral efficiency of the multiuser access downlink.

    ``effective_rows`` (K, U, U): entry (u, v) is user u's combined response
    to stream v, including combiners, precoders, and transmit-side insertion loss.
    ``noise_scales`` holds each user's post-combining noise gain (the squared
    norm of its unscaled combiner); defaults to 1.
    """
    if effective_rows.ndim != 3 or effective_rows.shape[1] != effective_rows.shape[2]:
        raise DimensionError("effective rows must have shape (K, U, U)")
    k, u, _ = effective_rows.shape
    scales = np.ones(u) if noise_scales is None else np.asarray(noise_scales, dtype=float)
    p = snr.stream_power(u)
    power = np.abs(effective_rows) ** 2
    desired = np.einsum("kuu->ku", power)
    mui = power.sum(axis=2) - desired
    sinr = p * desired / (p * mui + snr.noise_power * scales[None, :])
    per_user_k = np.log2(1.0 + sinr)  # (K, U)
    per_user = per_user_k.mean(axis=0)
    return SeResult(float(per_user.sum()), per_subcarrier=per_user_k.sum(axis=1),
                    per_user=per_user)
