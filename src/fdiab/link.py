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
``se_backhaul`` evaluates any linear backhaul combiner; ``StreamRates``
gives the full-duplex rate of each MMSE combiner the backhaul may use,
passed as a value, in closed form from one routine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError


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


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return m.conj().transpose(0, 2, 1)


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _ct(m))


def _logdet_ratio(q: np.ndarray, boost: np.ndarray, noise_floor: float):
    """log2 det(q + boost) - log2 det(q) with a flagged ridge for singular q."""
    q = _herm(q)
    ns = q.shape[1]
    eye = np.eye(ns)
    bad = np.linalg.eigvalsh(q)[:, 0] <= noise_floor * 1e-12
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        q = q + (noise_floor * 1e-6) * bad[:, None, None] * eye
    sign_a, logdet_a = np.linalg.slogdet(_herm(q + boost))
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


def rate_from_nats(nats: np.ndarray) -> SeResult:
    se_k = nats / np.log(2.0)
    return SeResult(float(np.mean(se_k)), per_subcarrier=se_k)


@dataclass(frozen=True)
class CombinerFactors:
    """Stream-space factors of one MMSE combiner; see ``_split_factors``.

    ``truth`` is None for a combiner designed from the true interference.
    ``r22_gram`` is R22^H R22, the part of the signal term T that no
    operating point changes.
    """

    r22: np.ndarray
    r22_gram: np.ndarray
    f: np.ndarray
    lam: np.ndarray
    truth: np.ndarray | None = None


def _split_factors(signal: np.ndarray, estimate: np.ndarray,
                   error: np.ndarray | None = None) -> CombinerFactors:
    """Factors of the combiner (I + b Z Z^H)^{-1} Y for any b, Z = ``estimate``.

    That is the MMSE combiner for the signal Y = ``signal`` in white noise,
    designed from the interference estimate Z, whose error E = ``error``
    makes the true interference Z + E (exactly Z without it). QR-factoring
    [Z | Y | E] = Q [[R11, R12, R13], [0, R22, R23], ...] splits the space
    into span(Z), the rest of span(Z, Y) and the rest (Golub and Van Loan,
    *Matrix Computations*, ch. 5). With R11 = W diag(sqrt(lam)) V^H,
    F = R12^H W and d = 1 / (1 + b lam), the combiner has the coordinates
    V = [diag(d) F^H; R22] in the first two blocks (the first rotated by W)
    and none in the rest, and its signal term is

        T = Y^H (I + b Z Z^H)^{-1} Y = R22^H R22 + F diag(d) F^H,

    a sum of positive terms that stays accurate however large b is. In the
    same basis the true interference has the coordinates
    ``truth`` = [W^H (R11 + R13); R23], so E enters as itself and never as a
    difference of large terms.
    Z may be zero: a combiner blind to the interference.
    """
    ni, ns = estimate.shape[2], signal.shape[2]
    blocks = [estimate, signal] if error is None else [estimate, signal, error]
    r = np.linalg.qr(np.concatenate(blocks, axis=2), mode="r")
    r11, r12, r22 = r[:, :ni, :ni], r[:, :ni, ni:ni + ns], r[:, ni:ni + ns, ni:ni + ns]
    w, s, _ = np.linalg.svd(r11)
    truth = None
    if error is not None:
        truth = np.concatenate([_ct(w) @ (r11 + r[:, :ni, ni + ns:]),
                                r[:, ni:ni + ns, ni + ns:]], axis=1)
    return CombinerFactors(r22, _ct(r22) @ r22, _ct(r12) @ w, s ** 2, truth)


class StreamRates:
    """Full-duplex backhaul rates in the N_s-dimensional stream space.

    ``desired`` A_w = L^{-1} A (K, M, N_s) is the desired effective channel
    whitened by ``chol`` L, the Cholesky factor of the noise covariance's shape
    (``BackhaulLink.white``); ``interference`` B (K, M, N_i) is the interfering
    one, whitened here (B_w = L^{-1} B). Both include their baseband precoders
    but no insertion loss. An operating point enters only through two scalars:
    ``a`` = p_s s_tx^2 / n and ``b`` = p_i s_i^2 / n, with p_s and p_i the
    per-stream powers, s_tx and s_i the transmit-side amplitude scales of the
    desired and interfering links, and n the noise power.

    Each full-duplex combiner is a value, the factors of an MMSE combiner
    designed from an estimate of B: ``aware`` knows B, ``combiner(error)`` errs
    by ``error``, ``blind_combiner()`` estimates zero; ``rate`` judges each
    against B. A combiner whose columns span R^{-1} A, with R the covariance it
    balances against, loses no information (Tse and Viswanath, *Fundamentals of
    Wireless Communication*, sec. 8.3). For a combiner with coordinates V that
    sees the signal term T and the true interference through E = V^H (B_w's
    coordinates), the rate is

        log2 det(I + a T X^{-1} T),  X = V^H V + b E E^H,

    with X taken as R_x^H R_x from a QR of the stacked [V; sqrt(b) E^H], so
    its spread of eigenvalues is never formed. For the combiner that knows
    B, X = T and the rate is log2 det(I + a T).
    """

    def __init__(self, desired: np.ndarray, interference: np.ndarray, chol: np.ndarray):
        k, m, ns = desired.shape
        ni = interference.shape[2]
        self.shape = (m, ns, ni)
        self._desired, self._interference, self._chol = desired, interference, chol
        # coordinates of B_w and A_w in an orthonormal basis of their joint
        # span; filling one buffer keeps the heap from growing around a
        # freed B_w that the QR's copy no longer fits
        white = np.empty((k, m, ni + ns), dtype=complex)
        white[:, :, :ni] = np.linalg.solve(chol, interference)
        white[:, :, ni:] = desired
        r = np.linalg.qr(white, mode="r")
        self._b_r, self._a_r = r[:, :, :ni], r[:, :, ni:]
        self.aware = _split_factors(self._a_r, self._b_r)

    def combiner(self, error: np.ndarray | None = None) -> CombinerFactors:
        """Factors of the MMSE combiner designed from the estimate B - ``error``.

        ``error`` (K, M, N_i) is the estimation error itself, so the true
        interference B = estimate + error is never recovered as a difference;
        without it the combiner knows B. Cancelling the estimate takes at
        least N_s + N_i receive chains; fewer raise a configuration error.
        """
        m, ns, ni = self.shape
        if m < ns + ni:
            raise ConfigurationError(
                f"rf-chain-rule: {m} receive chains cannot separate {ns} desired "
                f"plus {ni} interfering streams")
        if error is None:
            return self.aware
        white = np.linalg.solve(self._chol, np.concatenate(
            [self._interference - error, error], axis=2))
        return _split_factors(self._desired, white[:, :, :ni], white[:, :, ni:])

    def blind_combiner(self) -> CombinerFactors:
        """Factors of the MMSE combiner designed as if there were no interference.

        Its estimate is zero and its error the whole interference: a receiver
        without digital cancellation.
        """
        return _split_factors(self._a_r, np.zeros_like(self._b_r), self._b_r)

    def rate(self, factors: CombinerFactors, a: float, b: float) -> SeResult:
        """Rate of the MMSE combiner with ``factors`` against the true interference."""
        f, r22 = factors.f, factors.r22
        f_d = f / (1.0 + b * factors.lam)[:, None, :]
        signal = factors.r22_gram + f_d @ _ct(f)                 # T
        if factors.truth is None:
            gain = signal                                        # X = T
        else:
            v = np.concatenate([_ct(f_d), r22], axis=1)          # combiner coordinates
            leak = np.sqrt(b) * (_ct(factors.truth) @ v)         # sqrt(b) E^H
            r_x = np.linalg.qr(np.concatenate([v, leak], axis=1), mode="r")
            y = np.linalg.solve(_ct(r_x), signal)                # R_x^{-H} T
            gain = y @ _ct(y)
        _, logdet = np.linalg.slogdet(np.eye(self.shape[1]) + a * _herm(gain))
        return rate_from_nats(logdet)


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
