"""Hybrid analog/digital precoder and combiner design.

RF (phase-shifter) stages are frequency flat: each column is the entry-wise
phase projection e^{j arg(.)} of a dominant eigenvector of the sample channel
covariance, so every entry has unit magnitude. The eigenvectors come from the
factored covariance of a ``PathChannel``; the stages themselves, including
the block-diagonal subarray form, are assembled in ``fdiab.scenario``.

Baseband stages are per subcarrier: zero forcing across users at the
multiuser transmitter, and an MMSE combiner that whitens residual
self-interference plus noise at the full-duplex receiver. The donor needs
none (see ``fdiab.scenario.BackhaulLink``). The receiver the sweep runs is
``fdiab.scenario.BackhaulLinkDesign``, which holds its MMSE combiner in
stream space; ``mmse_bb_combiner`` is the general form the tests compare it to.

Determinism: eigen/singular vectors are rotated so their first significant
entry is real and positive before any phase extraction.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigurationError, DegenerateInputError, DimensionError,
                     DomainError, NearSingularError)

# largest per-subcarrier condition number zero forcing accepts
ZF_COND_LIMIT = 1e8


def _fix_column_phases(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each column so its first significant entry is real positive.

    Returns the rotated columns and the unit phase each column was divided by.
    """
    v = np.array(vectors)
    mags = np.abs(v)
    thresh = 1e-12 * np.maximum(mags.max(axis=-2, keepdims=True), 1e-300)
    first = np.argmax(mags > thresh, axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)[..., 0, :]
    phase = np.where(np.abs(lead) > 0, lead / np.where(np.abs(lead) > 0, np.abs(lead), 1.0), 1.0)
    return v * phase.conj()[..., None, :], phase


def phase_project(vectors: np.ndarray) -> np.ndarray:
    """Entry-wise unit-modulus projection e^{j arg(.)}."""
    return np.exp(1j * np.angle(vectors))


def top_eigvecs_factored(basis: np.ndarray, core: np.ndarray, n: int) -> np.ndarray:
    """Dominant eigenvectors of basis @ core @ basis^H without forming it.

    ``basis`` is (N, P), tall or short, and ``core`` Hermitian PSD (P, P).
    With basis = Q R the eigenproblem is solved for R core R^H, of dimension
    min(N, P), but Q is never formed: only R is taken from the QR. The top
    n eigenvectors Y, with eigenvalues lam, are lifted as the orthonormal
    factor of the thin QR of Z = basis core R^H Y = Q Y diag(lam): one path
    for tall, short and rank-deficient bases. A zero eigenvalue leaves its
    column of Z at the rounding level, and the QR still returns a unit
    vector orthogonal to the earlier columns, which span the covariance's
    range: a vector of its null space. Orthonormalizing instead of dividing
    by lam_i keeps the lift's error near eps lam_1 / lam_i, within the
    eigenvector's own condition eps lam_1 / gap_i, since the gap to its
    neighbours is at most lam_i.
    """
    r = np.linalg.qr(basis, mode="r")
    small = r @ core @ r.conj().T
    small = 0.5 * (small + small.conj().T)
    if n > small.shape[0]:
        raise DegenerateInputError(
            f"covariance rank {small.shape[0]} cannot supply {n} eigenvectors")
    _, vecs = np.linalg.eigh(small)
    lifted = basis @ (core @ (r.conj().T @ vecs[:, ::-1][:, :n]))
    return _fix_column_phases(np.linalg.qr(lifted)[0])[0]


def bb_svd(effective: np.ndarray, num_streams: int):
    """Per-subcarrier dominant singular vectors of the effective channel.

    Returns (precoder (K, N_tx_rf, N_s), combiner (K, N_rx_rf, N_s)); the
    combiner^H @ H_eff @ precoder product is diagonal with the top singular
    values. Used only as a reference: as the donor's precoder it changes no rate.
    """
    if effective.ndim != 3:
        raise DimensionError("effective channel must have shape (K, N_rx_rf, N_tx_rf)")
    if num_streams > min(effective.shape[1], effective.shape[2]):
        raise ConfigurationError(
            f"{num_streams} streams exceed effective channel dimensions {effective.shape[1:]}")
    u, _, vh = np.linalg.svd(effective)
    v, phase = _fix_column_phases(vh.conj().transpose(0, 2, 1)[:, :, :num_streams])
    return v, u[:, :, :num_streams] * phase.conj()[:, None, :]


def zf_bb_precoder(effective: np.ndarray) -> np.ndarray:
    """Per-subcarrier zero-forcing precoder for stacked single-stream users.

    ``effective`` holds one row per user: (K, U, N_tx_rf). The result is the
    Moore-Penrose pseudo-inverse with unit-norm columns; the exact per-stream
    transmit power is set later against the RF stage.
    """
    if effective.ndim != 3:
        raise DimensionError("multiuser effective channel must have shape (K, U, N_tx_rf)")
    k, u, m = effective.shape
    if u > m:
        raise ConfigurationError(f"zero forcing needs at least {u} RF chains, got {m}")
    # one SVD serves the condition check and the pseudo-inverse, taken of the
    # conjugate as np.linalg.pinv takes it, so the result is pinv's bit for bit
    u, s, vt = np.linalg.svd(effective.conj(), full_matrices=False)
    # an exactly singular subcarrier has an infinite condition number
    cond = np.divide(s[:, 0], s[:, -1], out=np.full(k, np.inf), where=s[:, -1] > 0)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > ZF_COND_LIMIT:
        raise NearSingularError("multiuser effective channel is rank deficient",
                                condition_number=worst)
    # below the condition limit no singular value falls under pinv's cutoff
    # of 1e-15 * s_1, so every one is inverted
    pinv = vt.swapaxes(-1, -2) @ ((1.0 / s)[..., None] * u.swapaxes(-1, -2))
    return pinv / np.linalg.norm(pinv, axis=1, keepdims=True)


def mmse_bb_combiner(desired: np.ndarray, rsi_estimate: np.ndarray | None,
                     noise_power: float, signal_power: float, rsi_power: float = 0.0,
                     noise_gram: np.ndarray | None = None) -> np.ndarray:
    """Per-subcarrier MMSE combiner against residual self-interference plus noise.

    Model per subcarrier: x = sqrt(p_s) A s + sqrt(p_i) B s_i + n, with
    A = ``desired`` (K, M, N_s) the effective desired channel including its
    baseband precoder, B = ``rsi_estimate`` (K, M, N_i) the estimated
    effective interference channel including its precoder, and noise of
    covariance noise_power * noise_gram (identity by default). Returns
    combiner columns C (K, M, N_s) to be applied as C^H x; C = p_s R^{-1} A
    with R the covariance of x built from the estimate.

    When an interference term is present the receiver needs at least
    N_s + N_i chains for the cancellation to have full effect; fewer chains
    raise a configuration error. The sweep never calls it: it is the general
    combiner the tests check ``fdiab.scenario.BackhaulLinkDesign`` against.
    """
    if noise_power <= 0.0:
        raise DomainError("noise power must be positive")
    k, m, ns = desired.shape
    r = signal_power * desired @ desired.conj().transpose(0, 2, 1)
    if rsi_estimate is not None and rsi_power > 0.0:
        ni = rsi_estimate.shape[2]
        if m < ns + ni:
            raise ConfigurationError(
                f"rf-chain-rule: {m} receive chains cannot separate {ns} desired "
                f"plus {ni} interfering streams")
        r = r + rsi_power * rsi_estimate @ rsi_estimate.conj().transpose(0, 2, 1)
    gram = np.eye(m) if noise_gram is None else noise_gram
    r = r + noise_power * gram
    r = 0.5 * (r + r.conj().transpose(0, 2, 1))
    return signal_power * np.linalg.solve(r, desired)


def normalize_power(rf_precoder: np.ndarray, bb_precoder: np.ndarray) -> np.ndarray:
    """Scale each column of ``bb_precoder`` so that rf @ bb[k] has unit-power columns.

    One stream per column: ||rf @ bb[k]||_F^2 is the stream count on every subcarrier.
    """
    # ||rf @ b||^2 = b^H (rf^H rf) b: per-column powers from the N_rf x N_rf Gram
    gram = rf_precoder.conj().T @ rf_precoder
    powers = np.sum(bb_precoder.conj() * (gram @ bb_precoder), axis=1).real   # (K, N_s)
    if np.any(powers <= 0):
        raise DegenerateInputError("coupled precoder has a zero column")
    return bb_precoder / np.sqrt(powers)[:, None, :]
