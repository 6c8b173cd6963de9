"""Wideband clustered mmWave channels and the co-located self-interference channel.

The frequency-selective channel is a sum of rays grouped in clusters. Each
ray contributes a complex gain, a transmit/receive steering outer product,
and a raised-cosine pulse sampled at the tap grid, so tap d reads

    H[d] = amp * sum_p g_p * p_rc(d - tau_p) * a_rx(p) a_tx(p)^H

with each delay tau_p in sample periods (the pulse depends on time only
through t / Ts, so the sampling time Ts itself never enters) and ``amp``
chosen so that E[sum_d ||H[d]||_F^2] = N_rx * N_tx. Average path loss is
carried separately as a dB budget. Subcarrier responses are the DFT of the
taps over d.

The self-interference channel between the co-located transmit and receive
panels combines a deterministic near-field line-of-sight matrix (spherical
wavefront, per-element-pair 1/r amplitude) with a sparse clustered
non-line-of-sight part, mixed through a Rician factor.

Both channels are kept in the factored per-path form (``PathChannel``,
``SiChannelParts``), so covariances and RF-effective channels of 256-element
arrays never require materializing the full (K, N_rx, N_tx) tensor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayGeometry, element_positions, near_field_radius, steering_matrix
from .errors import ConfigurationError, DimensionError, DomainError

SPEED_OF_LIGHT = 3.0e8
# fractional delays averaged over by expected_pulse_energy
PULSE_ENERGY_GRID = 2048


def as_rng(seed) -> np.random.Generator:
    """Pass through Generators, otherwise seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster/ray geometry of the wideband channel; delays count sample periods."""

    num_clusters: int = 5
    rays_per_cluster: int = 10
    angle_spread: float = math.radians(10.0)
    num_taps: int = 128
    pulse_rolloff: float = 0.5

    def __post_init__(self):
        if self.num_clusters < 1 or self.rays_per_cluster < 1:
            raise ConfigurationError("need at least one cluster and one ray per cluster")
        if self.num_taps < 1:
            raise ConfigurationError("need at least one delay tap")
        if not 0.0 <= self.pulse_rolloff <= 1.0:
            raise ConfigurationError("pulse rolloff must lie in [0, 1]")
        if self.angle_spread < 0.0:
            raise ConfigurationError("angle spread must be non-negative")

    @property
    def num_paths(self) -> int:
        return self.num_clusters * self.rays_per_cluster


@dataclass(frozen=True)
class SiChannelConfig:
    """Rician mix and residual-cancellation budget of the SI channel."""

    rician_factor_db: float = 20.0
    nlos_clusters: int = 2
    nlos_rays: int = 4
    pre_digital_sic_db: float = 80.0

    def __post_init__(self):
        if self.pre_digital_sic_db < 0.0:
            raise ConfigurationError("pre-digital cancellation budget must be >= 0 dB")
        if self.nlos_clusters < 1 or self.nlos_rays < 1:
            raise ConfigurationError("SI NLoS needs at least one cluster and ray")


@dataclass
class ClusterGeometry:
    """Sampled per-ray parameters, flattened over clusters; delays in sample periods."""

    gains: np.ndarray
    delays: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray
    aoa_azimuth: np.ndarray
    aoa_elevation: np.ndarray

    def __post_init__(self):
        n = len(self.gains)
        fields = (self.delays, self.aod_azimuth, self.aod_elevation,
                  self.aoa_azimuth, self.aoa_elevation)
        if any(len(f) != n for f in fields):
            raise DimensionError("all per-ray arrays must have equal length")

    @property
    def num_paths(self) -> int:
        return len(self.gains)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def sample_cluster_geometry(cfg: ClusterConfig, rng_seed) -> ClusterGeometry:
    """Draw one realization of the clustered ray set.

    Cluster-center azimuths are uniform on [-pi, pi] and elevations uniform on
    [-pi/2, pi/2]; per-ray offsets are Laplacian with the configured spread
    (azimuths wrapped, elevations clipped). Delays, in sample periods, are
    uniform on [0, D]. Ray gains are circular Gaussian with total expected
    power 1, i.e. Rayleigh magnitudes with scale set by the total path count.
    """
    rng = as_rng(rng_seed)
    c, r = cfg.num_clusters, cfg.rays_per_cluster
    p = cfg.num_paths

    def centers():
        az = rng.uniform(-np.pi, np.pi, size=c)
        el = rng.uniform(-np.pi / 2, np.pi / 2, size=c)
        return az, el

    def spread(center, clip):
        off = rng.laplace(0.0, cfg.angle_spread, size=(c, r)) if cfg.angle_spread > 0 \
            else np.zeros((c, r))
        full = center[:, None] + off
        if clip:
            return np.clip(full, -np.pi / 2, np.pi / 2).ravel()
        return _wrap_angle(full).ravel()

    aod_az_c, aod_el_c = centers()
    aoa_az_c, aoa_el_c = centers()
    aod_az = spread(aod_az_c, clip=False)
    aod_el = spread(aod_el_c, clip=True)
    aoa_az = spread(aoa_az_c, clip=False)
    aoa_el = spread(aoa_el_c, clip=True)
    delays = rng.uniform(0.0, cfg.num_taps, size=p)
    gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0 * p)
    return ClusterGeometry(gains, delays, aod_az, aod_el, aoa_az, aoa_el)


def raised_cosine(x, rolloff: float) -> np.ndarray:
    """Raised-cosine pulse at normalized time x = t / Ts, unit peak."""
    x = np.asarray(x, dtype=float)
    out = np.sinc(x)
    if rolloff > 0.0:
        denom = 1.0 - (2.0 * rolloff * x) ** 2
        singular = np.isclose(denom, 0.0, atol=1e-10)
        safe = np.where(singular, 1.0, denom)
        out = out * np.cos(np.pi * rolloff * x) / safe
        # limit value at |x| = 1/(2*rolloff)
        out = np.where(singular, (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff)), out)
    return out


def _pulse_taps(delays: np.ndarray, cfg: ClusterConfig) -> np.ndarray:
    """(P, D) raised-cosine samples p_rc(d - tau_p), delays tau_p in sample periods."""
    d = np.arange(cfg.num_taps)[None, :]
    return raised_cosine(d - delays[:, None], cfg.pulse_rolloff)


@functools.lru_cache(maxsize=32)
def expected_pulse_energy(num_taps: int, rolloff: float) -> float:
    """E_tau[ sum_d p_rc(d - tau)^2 ] for tau uniform on [0, D] sample periods.

    Evaluated by averaging the truncated tap-energy sum over a fine fractional
    delay grid of ``PULSE_ENERGY_GRID`` points; used to normalize the tap
    tensor to its expected Frobenius power.
    """
    u = (np.arange(PULSE_ENERGY_GRID) + 0.5) / PULSE_ENERGY_GRID * num_taps
    d = np.arange(num_taps)
    vals = raised_cosine(d[None, :] - u[:, None], rolloff) ** 2
    return float(np.mean(np.sum(vals, axis=1)))


def _tap_amplitude(nt: int, nr: int, cfg: ClusterConfig) -> float:
    return math.sqrt(nt * nr / expected_pulse_energy(cfg.num_taps, cfg.pulse_rolloff))


def ci_path_loss(distance_m: float, carrier_hz: float, exponent: float = 2.0) -> float:
    """Close-in path loss in dB, anchored at the 1 m free-space value."""
    if distance_m < 1.0:
        raise DomainError("close-in model needs distance >= 1 m")
    if carrier_hz <= 0.0:
        raise DomainError("carrier frequency must be positive")
    fspl_1m = 20.0 * math.log10(4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT)
    return fspl_1m + 10.0 * exponent * math.log10(distance_m)


class PathChannel:
    """Factored wideband channel H[k] = A_rx diag(m[:, k]) A_tx^H.

    ``m`` combines ray gains with the subcarrier response of the pulse, so
    effective channels and sample covariances cost O(P) per antenna instead
    of materializing (K, N_rx, N_tx).
    """

    def __init__(self, paths: ClusterGeometry, tx_geom: ArrayGeometry,
                 rx_geom: ArrayGeometry, cfg: ClusterConfig, num_subcarriers: int):
        if cfg.num_taps > num_subcarriers:
            raise ConfigurationError(
                f"taps-within-cp: {cfg.num_taps} delay taps exceed {num_subcarriers} subcarriers"
            )
        self.num_subcarriers = num_subcarriers
        self.rx_basis = steering_matrix(rx_geom, paths.aoa_azimuth, paths.aoa_elevation)
        self.tx_basis = steering_matrix(tx_geom, paths.aod_azimuth, paths.aod_elevation)
        amp = _tap_amplitude(tx_geom.num_elements, rx_geom.num_elements, cfg)
        pulse = _pulse_taps(paths.delays, cfg) * amp
        self.weights = paths.gains[:, None] * np.fft.fft(pulse, n=num_subcarriers, axis=1)
        self._factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def effective(self, rx_matrix: np.ndarray, tx_matrix: np.ndarray) -> np.ndarray:
        """Per-subcarrier W^H H[k] F, shape (K, W.cols, F.cols)."""
        left = rx_matrix.conj().T @ self.rx_basis     # (a, P)
        right = self.tx_basis.conj().T @ tx_matrix    # (P, b)
        return np.einsum("ap,pk,pb->kab", left, self.weights, right, optimize=True)

    def _weight_gram(self) -> np.ndarray:
        return (self.weights @ self.weights.conj().T) / self.num_subcarriers

    def covariance_factors(self, side: str):
        """(basis, core) with covariance = basis @ core @ basis^H; core is Hermitian PSD.

        The covariance is the sample covariance over subcarriers,
        (1/K) sum_k H[k]^H H[k] on the "tx" side and (1/K) sum_k H[k] H[k]^H
        on the "rx" side. The covariance of an element subset of that side
        takes the matching rows of the basis and the same core. The factors
        of both sides are computed on the first call, from one weight Gram
        W W^H / K (the "tx" core takes its conjugate), and shared by every
        later call, read-only.
        """
        if side not in ("tx", "rx"):
            raise ConfigurationError("side must be 'tx' or 'rx'")
        if not self._factors:
            gram = self._weight_gram()
            tx_core = (self.rx_basis.conj().T @ self.rx_basis) * gram.conj()
            rx_core = (self.tx_basis.conj().T @ self.tx_basis) * gram
            tx_core.flags.writeable = rx_core.flags.writeable = False
            self._factors = {"tx": (self.tx_basis, tx_core), "rx": (self.rx_basis, rx_core)}
        return self._factors[side]

    def subcarrier_singular_values(self, num_streams: int) -> np.ndarray:
        """Top ``num_streams`` singular values of every H[k], shape (K, n).

        Each basis is U F on its numerical range (:func:`_range_factor`), so
        H[k] = U_rx F_rx diag(m[:, k]) F_tx^H U_tx^H and the singular values
        are those of the range-space core C[k] = F_rx diag(m[:, k]) F_tx^H,
        r_rx x r_tx. The ranks r are numerical: rays clipped to the same
        elevation pole share one steering vector, so r falls below the path
        count P. The values are the square roots of the top eigenvalues of
        the Hermitian Gram of C[k] on its smaller side; those beyond
        min(r_rx, r_tx) lie below the rounding level and are returned as 0.
        ``num_streams`` is bounded by the structural rank, min(N, P) per
        side, which the configuration fixes, not by the draw. Each
        subcarrier's core, Gram and eigenvalues are formed in turn, so the
        loop holds a few r x r temporaries (at most 0.4 MB each at P = 160
        paths) and its memory does not grow with K.
        The Gram squares the spread of the values: its eigenvalues carry an
        absolute error of a few eps * s_1^2, so s_n is accurate to about
        eps * s_1^2 / s_n, and never worse than about sqrt(eps) * s_1. The
        relative error of s_n thus grows as (s_1 / s_n)^2, where an SVD of
        C[k] would keep it near eps.
        """
        if num_streams > min(*self.rx_basis.shape, *self.tx_basis.shape):
            raise ConfigurationError("more streams requested than channel rank supports")
        fr = _range_factor(self.rx_basis)
        ft = _range_factor(self.tx_basis)
        ft_h = ft.conj().T
        receive_side = len(fr) <= len(ft)
        n = min(num_streams, len(fr), len(ft))
        out = np.zeros((self.num_subcarriers, num_streams))
        for k, m in enumerate(self.weights.T):
            core = (fr * m) @ ft_h
            gram = core @ core.conj().T if receive_side else core.conj().T @ core
            out[k, :n] = np.linalg.eigvalsh(gram)[::-1][:n]
        return np.sqrt(np.maximum(out, 0.0))


def _range_factor(basis: np.ndarray) -> np.ndarray:
    """F = S_r V_r^H (r x P) with basis = U_r F for orthonormal U_r (N x r).

    Taken from the SVD of the QR factor R rather than of the basis itself.
    r is the numerical rank by numpy's ``matrix_rank`` rule: the singular
    values above s_1 * max(N, P) * eps. The dropped directions lie below the
    rounding level of R itself.
    """
    _, s, vh = np.linalg.svd(np.linalg.qr(basis, mode="r"), full_matrices=False)
    keep = s > s[0] * max(basis.shape) * np.finfo(s.dtype).eps
    return s[keep, None] * vh[keep]


def near_field_los(tx_geom: ArrayGeometry, rx_geom: ArrayGeometry,
                   wavelength: float) -> np.ndarray:
    """Deterministic LoS SI matrix: entry (i, j) = (rho / r_ij) e^{-j 2 pi r_ij / lambda}.

    rho normalizes the Frobenius power to N_tx * N_rx exactly. Warns when the
    panel separation is outside the near-field radius 2 D^2 / lambda.
    """
    tx_pos = element_positions(tx_geom, wavelength)
    rx_pos = element_positions(rx_geom, wavelength)
    diff = rx_pos[:, None, :] - tx_pos[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    if np.any(r <= 0.0):
        raise DomainError("transmit and receive panels overlap; element-pair distance is zero")
    sep = np.linalg.norm(np.mean(rx_pos, axis=0) - np.mean(tx_pos, axis=0))
    radius = max(near_field_radius(tx_geom, wavelength), near_field_radius(rx_geom, wavelength))
    if sep >= radius:
        warnings.warn(
            f"panel separation {sep:.3g} m is outside the near-field radius {radius:.3g} m; "
            "the spherical-wavefront LoS model may not apply", stacklevel=2)
    mat = np.exp(-2j * np.pi * r / wavelength) / r
    nt, nr = tx_geom.num_elements, rx_geom.num_elements
    rho = math.sqrt(nt * nr / float(np.sum(1.0 / r ** 2)))
    return rho * mat


@functools.lru_cache(maxsize=8)
def _shared_los(tx_geom: ArrayGeometry, rx_geom: ArrayGeometry,
                wavelength: float) -> np.ndarray:
    """near_field_los computed once per geometry and shared read-only by every draw."""
    los = near_field_los(tx_geom, rx_geom, wavelength)
    los.flags.writeable = False
    return los


@dataclass
class SiChannelParts:
    """Factored SI channel: Rician-weighted near-field LoS plus clustered NLoS,
    scaled by ``amplitude``, the residual left by the pre-digital cancellation."""

    los: np.ndarray
    nlos: PathChannel
    los_weight: float
    nlos_weight: float
    amplitude: float

    def effective(self, rx_matrix: np.ndarray, tx_matrix: np.ndarray) -> np.ndarray:
        """Per-subcarrier W^H H_si[k] F including the residual-cancellation scale."""
        # summed in place: a (K, a, b) temporary less than the two-term sum
        out = self.nlos_weight * self.nlos.effective(rx_matrix, tx_matrix)
        out += self.los_weight * (rx_matrix.conj().T @ self.los @ tx_matrix)
        return self.amplitude * out


def _rician_weights(rician_factor_db: float) -> tuple[float, float]:
    """(LoS, NLoS) amplitude weights; +inf dB is pure LoS and -inf dB pure NLoS."""
    if np.isinf(rician_factor_db):
        return (1.0, 0.0) if rician_factor_db > 0 else (0.0, 1.0)
    kappa = 10.0 ** (rician_factor_db / 10.0)
    return math.sqrt(kappa / (1.0 + kappa)), math.sqrt(1.0 / (1.0 + kappa))


def _si_nlos_config(cfg: SiChannelConfig, cluster_cfg: ClusterConfig) -> ClusterConfig:
    return replace(cluster_cfg, num_clusters=cfg.nlos_clusters, rays_per_cluster=cfg.nlos_rays)


def si_channel_parts(tx_geom: ArrayGeometry, rx_geom: ArrayGeometry, cfg: SiChannelConfig,
                     cluster_cfg: ClusterConfig, rng_seed, wavelength: float,
                     num_subcarriers: int) -> SiChannelParts:
    """SI channel: sqrt(k/(1+k)) near-field LoS plus sqrt(1/(1+k)) clustered NLoS,
    attenuated by ``cfg.pre_digital_sic_db`` of power (amplitude 10^(-dB/20)).

    The LoS matrix depends on the geometry alone, so it is computed once per
    (tx_geom, rx_geom, wavelength) and shared read-only; its near-field
    warning fires once per geometry per process.
    """
    rng = as_rng(rng_seed)
    los = _shared_los(tx_geom, rx_geom, wavelength)
    nlos_cfg = _si_nlos_config(cfg, cluster_cfg)
    nlos = PathChannel(sample_cluster_geometry(nlos_cfg, rng), tx_geom, rx_geom, nlos_cfg,
                       num_subcarriers)
    return SiChannelParts(los, nlos, *_rician_weights(cfg.rician_factor_db),
                          amplitude=10.0 ** (-cfg.pre_digital_sic_db / 20.0))


def draw_cee_noise(rng_seed, shape) -> np.ndarray:
    """Unit-variance circular Gaussian draw for :func:`perturb_effective_channel`."""
    rng = as_rng(rng_seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def estimation_error(g: np.ndarray, sigma_e: float, noise: np.ndarray) -> np.ndarray:
    """Error of the estimated effective channel g (K, M, N).

    The error on subcarrier k is sigma_e times the RMS entry magnitude of
    g[k] times ``noise[k]``, a unit-variance draw (:func:`draw_cee_noise`),
    so sigma_e is scale free.
    """
    rms = np.sqrt(np.mean(np.abs(g) ** 2, axis=(1, 2)))
    return sigma_e * rms[:, None, None] * noise


def perturb_effective_channel(g: np.ndarray, sigma_e: float, noise: np.ndarray) -> np.ndarray:
    """Estimated effective channel (K, M, N): truth minus :func:`estimation_error`.

    The true channel is the returned estimate plus the error.
    """
    return g - estimation_error(g, sigma_e, noise)
