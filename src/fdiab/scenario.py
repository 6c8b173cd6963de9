"""One Monte Carlo drop: channel realizations and the designed links.

A drop consists of the donor-to-IAB backhaul channel, one access channel per
user, and the self-interference channel between the co-located IAB panels.
Every transmitter has one RF chain per user, one stream each. The access
link is an ``AccessLinkDesign``; the backhaul is a ``BackhaulLink``, the
hybrid link alone, under a ``BackhaulLinkDesign``, its full-duplex receiver.
A design passes three stages:

- RF: eigenvector phase projections over an ``RfNetwork``'s blocks, built
  once per (channel, side, network) of a drop (``Realization.rf_stage``);
- baseband: zero forcing across access users, one equal-power stream per
  donor chain (``normalize_power``), the whitening of the desired channel,
  A_w, and of the interference, B_w, and each combiner's factoring by one
  rule (``BackhaulLinkDesign``);
- evaluation: ``BackhaulLink.interference_free`` and each design's
  ``evaluate``, per phase-shifter kind and SNR point under every duplex mode.

Only the transmit-side insertion loss enters the rates: the receive-side
loss cancels (see ``fdiab.link``) and shows only in the budgets, which each
``RfNetwork`` prices. A full-duplex combiner is a value the caller passes
to ``BackhaulLinkDesign.evaluate``, by default the one that knows the
interference. Every full-duplex backhaul rate follows from one closed form,
``combiner_rate``, in two scalars per operating point, and every rate without
interference, hybrid or full-digital, from ``singular_value_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .arrays import ArrayGeometry
from .channel import (ClusterConfig, PathChannel, SiChannelConfig, SiChannelParts,
                      ci_path_loss, estimation_error, sample_cluster_geometry,
                      si_channel_parts)
from .errors import ConfigurationError
from .link import (CombinerFactors, SeResult, SnrPoint, _split_factors, combiner_rate,
                   duplex_rates, se_access, singular_value_rate)
from .rfil import RfilBudget, RfNetwork
from .transceiver import normalize_power, phase_project, top_eigvecs_factored, zf_bb_precoder
# unused here; the benchmark's tracer still wraps these three names in this module
from .link import se_backhaul  # noqa: F401
from .transceiver import bb_svd, mmse_bb_combiner  # noqa: F401

if TYPE_CHECKING:
    from .config import ExperimentConfig

Seeder = Callable[[str], np.random.Generator]


@dataclass(frozen=True)
class Scenario:
    """Geometry, propagation, and dimensioning shared by every trial."""

    num_subcarriers: int
    users: int
    wavelength: float
    donor_geom: ArrayGeometry
    iab_tx_geom: ArrayGeometry
    iab_rx_geom: ArrayGeometry
    user_geom: ArrayGeometry
    cluster_cfg: ClusterConfig
    access_cluster_cfg: ClusterConfig
    si_cfg: SiChannelConfig
    backhaul_pl_db: float

    def snr_point(self, snr_db: float) -> SnrPoint:
        return SnrPoint(snr_db, num_users=self.users, num_subcarriers=self.num_subcarriers)

    def network(self, geom: ArrayGeometry, chains: int, structure: str) -> RfNetwork:
        """The ``structure`` network joining ``chains`` RF chains to ``geom``'s
        panel: one fully connected block, or one subarray per user."""
        blocks = 1 if structure == "fully-connected" else self.users
        return RfNetwork.partition(geom.num_elements, chains, blocks)

    @property
    def si_power_advantage(self) -> float:
        """Power advantage of the co-located transmitter over the desired one.

        Both nodes transmit at the same power, but the self-interference
        path skips the backhaul path loss, so per stream it arrives a factor
        10^(PL/10) stronger (the pre-digital cancellation already scales the
        SI channel itself).
        """
        return 10.0 ** (self.backhaul_pl_db / 10.0)


def build_scenario(cfg: "ExperimentConfig") -> Scenario:
    lam = cfg.wavelength
    donor = ArrayGeometry(cfg.donor_rows, cfg.donor_cols, cfg.element_spacing)
    iab_tx = ArrayGeometry(cfg.iab_rows, cfg.iab_cols, cfg.element_spacing)
    iab_rx = ArrayGeometry(
        cfg.iab_rows, cfg.iab_cols, cfg.element_spacing,
        origin=(cfg.panel_separation_wavelengths * lam, 0.0, 0.0))
    user = ArrayGeometry(cfg.user_rows, cfg.user_cols, cfg.element_spacing)
    cluster = ClusterConfig(
        num_clusters=cfg.clusters, rays_per_cluster=cfg.rays_per_cluster,
        angle_spread=cfg.angle_spread_rad, num_taps=cfg.num_taps,
        pulse_rolloff=cfg.pulse_rolloff)
    access_cluster = ClusterConfig(
        num_clusters=cfg.access_clusters, rays_per_cluster=cfg.access_rays_per_cluster,
        angle_spread=cfg.access_angle_spread_rad, num_taps=cfg.num_taps,
        pulse_rolloff=cfg.pulse_rolloff)
    si = SiChannelConfig(
        rician_factor_db=cfg.si_rician_db, nlos_clusters=cfg.si_nlos_clusters,
        nlos_rays=cfg.si_nlos_rays, pre_digital_sic_db=cfg.sic_db)
    return Scenario(
        num_subcarriers=cfg.subcarriers, users=cfg.users, wavelength=lam, donor_geom=donor,
        iab_tx_geom=iab_tx, iab_rx_geom=iab_rx, user_geom=user,
        cluster_cfg=cluster, access_cluster_cfg=access_cluster, si_cfg=si,
        backhaul_pl_db=ci_path_loss(cfg.backhaul_distance_m, cfg.carrier_hz,
                                    cfg.path_loss_exponent))


@dataclass
class Realization:
    """Channels of one drop; the SI channel carries its cancellation amplitude."""

    backhaul: PathChannel
    access: tuple[PathChannel, ...]
    si: SiChannelParts
    _rf_stages: dict = field(default_factory=dict, init=False, repr=False)

    def rf_stage(self, channel: PathChannel, side: str, net: RfNetwork) -> np.ndarray:
        """``rf_stage`` of ``channel``'s ``side`` on ``net``, built on first use;
        every design of the drop that needs it shares one read-only copy."""
        key = (channel, side, net)
        if key not in self._rf_stages:
            stage = rf_stage(channel.covariance_factors(side), net)
            stage.flags.writeable = False
            self._rf_stages[key] = stage
        return self._rf_stages[key]


def draw_realization(scn: Scenario, seeder: Seeder) -> Realization:
    k = scn.num_subcarriers
    backhaul = PathChannel(sample_cluster_geometry(scn.cluster_cfg, seeder("backhaul")),
                           scn.donor_geom, scn.iab_rx_geom, scn.cluster_cfg, k)
    access = tuple(
        PathChannel(sample_cluster_geometry(scn.access_cluster_cfg, seeder(f"access{u}")),
                    scn.iab_tx_geom, scn.user_geom, scn.access_cluster_cfg, k)
        for u in range(scn.users))
    si = si_channel_parts(scn.iab_tx_geom, scn.iab_rx_geom, scn.si_cfg, scn.cluster_cfg,
                          seeder("si"), scn.wavelength, k)
    return Realization(backhaul, access, si)


def rf_stage(factors: tuple[np.ndarray, np.ndarray], net: RfNetwork) -> np.ndarray:
    """Phase-projected dominant-eigenvector RF stage of ``net`` via the path-space core.

    Block b holds the ``net.chains`` columns designed from ``factors``, a
    ``covariance_factors`` pair, for the elements ``net.blocks[b]`` alone.
    """
    basis, core = factors
    n = net.chains
    out = np.zeros((len(basis), len(net.blocks) * n), dtype=complex)
    for b, block in enumerate(net.blocks):
        out[block, b * n:(b + 1) * n] = phase_project(top_eigvecs_factored(basis[block], core, n))
    return out


class AccessLinkDesign:
    """Multiuser downlink of the IAB node: per-user RF stages plus ZF baseband."""

    def __init__(self, scn: Scenario, real: Realization, structure: str):
        self.structure = structure
        self.tx_net = tx = scn.network(scn.iab_tx_geom, scn.users, structure)
        self.user_net = RfNetwork.partition(scn.user_geom.num_elements, 1, 1)
        # transmit column u is the one-chain stage of user u's channel over
        # the block that carries chain u
        f_rf = np.hstack([rf_stage(ch.covariance_factors("tx"),
                                   RfNetwork((tx.blocks[u // tx.chains],), 1))
                          for u, ch in enumerate(real.access)])
        combiners = [real.rf_stage(ch, "rx", self.user_net) for ch in real.access]
        self.f_rf, self.combiners = f_rf, combiners
        eff = np.concatenate([ch.effective(w, f_rf) for ch, w in zip(real.access, combiners)],
                             axis=1)                             # (K, U, U)
        self.f_bb = normalize_power(f_rf, zf_bb_precoder(eff))
        self.rows0 = eff @ self.f_bb
        self.noise_scales = np.array([float(np.sum(np.abs(w) ** 2)) for w in combiners])

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(IAB transmit, user receive) per-path budgets."""
        # known defect (ROADMAP item 1; the strict xfail in perfbench/test_checks.py,
        # test_rfil_when_user_array_differs): in the subarray structure the user
        # side prices the user's combiner over an IAB subarray of N_iab / U
        # elements, not over its own array; they agree for equal sizes, as by default
        user = self.user_net if self.structure == "fully-connected" else self.tx_net
        return self.tx_net.budget("tx", ps_kind), user.budget("rx", ps_kind)

    def evaluate(self, ps_kind: str, snr: SnrPoint) -> dict[str, SeResult]:
        """Spectral efficiency per duplexing mode at one operating point."""
        # the user's combiner loss scales its signal and noise alike, so only
        # the transmit-side loss reaches the rate
        tx_b, _ = self.budgets(ps_kind)
        res = se_access(self.rows0 * tx_b.linear_scale, snr, self.noise_scales)
        # the users see no self-interference, so full duplex loses nothing
        return duplex_rates(res, res)


class BackhaulLink:
    """Donor-to-IAB hybrid link alone, without the IAB node's interference.

    The donor sends one equal-power stream per RF chain; a unitary precoder
    such as ``bb_svd``'s would change no rate (Tse and Viswanath,
    *Fundamentals of Wireless Communication*, sec. 8.3). The link keeps its
    desired channel A only whitened, ``white`` = L^{-1} A with ``chol`` L the
    Cholesky factor of ``noise_gram``, and A_w's singular values ``sigma``,
    from a backward-stable SVD (no Gram is formed), which rate it alone.
    """

    def __init__(self, scn: Scenario, real: Realization, structure: str,
                 chains_per_subarray: int):
        self.scn = scn
        ns = scn.users                                           # one stream per user
        self.tx_net = scn.network(scn.donor_geom, ns, structure)
        self.rx_net = scn.network(scn.iab_rx_geom, ns * chains_per_subarray, structure)
        ch = real.backhaul
        self.f_rf = real.rf_stage(ch, "tx", self.tx_net)
        self.w_rf = real.rf_stage(ch, "rx", self.rx_net)
        self.f_bb = normalize_power(self.f_rf, np.eye(ns, dtype=complex)[None])
        desired = ch.effective(self.w_rf, self.f_rf) @ self.f_bb  # A, (K, M, Ns)
        self.noise_gram = self.w_rf.conj().T @ self.w_rf
        self.chol = np.linalg.cholesky(self.noise_gram)
        self.white = np.linalg.solve(self.chol, desired)         # A_w
        self.sigma = np.linalg.svd(self.white, compute_uv=False)

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(donor transmit, IAB receive) per-path budgets."""
        return self.tx_net.budget("tx", ps_kind), self.rx_net.budget("rx", ps_kind)

    def a(self, ps_kind: str, snr: SnrPoint) -> float:
        """The rates' ``a``; the receive-side loss cancels, so only the donor's enters."""
        tx_scale = self.budgets(ps_kind)[0].linear_scale
        return snr.stream_power(self.scn.users) * tx_scale ** 2 / snr.noise_power

    def interference_free(self, a: float) -> SeResult:
        """log2 det(I + a A^H G^{-1} A), the rate without interference."""
        return singular_value_rate(self.sigma, a)


class BackhaulLinkDesign:
    """Full-duplex receiver of ``link`` while the IAB node serves its users in band.

    It keeps the interference B = ``g_si0 @ access.f_bb`` (K, M, N_i) only
    whitened, ``white`` = B_w = L^{-1} B. Each MMSE combiner is a value,
    ``_split_factors(link.white, B_w - E_w, E_w)`` for an estimate of B_w with
    whitened error E_w: ``aware`` has E_w = 0, ``combiner`` an estimation
    error, ``blind_combiner()`` E_w = B_w; ``evaluate`` judges each against B
    through ``combiner_rate``. Cancelling takes N_s + N_i receive chains; a
    link with fewer raises a configuration error before any combiner is built.
    """

    def __init__(self, real: Realization, link: BackhaulLink, access: AccessLinkDesign):
        m, ns = link.white.shape[1:]
        ni = access.f_bb.shape[2]
        if m < ns + ni:
            raise ConfigurationError(
                f"rf-chain-rule: {m} receive chains cannot separate {ns} desired "
                f"plus {ni} interfering streams")
        self.link, self.access = link, access
        self.g_si0 = real.si.effective(link.w_rf, access.f_rf)   # (K, M, U)
        self.white = np.linalg.solve(link.chol, self.g_si0 @ access.f_bb)  # B_w, (K, M, N_i)
        self.aware = _split_factors(link.white, self.white)

    def combiner(self, sigma_e: float, cee_noise: np.ndarray | None) -> CombinerFactors:
        """Factors of the full-duplex combiner designed from the SI estimate.

        The estimated effective SI channel has the error ``estimation_error``
        at ``sigma_e``; ``cee_noise`` is its unit-variance draw, shared by a
        sweep over sigma_e. At sigma_e = 0 the estimate is exact (``aware``).
        The error is whitened alone and enters as itself, never as a
        difference B - estimate; it does not depend on the operating point, so
        one factoring serves every phase-shifter kind and SNR.
        """
        if sigma_e == 0.0:
            return self.aware
        error = estimation_error(self.g_si0, sigma_e, cee_noise) @ self.access.f_bb
        white_error = np.linalg.solve(self.link.chol, error)               # E_w
        return _split_factors(self.link.white, self.white - white_error, white_error)

    def blind_combiner(self) -> CombinerFactors:
        """Factors of the MMSE combiner designed as if there were no interference.

        Its estimate is zero and its error the whole interference, E_w = B_w:
        a receiver without digital cancellation. It is factored on the R
        factor of [B_w | A_w], the same rates from N_i + N_s rows instead of
        M, at a lower memory peak: ``_split_factors(link.white, 0, B_w)`` on
        the M rows writes the same CSVs, but it raised the peak resident
        memory of the ``fig6-k512`` benchmark workload from 64.6 to 68.5 MB
        (+6 %, 3 alternating runs on 2 cores, numpy 2.4.6 with OpenBLAS).
        """
        ni = self.white.shape[2]
        r = np.linalg.qr(np.concatenate([self.white, self.link.white], axis=2), mode="r")
        return _split_factors(r[:, :, ni:], np.zeros_like(r[:, :, :ni]), r[:, :, :ni])

    def evaluate(self, ps_kind: str, snr: SnrPoint,
                 combiner: CombinerFactors | None = None) -> dict[str, SeResult]:
        """Spectral efficiency per duplexing mode at one operating point.

        The full-duplex rate is that of the combiner with the factors
        ``combiner`` (by default ``aware``; see ``combiner`` and
        ``blind_combiner``) against the true SI channel; the other modes read
        the link's interference-free rate.
        """
        link, scn = self.link, self.link.scn
        a = link.a(ps_kind, snr)
        # the IAB node sends one stream per user at the donor's power
        acc_scale = self.access.budgets(ps_kind)[0].linear_scale
        p = snr.stream_power(scn.users)
        b = p * scn.si_power_advantage * acc_scale ** 2 / snr.noise_power
        factors = self.aware if combiner is None else combiner
        return duplex_rates(combiner_rate(factors, a, b), link.interference_free(a))


def full_digital_backhaul_se(real: Realization, scn: Scenario, snr: SnrPoint) -> SeResult:
    """Unconstrained per-subcarrier SVD transceiver with perfect cancellation.

    Upper-bound reference: no phase-shifter constraint, no insertion loss,
    equal power over the dominant singular modes.
    """
    ns = scn.users
    sigma = real.backhaul.subcarrier_singular_values(ns)
    return singular_value_rate(sigma, snr.stream_power(ns) / snr.noise_power)
