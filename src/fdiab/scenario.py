"""One Monte Carlo drop: channel realizations and the designed links.

A drop consists of the donor-to-IAB backhaul channel, one access channel per
user, and the self-interference channel between the co-located IAB panels.
``AccessLinkDesign`` and ``BackhaulLinkDesign`` assemble the RF stages
(eigenvector phase projections, optionally block diagonal), the baseband
stages (one equal-power stream per donor chain, zero forcing across access
users, MMSE combining against residual self-interference), and evaluate
spectral efficiency per phase-shifter kind and SNR point under every duplex
mode.

Every transmitter has one RF chain per user, one stream each. Only the
transmit-side insertion loss enters the rates, as a scalar factor on the
effective channels: the receive-side loss cancels (see ``fdiab.link``) and
shows only in the budgets. Designs that are scale invariant (RF stages, ZF)
are computed once per structure. So are the backhaul's
``StreamRates``. An RF stage that several designs of a drop share (a user's
combiner in both structures, the donor stage at every receive chain count)
is built once per drop (``Realization.rf_stage``). A full-duplex combiner is
a value the caller passes to ``BackhaulLinkDesign.evaluate``: the one that
knows the interference (the default), one designed from an erroneous
estimate (``combiner``, factored once per estimation error) or one blind to
it (``rates.blind_combiner()``). Every backhaul rate then follows in closed
form from two scalars per operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .arrays import ArrayGeometry, partition_subarrays
from .channel import (ClusterConfig, PathChannel, SiChannelConfig, SiChannelParts,
                      ci_path_loss, estimation_error, sample_cluster_geometry,
                      si_channel_parts)
from .link import CombinerFactors, SeResult, SnrPoint, StreamRates, duplex_rates, se_access
from .rfil import RfilBudget, loss_fully_connected, loss_subarray
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
    donor_blocks: tuple[range, ...]
    iab_blocks: tuple[range, ...]
    cluster_cfg: ClusterConfig
    access_cluster_cfg: ClusterConfig
    si_cfg: SiChannelConfig
    backhaul_pl_db: float

    def snr_point(self, snr_db: float) -> SnrPoint:
        return SnrPoint(snr_db, num_users=self.users, num_subcarriers=self.num_subcarriers)

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
        donor_blocks=partition_subarrays(donor.num_elements, cfg.users),
        iab_blocks=partition_subarrays(iab_tx.num_elements, cfg.users),
        cluster_cfg=cluster, access_cluster_cfg=access_cluster, si_cfg=si,
        backhaul_pl_db=ci_path_loss(cfg.backhaul_distance_m, cfg.carrier_hz,
                                    cfg.path_loss_exponent))


@dataclass
class Realization:
    """Channels of one drop; the SI channel already carries the pre-digital
    cancellation amplitude."""

    backhaul: PathChannel
    access: tuple[PathChannel, ...]
    si: SiChannelParts
    _rf_stages: dict = field(default_factory=dict, init=False, repr=False)

    def rf_stage(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The RF stage stored under ``key``, built by ``build()`` on first use.

        An RF stage depends on the channels alone, so every design of the
        drop that needs it shares one read-only copy.
        """
        if key not in self._rf_stages:
            stage = build()
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
    return Realization(backhaul, access, si.attenuated(scn.si_cfg.pre_digital_sic_db))


def _rf_factored(factors: Sequence[tuple[np.ndarray, np.ndarray]],
                 blocks: Sequence[range], n_rf: int) -> np.ndarray:
    """Phase-projected dominant-eigenvector RF stage via path-space cores.

    Block b holds the ``n_rf`` columns designed from ``factors[b]``, a
    ``covariance_factors`` pair, for the elements ``blocks[b]`` alone; a fully
    connected stage is one whole-panel block per designing channel.
    """
    out = np.zeros((len(factors[0][0]), len(blocks) * n_rf), dtype=complex)
    for b, ((basis, core), block) in enumerate(zip(factors, blocks, strict=True)):
        top = top_eigvecs_factored(basis[block], core, n_rf)
        out[block, b * n_rf:(b + 1) * n_rf] = phase_project(top)
    return out


class AccessLinkDesign:
    """Multiuser downlink of the IAB node: per-user RF stages plus ZF baseband."""

    def __init__(self, scn: Scenario, real: Realization, structure: str):
        self.scn = scn
        self.structure = structure
        u = scn.users
        # one transmit column per user, designed from that user's channel
        if structure == "fully-connected":
            blocks = (range(scn.iab_tx_geom.num_elements),) * u
        else:
            blocks = scn.iab_blocks
        f_rf = _rf_factored([ch.covariance_factors("tx") for ch in real.access], blocks, 1)
        user_panel = (range(scn.user_geom.num_elements),)
        combiners = [real.rf_stage(("user", u), lambda ch=ch: _rf_factored(
                         [ch.covariance_factors("rx")], user_panel, 1))
                     for u, ch in enumerate(real.access)]
        self.f_rf, self.combiners = f_rf, combiners
        eff = np.concatenate([ch.effective(w, f_rf) for ch, w in zip(real.access, combiners)],
                             axis=1)                             # (K, U, U)
        self.f_bb = normalize_power(f_rf, zf_bb_precoder(eff))
        self.rows0 = eff @ self.f_bb
        self.noise_scales = np.array([float(np.sum(np.abs(w) ** 2)) for w in combiners])

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(IAB transmit, user receive) per-path budgets."""
        scn = self.scn
        n_iab, u = scn.iab_tx_geom.num_elements, scn.users
        if self.structure == "fully-connected":
            return (loss_fully_connected("tx", n_iab, u, ps_kind),
                    loss_fully_connected("rx", scn.user_geom.num_elements, 1, ps_kind))
        # known defect: the user side prices the user's combiner over an IAB
        # subarray of N_iab / U elements, not over the user's own array; the
        # two agree only when the arrays have equal size, as in the defaults
        return (loss_subarray("tx", n_iab, u, u, ps_kind),
                loss_subarray("rx", n_iab, u, u, ps_kind))

    def evaluate(self, ps_kind: str, snr: SnrPoint) -> dict[str, SeResult]:
        """Spectral efficiency per duplexing mode at one operating point."""
        # the user's combiner loss scales its signal and noise alike, so only
        # the transmit-side loss reaches the rate
        tx_b, _ = self.budgets(ps_kind)
        res = se_access(self.rows0 * tx_b.linear_scale, snr, self.noise_scales)
        # the users see no self-interference, so full duplex loses nothing
        return duplex_rates(res, res)


class BackhaulLinkDesign:
    """Donor-to-IAB link with the IAB node transmitting to its users in band.

    The donor sends one equal-power stream per RF chain: its baseband stage
    is the identity scaled to unit-power coupled columns. With as many
    streams as chains, a precoder such as ``bb_svd``'s is a unitary V[k]: it
    turns the desired channel A into A V and leaves A A^H, and every rate,
    unchanged, whether the MMSE combiner knows, misestimates or ignores the
    interference (Tse and Viswanath, *Fundamentals of Wireless Communication*, sec. 8.3).
    """

    def __init__(self, scn: Scenario, real: Realization, access: AccessLinkDesign,
                 structure: str, chains_per_subarray: int):
        self.scn = scn
        self.access = access
        self.structure = structure
        self.chains_per_subarray = chains_per_subarray
        ns = scn.users                                           # one stream per user
        m = ns * chains_per_subarray
        ch = real.backhaul
        if structure == "fully-connected":
            tx_blocks, n_tx = (range(scn.donor_geom.num_elements),), ns
            rx_blocks, n_rx = (range(scn.iab_rx_geom.num_elements),), m
        else:
            tx_blocks, n_tx = scn.donor_blocks, 1
            rx_blocks, n_rx = scn.iab_blocks, chains_per_subarray
        # one core per side, shared by all of that side's blocks; the donor
        # stage does not depend on the receive chain count
        self.f_rf = real.rf_stage(("donor", structure), lambda: _rf_factored(
            [ch.covariance_factors("tx")] * len(tx_blocks), tx_blocks, n_tx))
        self.w_rf = _rf_factored([ch.covariance_factors("rx")] * len(rx_blocks), rx_blocks, n_rx)
        self.f_bb = normalize_power(self.f_rf, np.eye(ns, dtype=complex)[None])
        self.des0 = ch.effective(self.w_rf, self.f_rf) @ self.f_bb   # (K, M, Ns)
        self.noise_gram = self.w_rf.conj().T @ self.w_rf
        self.g_si0 = real.si.effective(self.w_rf, access.f_rf)   # (K, M, U)
        self.rates = StreamRates(self.des0, self.g_si0 @ access.f_bb, self.noise_gram)

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(donor transmit, IAB receive) per-path budgets."""
        scn = self.scn
        n_donor, n_iab, u = scn.donor_geom.num_elements, scn.iab_rx_geom.num_elements, scn.users
        m = u * self.chains_per_subarray
        if self.structure == "fully-connected":
            return (loss_fully_connected("tx", n_donor, u, ps_kind),
                    loss_fully_connected("rx", n_iab, m, ps_kind))
        return (loss_subarray("tx", n_donor, u, u, ps_kind),
                loss_subarray("rx", n_iab, m, u, ps_kind))

    def combiner(self, sigma_e: float, cee_noise: np.ndarray) -> CombinerFactors:
        """Factors of the full-duplex combiner designed from the SI estimate.

        The estimated effective SI channel has the error ``estimation_error``
        at ``sigma_e``; ``cee_noise`` is its unit-variance draw, shared by a
        sweep over sigma_e. At sigma_e = 0 the estimate is exact. The error
        does not depend on the operating point, so one factoring serves every
        phase-shifter kind and SNR.
        """
        if sigma_e == 0.0:
            return self.rates.combiner()
        error = estimation_error(self.g_si0, sigma_e, cee_noise) @ self.access.f_bb
        return self.rates.combiner(error)

    def evaluate(self, ps_kind: str, snr: SnrPoint,
                 combiner: CombinerFactors | None = None) -> dict[str, SeResult]:
        """Spectral efficiency per duplexing mode at one operating point.

        The full-duplex combiner has the factors ``combiner``: by default
        those of the exact SI estimate, otherwise one from ``combiner`` or
        ``rates.blind_combiner()``, the receiver without digital
        cancellation. It is always judged against the true SI channel. Every
        rate comes in closed form from the design's ``StreamRates``.
        """
        scn = self.scn
        # the receive-side loss scales signal, interference and noise alike
        # and cancels, so only each transmitter's loss reaches the rate
        tx_scale = self.budgets(ps_kind)[0].linear_scale
        acc_scale = self.access.budgets(ps_kind)[0].linear_scale
        # the donor and the IAB node each send one stream per user
        p = snr.stream_power(scn.users)
        a = p * tx_scale ** 2 / snr.noise_power
        b = p * scn.si_power_advantage * acc_scale ** 2 / snr.noise_power
        if combiner is None:
            combiner = self.rates.combiner()
        return duplex_rates(self.rates.rate(combiner, a, b), self.rates.interference_free(a))


def full_digital_backhaul_se(real: Realization, scn: Scenario, snr: SnrPoint) -> SeResult:
    """Unconstrained per-subcarrier SVD transceiver with perfect cancellation.

    Upper-bound reference: no phase-shifter constraint, no insertion loss,
    equal power over the dominant singular modes.
    """
    ns = scn.users
    sigma = real.backhaul.subcarrier_singular_values(ns)
    p = snr.stream_power(ns)
    se_k = np.sum(np.log2(1.0 + p * sigma ** 2 / snr.noise_power), axis=1)
    return SeResult(float(np.mean(se_k)), per_subcarrier=se_k)
