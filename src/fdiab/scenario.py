"""One Monte Carlo drop: channel realizations and the designed links.

A drop consists of the donor-to-IAB backhaul channel, one access channel per
user, and the self-interference channel between the co-located IAB panels.
``AccessLinkDesign`` and ``BackhaulLinkDesign`` assemble the RF stages
(eigenvector phase projections, optionally block diagonal), the baseband
stages (donor SVD precoding, zero forcing across access users, MMSE
combining against residual self-interference), and evaluate spectral
efficiency per phase-shifter kind and SNR point.

Insertion loss enters as scalar factors on the effective channels; designs
that are scale invariant (RF stages, SVD, ZF) are computed once per
structure, while the MMSE combiner is rebuilt per operating point because it
balances against the fixed noise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .arrays import ArrayGeometry, SubarrayPartition, partition_subarrays
from .channel import (ClusterConfig, PathChannel, SiChannelConfig, SiChannelParts,
                      ci_path_loss, perturb_effective_channel, sample_cluster_geometry,
                      si_channel_parts)
from .errors import ConfigurationError
from .link import DUPLEX_MODES, SeResult, SnrPoint, se_access, se_backhaul
from .rfil import RfComponentLosses, RfilBudget, loss_fully_connected, loss_subarray
from .transceiver import (bb_svd, mmse_bb_combiner, normalize_power, phase_project,
                          top_eigvecs_factored, zf_bb_precoder)

if TYPE_CHECKING:
    from .config import ExperimentConfig

Seeder = Callable[[str], np.random.Generator]


@dataclass(frozen=True)
class Scenario:
    """Geometry, propagation, and dimensioning shared by every trial."""

    num_subcarriers: int
    users: int
    tx_chains: int
    wavelength: float
    donor_geom: ArrayGeometry
    iab_tx_geom: ArrayGeometry
    iab_rx_geom: ArrayGeometry
    user_geom: ArrayGeometry
    donor_partition: SubarrayPartition
    iab_partition: SubarrayPartition
    cluster_cfg: ClusterConfig
    access_cluster_cfg: ClusterConfig
    si_cfg: SiChannelConfig
    backhaul_pl_db: float
    access_pl_db: float

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
        angle_spread=cfg.angle_spread_rad, sampling_time=cfg.sampling_time,
        num_taps=cfg.num_taps, pulse_rolloff=cfg.pulse_rolloff)
    access_cluster = ClusterConfig(
        num_clusters=cfg.access_clusters, rays_per_cluster=cfg.access_rays_per_cluster,
        angle_spread=cfg.access_angle_spread_rad, sampling_time=cfg.sampling_time,
        num_taps=cfg.num_taps, pulse_rolloff=cfg.pulse_rolloff)
    si = SiChannelConfig(
        rician_factor_db=cfg.si_rician_db, nlos_clusters=cfg.si_nlos_clusters,
        nlos_rays=cfg.si_nlos_rays, pre_digital_sic_db=cfg.sic_db)
    return Scenario(
        num_subcarriers=cfg.subcarriers, users=cfg.users, tx_chains=cfg.tx_rf_chains,
        wavelength=lam, donor_geom=donor, iab_tx_geom=iab_tx, iab_rx_geom=iab_rx,
        user_geom=user,
        donor_partition=partition_subarrays(donor.num_elements, cfg.tx_rf_chains),
        iab_partition=partition_subarrays(iab_tx.num_elements, cfg.users),
        cluster_cfg=cluster, access_cluster_cfg=access_cluster, si_cfg=si,
        backhaul_pl_db=ci_path_loss(cfg.backhaul_distance_m, cfg.carrier_hz,
                                    cfg.path_loss_exponent),
        access_pl_db=ci_path_loss(cfg.access_distance_m, cfg.carrier_hz,
                                  cfg.path_loss_exponent))


@dataclass
class Realization:
    """Channels of one drop; the SI channel already carries the pre-digital
    cancellation amplitude."""

    backhaul: PathChannel
    access: tuple[PathChannel, ...]
    si: SiChannelParts


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


def _rf_factored(channel: PathChannel | Sequence[PathChannel], side: str, n_rf: int,
                 partition: SubarrayPartition | None = None) -> np.ndarray:
    """Phase-projected dominant-eigenvector RF stage via the path-space core.

    With a partition the stage is block diagonal: block b holds the ``n_rf``
    columns designed for the elements of subarray b alone, from ``channel[b]``
    when one channel per block is given and from ``channel`` otherwise.
    """
    if partition is None:
        basis, core = channel.covariance_factors(side)
        return phase_project(top_eigvecs_factored(basis, core, n_rf))
    blocks = partition.element_index_sets
    channels = [channel] * len(blocks) if isinstance(channel, PathChannel) else channel
    out = np.zeros((partition.num_elements, partition.num_subarrays * n_rf), dtype=complex)
    for b, (block, ch) in enumerate(zip(blocks, channels, strict=True)):
        idx = np.asarray(block)
        basis, core = ch.covariance_factors(side, idx)
        out[idx, b * n_rf:(b + 1) * n_rf] = phase_project(top_eigvecs_factored(basis, core, n_rf))
    return out


class AccessLinkDesign:
    """Multiuser downlink of the IAB node: per-user RF stages plus ZF baseband."""

    def __init__(self, scn: Scenario, real: Realization, structure: str):
        self.scn = scn
        self.structure = structure
        u = scn.users
        if scn.tx_chains != u:
            raise ConfigurationError(
                "access design assumes one transmit chain per user "
                f"({scn.tx_chains} chains, {u} users)")
        # one transmit column per user, designed from that user's channel
        if structure == "fully-connected":
            f_rf = np.concatenate([_rf_factored(ch, "tx", 1) for ch in real.access], axis=1)
        else:
            f_rf = _rf_factored(real.access, "tx", 1, scn.iab_partition)
        combiners = [_rf_factored(ch, "rx", 1) for ch in real.access]
        self.f_rf = f_rf
        self.combiners = combiners
        eff = np.concatenate([ch.effective(w, f_rf) for ch, w in zip(real.access, combiners)],
                             axis=1)                             # (K, U, U)
        self.f_bb = normalize_power(f_rf, zf_bb_precoder(eff), u, equal_streams=True)
        self.rows0 = eff @ self.f_bb
        self.noise_scales = np.array([float(np.sum(np.abs(w) ** 2)) for w in combiners])

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(IAB transmit, user receive) per-path budgets."""
        losses = RfComponentLosses(ps_kind)
        scn = self.scn
        n_iab = scn.iab_tx_geom.num_elements
        if self.structure == "fully-connected":
            tx = loss_fully_connected("tx", n_iab, scn.tx_chains, losses)
            user = loss_fully_connected("rx", scn.user_geom.num_elements, 1, losses)
        else:
            tx = loss_subarray("tx", n_iab, scn.tx_chains, scn.users, losses)
            user = loss_subarray("user_rx", n_iab, 1, scn.users, losses)
        return tx, user

    def evaluate(self, ps_kind: str, snr: SnrPoint,
                 duplexes: tuple[str, ...] = ("fd", "hd")) -> dict[str, SeResult]:
        tx_b, user_b = self.budgets(ps_kind)
        g = self.rows0 * (tx_b.linear_scale * user_b.linear_scale)
        # combiner loss applies to noise and signal alike at the user
        scales = (user_b.linear_scale ** 2) * self.noise_scales
        return {d: se_access(g, snr, scales, duplex=d) for d in duplexes}


class BackhaulLinkDesign:
    """Donor-to-IAB link with the IAB node transmitting to its users in band."""

    def __init__(self, scn: Scenario, real: Realization, access: AccessLinkDesign,
                 structure: str, chains_per_subarray: int):
        self.scn = scn
        self.access = access
        self.structure = structure
        self.chains_per_subarray = chains_per_subarray
        ns = scn.tx_chains
        m = scn.users * chains_per_subarray
        ch = real.backhaul
        if structure == "fully-connected":
            self.f_rf = _rf_factored(ch, "tx", ns)
            self.w_rf = _rf_factored(ch, "rx", m)
        else:
            self.f_rf = _rf_factored(ch, "tx", 1, scn.donor_partition)
            self.w_rf = _rf_factored(ch, "rx", chains_per_subarray, scn.iab_partition)
        eff = ch.effective(self.w_rf, self.f_rf)                 # (K, M, Ns)
        precoder, _ = bb_svd(eff, ns)
        self.f_bb = normalize_power(self.f_rf, precoder, ns)
        self.des0 = eff @ self.f_bb
        self.noise_gram = self.w_rf.conj().T @ self.w_rf
        self.g_si0 = real.si.effective(self.w_rf, access.f_rf)   # (K, M, U)
        self.num_streams = ns

    def budgets(self, ps_kind: str) -> tuple[RfilBudget, RfilBudget]:
        """(donor transmit, IAB receive) per-path budgets."""
        losses = RfComponentLosses(ps_kind)
        scn = self.scn
        m = scn.users * self.chains_per_subarray
        if self.structure == "fully-connected":
            tx = loss_fully_connected("tx", scn.donor_geom.num_elements, scn.tx_chains, losses)
            rx = loss_fully_connected("rx", scn.iab_rx_geom.num_elements, m, losses)
        else:
            tx = loss_subarray("tx", scn.donor_geom.num_elements, scn.tx_chains,
                               scn.donor_partition.num_subarrays, losses)
            rx = loss_subarray("iab_rx", scn.iab_rx_geom.num_elements, m, scn.users, losses)
        return tx, rx

    def evaluate(self, ps_kind: str, snr: SnrPoint, sigma_e: float = 0.0,
                 cee_noise: np.ndarray | None = None,
                 duplexes: tuple[str, ...] = DUPLEX_MODES,
                 include_no_dsic: bool = False) -> dict[str, SeResult]:
        """Spectral efficiency per duplexing mode at one operating point.

        The full-duplex combiner is designed from the estimated effective SI
        channel (exact when sigma_e = 0) and always judged against the true
        one. ``cee_noise`` supplies the unit-variance estimation-error draw
        so sweeps over sigma_e reuse a common realization; required when
        sigma_e > 0. ``include_no_dsic`` adds an ``fd_no_dsic`` entry where
        the receiver ignores the interference when combining.
        """
        scn = self.scn
        tx_b, rx_b = self.budgets(ps_kind)
        acc_b, _ = self.access.budgets(ps_kind)
        desired = self.des0 * (tx_b.linear_scale * rx_b.linear_scale)
        g_si = self.g_si0 * (acc_b.linear_scale * rx_b.linear_scale)
        rsi_true = g_si @ self.access.f_bb
        p = snr.stream_power(self.num_streams)
        p_rsi = p * self.num_streams / scn.users * scn.si_power_advantage
        # noise rides through the lossy combining network together with the
        # signal, so the combiner-output noise covariance carries the same
        # insertion-loss scale as the effective channels
        gram = (rx_b.linear_scale ** 2) * self.noise_gram
        ref = mmse_bb_combiner(desired, None, snr.noise_power, p, noise_gram=gram)
        out: dict[str, SeResult] = {}
        for duplex in duplexes:
            if duplex == "fd":
                if sigma_e > 0.0:
                    if cee_noise is None:
                        raise ConfigurationError("sigma_e > 0 requires a cee_noise draw")
                    g_hat = perturb_effective_channel(g_si, sigma_e, cee_noise)
                else:
                    g_hat = g_si
                rsi_est = g_hat @ self.access.f_bb
                comb = mmse_bb_combiner(desired, rsi_est, snr.noise_power, p, p_rsi,
                                        noise_gram=gram)
                out["fd"] = se_backhaul(desired, comb, snr, rsi_true, p_rsi, "fd", gram)
            elif duplex == "hd":
                out["hd"] = se_backhaul(desired, ref, snr, duplex="hd", noise_gram=gram)
            elif duplex == "fd_perfect_sic":
                out["fd_perfect_sic"] = se_backhaul(desired, ref, snr,
                                                    duplex="fd_perfect_sic",
                                                    noise_gram=gram)
        if include_no_dsic:
            res = se_backhaul(desired, ref, snr, rsi_true, p_rsi, "fd", gram)
            out["fd_no_dsic"] = res
        return out


def full_digital_backhaul_se(real: Realization, scn: Scenario, snr: SnrPoint) -> SeResult:
    """Unconstrained per-subcarrier SVD transceiver with perfect cancellation.

    Upper-bound reference: no phase-shifter constraint, no insertion loss,
    equal power over the dominant singular modes.
    """
    ns = scn.tx_chains
    sigma = real.backhaul.subcarrier_singular_values(ns)
    p = snr.stream_power(ns)
    se_k = np.sum(np.log2(1.0 + p * sigma ** 2 / snr.noise_power), axis=1)
    return SeResult("backhaul", "fd_perfect_sic", float(np.mean(se_k)), per_subcarrier=se_k)
