"""RF insertion-loss budgets for phase-shifter beamforming networks.

Every signal path through an analog beamforming network traverses one power
divider cascade, one phase shifter, and one power combiner cascade. An X-way
divider is built from ceil(log2(X)) stages of 2-way dividers (and likewise
for combiners), so the per-path loss in dB is

    P_D * ceil(log2(X_div)) + P_PS + P_C * ceil(log2(X_comb))

with P_D = 0.6 dB and P_C = 3.6 dB per stage, and P_PS = -2.3 dB (active)
or 8.8 dB (passive). The resulting linear amplitude factor 1/sqrt(L_RF)
multiplies the RF precoder/combiner matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

PD_PER_STAGE_DB = 0.6
PC_PER_STAGE_DB = 3.6
PS_ACTIVE_DB = -2.3
PS_PASSIVE_DB = 8.8

PS_KINDS = ("ideal", "active", "passive")


@dataclass(frozen=True)
class RfComponentLosses:
    """Phase-shifter kind of a network; the ``ideal`` kind zeroes every contribution."""

    ps_kind: str = "passive"

    def __post_init__(self):
        if self.ps_kind not in PS_KINDS:
            raise ConfigurationError(f"ps_kind must be one of {PS_KINDS}")

    @property
    def ps_db(self) -> float:
        if self.ps_kind == "ideal":
            return 0.0
        return PS_ACTIVE_DB if self.ps_kind == "active" else PS_PASSIVE_DB

    @property
    def ideal(self) -> bool:
        return self.ps_kind == "ideal"


@dataclass(frozen=True)
class RfilBudget:
    """Total per-path insertion loss with its component breakdown."""

    total_db: float
    breakdown: tuple[tuple[str, int, float], ...]  # (component, stages, dB)

    @property
    def linear_scale(self) -> float:
        """Amplitude factor 1/sqrt(L_RF) applied to RF matrices."""
        return 10.0 ** (-self.total_db / 20.0)


def _stages(way: int) -> int:
    if way < 1:
        raise ConfigurationError(f"divider/combiner way count must be >= 1, got {way}")
    return math.ceil(math.log2(way)) if way > 1 else 0


def _budget(losses: RfComponentLosses, divider_way: int, combiner_way: int) -> RfilBudget:
    if losses.ideal:
        return RfilBudget(0.0, (("ideal", 0, 0.0),))
    items = []
    nd = _stages(divider_way)
    items.append(("power-divider", nd, PD_PER_STAGE_DB * nd))
    items.append(("phase-shifter", 1, losses.ps_db))
    nc = _stages(combiner_way)
    items.append(("power-combiner", nc, PC_PER_STAGE_DB * nc))
    total = sum(db for _, _, db in items)
    return RfilBudget(total, tuple(items))


def loss_fully_connected(side: str, n_ant: int, n_rf: int,
                         losses: RfComponentLosses) -> RfilBudget:
    """Per-path loss of a fully connected stage.

    Transmit side: each RF chain feeds an N_ant-way divider, each antenna an
    N_rf-way combiner. Receive side: roles swap (N_rf-way divider at each
    antenna, N_ant-way combiner at each chain).
    """
    if n_rf < 1 or n_ant < n_rf:
        raise ConfigurationError(f"need 1 <= n_rf <= n_ant, got n_rf={n_rf}, n_ant={n_ant}")
    if side == "tx":
        return _budget(losses, n_ant, n_rf)
    if side == "rx":
        return _budget(losses, n_rf, n_ant)
    raise ConfigurationError("side must be 'tx' or 'rx'")


def loss_subarray(side: str, n_ant: int, n_rf: int, num_subarrays: int,
                  losses: RfComponentLosses) -> RfilBudget:
    """Per-path loss of a subarray stage.

    tx: U dividers (N_ant/U-way) and one PS per antenna.
    user_rx: one PS per antenna and a (N_ant/U)-way combiner per subarray.
    iab_rx: (N_rf/U)-way dividers, PSs, and (N_ant/U)-way combiners.
    """
    if num_subarrays < 1 or n_ant % num_subarrays != 0:
        raise ConfigurationError(
            f"subarray-divisibility: {num_subarrays} subarrays do not divide {n_ant} antennas")
    block = n_ant // num_subarrays
    if side == "tx":
        return _budget(losses, block, 1)
    if side == "user_rx":
        return _budget(losses, 1, block)
    if side == "iab_rx":
        if n_rf % num_subarrays != 0:
            raise ConfigurationError(
                f"subarray-divisibility: {num_subarrays} subarrays do not divide {n_rf} RF chains")
        return _budget(losses, n_rf // num_subarrays, block)
    raise ConfigurationError("side must be 'tx', 'user_rx', or 'iab_rx'")
