"""Experiment configuration: defaults, validation, and the INI file schema.

The config file is a flat key-value format with sections; every key has a
default, so an empty file is valid. ``schema_version`` guards future layout
changes. See ``ExperimentConfig`` for the meaning of each field; its
declaration order is the file layout.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

from .channel import SPEED_OF_LIGHT
from .errors import ConfigurationError
from .link import DUPLEX_MODES
from .rfil import PS_KINDS

STRUCTURES = ("fully-connected", "subarray")
LINKS = ("backhaul", "access")
EXPERIMENTS = ("fig4", "fig5", "fig6")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sweep run; defaults reproduce the desk-scale setup."""

    # [meta]
    schema_version: int = SCHEMA_VERSION

    # [system] OFDM and array dimensioning
    subcarriers: int = 512
    num_taps: int = 128
    users: int = 4
    donor_rows: int = 16
    donor_cols: int = 16
    iab_rows: int = 16
    iab_cols: int = 16
    user_rows: int = 4
    user_cols: int = 16
    element_spacing: float = 0.5
    rx_chains_per_subarray: int = 2

    # carrier and propagation; the backhaul range differs per study: the
    # insertion-loss comparison runs a short urban hop, the digital
    # cancellation study a standard hop, and the estimation-error study a
    # long hop where residual self-interference dominates
    carrier_hz: float = 28e9
    backhaul_distance_m: float = 6.0
    sic_backhaul_distance_m: float = 120.0
    cee_backhaul_distance_m: float = 4000.0
    path_loss_exponent: float = 2.0
    panel_separation_wavelengths: float = 150.0

    # [channel] clustered channels (per link) and self-interference
    clusters: int = 10
    rays_per_cluster: int = 16
    angle_spread_deg: float = 25.0
    access_clusters: int = 6
    access_rays_per_cluster: int = 16
    access_angle_spread_deg: float = 35.0
    pulse_rolloff: float = 0.5
    si_rician_db: float = 45.0
    si_nlos_clusters: int = 2
    si_nlos_rays: int = 4
    sic_db: float = 80.0

    # [sweep] grids
    structures: tuple[str, ...] = STRUCTURES
    ps_kinds: tuple[str, ...] = ("ideal", "active", "passive")
    links: tuple[str, ...] = LINKS
    duplexes: tuple[str, ...] = DUPLEX_MODES
    snr_db_grid: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    sigma_e_grid: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    cee_snrs_db: tuple[float, ...] = (10.0, 20.0)
    cee_ps_kinds: tuple[str, ...] = ("active", "passive")
    sic_chain_counts: tuple[int, ...] = (2, 4, 8)
    sic_snr_db: float = 15.0

    # [run] orchestration
    experiments: tuple[str, ...] = EXPERIMENTS
    trials: int = 200
    master_seed: int = 1
    threads: int = 1

    @property
    def tx_rf_chains(self) -> int:
        """One transmit chain per downlink stream, and one stream per user."""
        return self.users

    @property
    def donor_elements(self) -> int:
        return self.donor_rows * self.donor_cols

    @property
    def iab_elements(self) -> int:
        return self.iab_rows * self.iab_cols

    @property
    def user_elements(self) -> int:
        return self.user_rows * self.user_cols

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def angle_spread_rad(self) -> float:
        return math.radians(self.angle_spread_deg)

    @property
    def access_angle_spread_rad(self) -> float:
        return math.radians(self.access_angle_spread_deg)

    def validate(self) -> None:
        """Raise ConfigurationError naming the violated rule."""
        def require(ok: bool, rule: str, detail: str):
            if not ok:
                raise ConfigurationError(f"{rule}: {detail}")

        require(self.schema_version == SCHEMA_VERSION, "schema-version",
                f"expected {SCHEMA_VERSION}, got {self.schema_version}")
        for f in fields(self):
            value = getattr(self, f.name)
            values = tuple(value) if f.type.startswith("tuple") else (value,)
            # every integer setting is a count, except the schema version and the seed
            if f.type == "int" and f.name not in ("schema_version", "master_seed"):
                require(value >= 1, "positive-counts", f"{f.name} must be >= 1, got {value}")
            if f.type in ("float", "tuple[float, ...]"):
                # an infinite Rician factor is the pure line-of-sight SI channel
                finite = all(math.isfinite(v) or (f.name == "si_rician_db" and v == math.inf)
                             for v in values)
                require(finite, "finite-values", f"{f.name} must be finite, got {value}")
            # a repeated grid point or selection repeats its rows
            require(len(set(values)) == len(values), "distinct-values",
                    f"{f.name} repeats a value: {value}")
        require(self.element_spacing > 0, "spacing-positive",
                f"element spacing must be positive, got {self.element_spacing}")
        require(self.carrier_hz > 0, "carrier-positive",
                f"carrier frequency must be positive, got {self.carrier_hz}")
        require(self.num_taps <= self.subcarriers, "taps-within-cp",
                f"{self.num_taps} taps exceed {self.subcarriers} subcarriers")
        require(self.iab_elements % self.users == 0, "subarray-divisibility",
                f"{self.users} users do not divide {self.iab_elements} IAB elements")
        require(self.donor_elements % self.users == 0, "subarray-divisibility",
                f"{self.users} users do not divide {self.donor_elements} donor elements")
        # the receive panel sits beside the transmit panel along the columns
        require(self.panel_separation_wavelengths > (self.iab_cols - 1) * self.element_spacing,
                "panel-separation", f"{self.panel_separation_wavelengths} wavelengths do not "
                f"clear a {self.iab_cols}-column panel at {self.element_spacing} spacing")
        fig6 = "fig6" in self.experiments
        # only fig6 designs with the chain counts of its own sweep
        chain_counts = {self.rx_chains_per_subarray} | set(self.sic_chain_counts if fig6 else ())
        for l in chain_counts:
            require(l >= 2, "rf-chain-rule",
                    f"{self.users}x{l} receive chains cannot separate "
                    f"{self.users} received plus {self.users} transmitted streams")
            require(self.users * l <= self.iab_elements, "rf-chain-rule",
                    "more receive RF chains than IAB antennas")
        # each backhaul RF stage draws its eigenvectors from the path-space
        # covariance: a fully connected receive stage (fig6 designs one in
        # any case) needs users * L of them, a subarray block its own L
        eigvecs = [self.users]
        if "fully-connected" in self.structures or fig6:
            eigvecs.append(self.users * self.rx_chains_per_subarray)
        if "subarray" in self.structures:
            eigvecs.append(self.rx_chains_per_subarray)
        if fig6:
            eigvecs += self.sic_chain_counts
        paths, needed = self.clusters * self.rays_per_cluster, max(eigvecs)
        require(paths >= needed, "path-count",
                f"{paths} backhaul paths cannot supply {needed} RF-stage eigenvectors")
        require(self.access_clusters * self.access_rays_per_cluster >= self.users,
                "path-count", "too few access rays to support the user count")
        require(self.backhaul_distance_m >= 1.0 and self.cee_backhaul_distance_m >= 1.0
                and self.sic_backhaul_distance_m >= 1.0,
                "ci-reference-distance", "link distances must be >= 1 m")
        require(self.sic_db >= 0.0, "sic-nonnegative", f"got {self.sic_db}")
        require(self.angle_spread_deg >= 0.0 and self.access_angle_spread_deg >= 0.0,
                "angle-spread-nonnegative",
                f"got {self.angle_spread_deg} and {self.access_angle_spread_deg}")
        require(all(s >= 0.0 for s in self.sigma_e_grid), "sigma-e-nonnegative",
                f"got {self.sigma_e_grid}")
        require(0.0 <= self.pulse_rolloff <= 1.0, "rolloff-range", f"got {self.pulse_rolloff}")
        for value, allowed, rule in (
            (self.structures, STRUCTURES, "structure-valid"),
            (self.ps_kinds, PS_KINDS, "ps-kind-valid"),
            (self.cee_ps_kinds, PS_KINDS, "ps-kind-valid"),
            (self.links, LINKS, "link-valid"),
            (self.duplexes, DUPLEX_MODES, "duplex-valid"),
            (self.experiments, EXPERIMENTS, "experiment-valid"),
        ):
            require(len(value) > 0, rule, "empty selection")
            for item in value:
                require(item in allowed, rule, f"{item!r} not in {allowed}")
        for grid_name, grid in (("snr_db_grid", self.snr_db_grid),
                                ("sigma_e_grid", self.sigma_e_grid),
                                ("cee_snrs_db", self.cee_snrs_db),
                                ("sic_chain_counts", self.sic_chain_counts)):
            require(len(grid) > 0, "grids-nonempty", f"{grid_name} is empty")


# each INI section holds the fields declared from its first field up to the
# next section's first field
_SECTION_STARTS = {"meta": "schema_version", "system": "subcarriers", "channel": "clusters",
                   "sweep": "structures", "run": "experiments"}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _sections() -> dict[str, tuple[str, ...]]:
    names = list(_FIELD_TYPES)
    starts = [names.index(first) for first in _SECTION_STARTS.values()] + [len(names)]
    return {section: tuple(names[a:b])
            for section, a, b in zip(_SECTION_STARTS, starts, starts[1:])}


_SECTIONS = _sections()


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind.startswith("tuple[str"):
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        if kind.startswith("tuple[int"):
            return tuple(int(part) for part in raw.split(",") if part.strip())
        if kind.startswith("tuple[float"):
            return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad-value: cannot parse {name} = {raw!r}") from exc
    raise ConfigurationError(f"bad-value: unsupported field type for {name}")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        # short text where it reads back exactly, the shortest exact text otherwise
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def load_config(path) -> ExperimentConfig:
    """Read an INI config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown-section: [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown-key: {key} in [{section}]")
            overrides[key] = _parse_value(key, raw)
    return replace(ExperimentConfig(), **overrides)


def dump_config(cfg: ExperimentConfig) -> str:
    """Render a config as INI text with every key written out."""
    parser = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _format_value(getattr(cfg, key)) for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
