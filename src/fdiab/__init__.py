"""Link-level simulator for full-duplex mmWave integrated access and backhaul.

Wideband clustered channels, a near-field self-interference model, hybrid
(phase-shifter plus per-subcarrier baseband) transceiver design with
zero-forcing multiuser precoding and MMSE interference suppression, RF
insertion-loss budgets, and a seeded Monte Carlo sweep harness.
"""

from .arrays import (ArrayGeometry, aperture_diameter, element_positions,
                     near_field_radius, partition_subarrays, steering_matrix,
                     upa_steering)
from .channel import (ClusterConfig, ClusterGeometry, PathChannel, SiChannelConfig,
                      SiChannelParts, ci_path_loss, draw_cee_noise, near_field_los,
                      perturb_effective_channel, raised_cosine, sample_cluster_geometry,
                      si_channel_parts)
from .config import ExperimentConfig, dump_config, load_config, save_config
from .errors import (ConfigurationError, DegenerateInputError, DimensionError,
                     DomainError, FdiabError, NearSingularError)
from .harness import (SweepResult, aggregate_figure, derive_seed, read_csv,
                      run_experiment, write_csv, write_figure_csv)
from .link import SeResult, SnrPoint, duplex_rates, se_access
from .rfil import RfilBudget, RfNetwork, loss_fully_connected
from .scenario import (AccessLinkDesign, BackhaulLink, BackhaulLinkDesign, Realization,
                       Scenario, build_scenario, draw_realization, full_digital_backhaul_se)
from .transceiver import (normalize_power, phase_project, top_eigvecs_factored,
                          zf_bb_precoder)

__version__ = "0.1.0"
