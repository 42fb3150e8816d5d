"""Energy-change statistics for a periodically pulsed, driven qubit.

The package models a two-level system under two drive families (a
fixed-axis amplitude ramp and a rotating transverse field), interrupted
by stochastic reset pulses, and evaluates two-point energy statistics
both exactly (affine Bloch maps) and by trajectory sampling.
"""

from .channel import (DegenerateChannelError, PulseChannelParams,
                      apply_pulse_map, channel_fixed_point,
                      invert_pump_probability, stationary_upper_population)
from .core import (AmplitudeModulatedDrive, EigenSystem, PhaseRotatingDrive,
                   QubitState, ThermalContext, bloch_rotation, evolve_unitary,
                   free_energy_delta, gibbs_population,
                   instantaneous_eigensystem, partition_function,
                   phase_integral)
from .montecarlo import (EnsembleStats, IncompleteEnsembleError, fr_std_err,
                         mean_energy_std_err, run_ensemble, run_trajectories)
from .oracle import (WorkHeatSeries, floquet_asymptote,
                     floquet_population_recursion, floquet_recursion_gap,
                     invert_pump_closed_form, irreversible_work_relative_entropy,
                     k_factor, k_factor_projective, mean_heat_phase,
                     population_after_n_pulses, rabi_conditional,
                     work_heat_series_amplitude, w_irr)
from .protocol import (ConditionalMatrix, EnergyChangeDistribution, FrReport,
                       ProtocolConfig, beta_reservoir, conditional_fixed_point,
                       conditional_matrices, conditional_matrix,
                       energy_change_distribution, first_law_check,
                       fr_functional, fr_report, fr_target,
                       initial_probabilities, mean_trajectory, pulses_applied)
from .scenarios import (PRESETS, ConfigError, NumericalContractError,
                        ScenarioConfig, get_preset, list_presets, load_config,
                        resolve, run_scenario, with_overrides)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeModulatedDrive", "ConditionalMatrix", "ConfigError",
    "DegenerateChannelError", "EigenSystem", "EnergyChangeDistribution",
    "EnsembleStats", "FrReport", "IncompleteEnsembleError",
    "NumericalContractError", "PRESETS", "PhaseRotatingDrive",
    "ProtocolConfig", "PulseChannelParams", "QubitState", "ScenarioConfig",
    "ThermalContext", "WorkHeatSeries", "apply_pulse_map", "beta_reservoir",
    "bloch_rotation", "channel_fixed_point", "conditional_fixed_point",
    "conditional_matrices", "conditional_matrix",
    "energy_change_distribution", "evolve_unitary",
    "first_law_check", "floquet_asymptote", "floquet_population_recursion",
    "floquet_recursion_gap", "fr_functional", "fr_report", "fr_std_err",
    "fr_target", "free_energy_delta", "get_preset", "gibbs_population",
    "initial_probabilities", "instantaneous_eigensystem",
    "invert_pump_closed_form", "invert_pump_probability",
    "irreversible_work_relative_entropy", "k_factor", "k_factor_projective",
    "list_presets", "load_config", "mean_energy_std_err", "mean_heat_phase",
    "mean_trajectory", "partition_function", "phase_integral",
    "population_after_n_pulses", "pulses_applied",
    "rabi_conditional", "resolve", "run_ensemble", "run_scenario",
    "run_trajectories", "stationary_upper_population", "w_irr",
    "with_overrides", "work_heat_series_amplitude",
]
