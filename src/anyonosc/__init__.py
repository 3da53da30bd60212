"""Lindblad dynamics of anyonic oscillators: closed-form relaxation rates, the
two-mode effective dissipative matrix with exceptional-point analysis, and
third-order rephasing 2D spectra, validated against a truncated-Fock-space
Liouvillian oracle."""

__version__ = "0.1.0"

from .params import AnyonParams, ParamArrays, ParameterError
from .rates import (deformed_commutator_eigenvalue, gamma_full_single,
                    gamma_stat, phase_average, thermal_occupation)
from .dimer import (EffectiveMatrix, EPResult, build_weff, channel_coefficients,
                    find_exceptional_point, normal_mode_frequencies)
from .fock import (FockSystem, anyon_ladder_matrix, build_hamiltonian,
                   build_liouvillian, fit_decay_rate, resolvent_apply)
from .spectra import (GridSpec, SpectrumGrid, bright_mode_overlay, build_dipole,
                      diagonal_slice, lineshape_metrics, rephasing_response)
from .output import SweepResult
from .sweeps import (ConfigError, RunConfig, config_from_dict, load_config,
                     run_fig1, run_fig2, run_fig3, run_sweep)

__all__ = [
    "AnyonParams", "ParamArrays", "ParameterError",
    "deformed_commutator_eigenvalue", "thermal_occupation", "phase_average",
    "gamma_stat", "gamma_full_single",
    "EffectiveMatrix", "EPResult", "normal_mode_frequencies",
    "channel_coefficients", "build_weff", "find_exceptional_point",
    "FockSystem", "anyon_ladder_matrix", "build_hamiltonian", "build_liouvillian",
    "resolvent_apply", "fit_decay_rate",
    "GridSpec", "SpectrumGrid", "build_dipole", "rephasing_response",
    "diagonal_slice", "lineshape_metrics", "bright_mode_overlay",
    "RunConfig", "SweepResult", "ConfigError", "config_from_dict", "load_config",
    "run_fig1", "run_fig2", "run_fig3", "run_sweep",
]
