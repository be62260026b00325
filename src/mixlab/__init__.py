"""Numerical laboratory for mixing and enhanced dissipation in model flows.

Build a model problem (shear, Kolmogorov, spiral swirl, kinetic), evolve
its viscous advection-diffusion flow spectrally, measure inviscid mixing
rates in dual Sobolev norms, sweep viscosities to extract
enhanced-dissipation time-scales, and check the explicit decay bounds the
rate formulas predict.
"""

__version__ = "0.1.0"  # set before the submodules, which record it

from .diagnostics import (
    BoundReport,
    RateFit,
    constant_c0_exp,
    constant_c0_poly,
    constant_c0_spiral,
    constant_cs,
    ed_exponent,
    exp_mixing_law,
    exp_mixing_nu_threshold,
    fit_decay_rate,
    fit_mixing_amplitude,
    fit_power_law,
    q_from_p,
    q_s_exponent,
    tau_threshold,
    theorem_bound_check,
    timescale_pairs,
)
from .evolution import (
    DecayTrace,
    EvolutionError,
    energy_residual,
    evolve,
    read_trace,
    step_viscous,
    write_trace,
)
from .models import (
    ModelProblem,
    build_model,
    exact_inviscid,
    fractional_symbol,
    initial_datum,
    load_profile_csv,
    shear_mixing_series,
    spiral_mixing_series,
)
from .sweep import RowResult, SweepConfig, SweepResult, load_sweep, run_sweep

__all__ = [
    "BoundReport", "DecayTrace", "EvolutionError", "ModelProblem",
    "RateFit", "RowResult", "SweepConfig", "SweepResult",
    "build_model", "constant_c0_exp", "constant_c0_poly",
    "constant_c0_spiral", "constant_cs", "ed_exponent", "energy_residual",
    "evolve", "exact_inviscid", "exp_mixing_law", "exp_mixing_nu_threshold",
    "fit_decay_rate", "fit_mixing_amplitude", "fit_power_law",
    "fractional_symbol", "initial_datum", "load_profile_csv", "load_sweep",
    "q_from_p", "q_s_exponent", "read_trace",
    "run_sweep", "shear_mixing_series", "spiral_mixing_series",
    "step_viscous", "tau_threshold", "theorem_bound_check",
    "timescale_pairs", "write_trace",
]
