"""Pseudo-spectral laboratory for the fractional KdV / Burgers-Hilbert family."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DomainError, NumericError,
                     OracleDivergenceError, StepError)
from .spectral import (Field, Grid, MultiplierSymbol, apply_multiplier,
                       coordinate_multiply, frac_deriv, integrate, l2_norm,
                       line_spectrum, make_grid)
from .solver import (InitialCondition, SimConfig, Trajectory, linear_propagator,
                     picard_oracle, solve)
from .diagnostics import (DecayFit, decay_fit, invariants, moment_first, spectral_jump,
                          weighted_norm)
from .stein import (GrowthTable, ProbeParams, QuadSpec, SlopeFit, SteinRequest,
                    SteinResult, SteinTarget, nonmembership_scan, power_cutoff,
                    propagator_stein_bound, propagator_target, sign_propagator,
                    signed_power_cutoff, stein_derivative, stein_slope_fit,
                    weight_target)
from .experiments import (ExperimentReport, MetricEntry, run_convergence,
                          run_decay_threshold, run_moment_law, run_symmetry_checks,
                          run_tstar, run_two_time_bh, run_wave_breaking)
