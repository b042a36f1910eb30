"""Simulation and analysis toolkit for congestion-limited range expansion.

The density of an immobile population grows locally and spills into nearby
cells only from fully saturated regions.  The package integrates the smooth
finite-pressure model and its saturated limit, computes traveling-wave
profiles with the minimal spreading speed, and provides experiment harnesses
for the structural properties of the dynamics (monotonicity, comparison,
support confinement, spreading at the minimal speed).
"""

from .analysis import (ComparisonReport, ConfinementReport, CounterexampleReport,
                       FrontTrack, GammaConvergenceStudy, SpeedEstimate,
                       comparison_counterexample, comparison_harness,
                       estimate_speed, gamma_convergence_study,
                       subsolution_gap, support_confinement_check, track_fronts,
                       upper_envelope_gap)
from .config import ConfigError, RunConfig, build_initial_field, load_config
from .dynamics import (GridField, ModelParams, RunResult, discrete_lipschitz,
                       gradient_tv_surrogate, grid_field, local_production,
                       model_rhs, obstacle_residual, rhs_gamma, rhs_singular,
                       run, saturated_mask, stability_cap, step)
from .errors import BracketError, InvariantViolation, ScientificError
from .growth import (GainLaw, GrowthError, GrowthLaw, constant_gain,
                     linear_growth, logistic_growth, tabulated_gain,
                     tabulated_growth)
from .kernels import (CapInequalityReport, ConvolutionStencil,
                      FrontKernelProfile, Kernel, KernelError, QuadratureError,
                      add_to_mask_convolution, ball_convolution_on_ray, build_kernel,
                      check_cap_inequality, convolve_dense, convolve_field,
                      convolve_mask, front_profile)
from .waves import (MinimalSpeedResult, WaveProfile, export_wave, find_c_star,
                    monotone_in_c_check, sample_wave, shoot_profile)

__version__ = "0.1.0"
