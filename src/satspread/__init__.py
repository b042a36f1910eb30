"""Simulation and analysis toolkit for congestion-limited range expansion.

The density of an immobile population grows locally and spills into nearby
cells only from fully saturated regions.  The package integrates the smooth
finite-pressure model and its saturated limit, computes traveling-wave
profiles with the minimal spreading speed, and runs the studies of its
subcommands: spreading at the minimal speed with support confinement, the
ordered-pair comparison and the stiff-pressure limit.  The checks of the
paper's other claims (envelopes, the cap inequality, the counterexample to
order, the obstacle form) and the full-grid stepping oracle are test
harnesses, kept beside the tests.
"""

from .analysis import (ComparisonReport, ConfinementReport, FrontTrack,
                       GammaConvergenceStudy, SpeedEstimate, comparison_harness,
                       estimate_speed, gamma_convergence_study,
                       support_confinement_check, track_fronts)
from .config import ConfigError, RunConfig, build_initial_field, load_config
from .dynamics import (GridField, ModelParams, RunResult, discrete_lipschitz,
                       grid_field, model_rhs, rhs_gamma, run, saturated_mask,
                       stability_cap)
from .errors import BracketError, InvariantViolation, ScientificError
from .growth import (GrowthError, GrowthLaw, linear_growth, logistic_growth,
                     tabulated_growth)
from .kernels import (ConvolutionStencil, FrontKernelProfile, Kernel, KernelError,
                      QuadratureError, add_to_mask_convolution, build_kernel,
                      convolve_dense, convolve_field, front_profile)
from .waves import (MinimalSpeedResult, WaveProfile, find_c_star, sample_wave,
                    shoot_profile)

__version__ = "0.1.0"
