"""Low-rank coordinate ascent for diagonally constrained SDPs.

The solver maximizes <A, S S^T> over factor matrices S with unit rows by
exact one-row updates, escapes saddle points with a Lanczos curvature step,
certifies solution quality through a spectral dual bound, and rounds factors
to sign vectors by random hyperplanes.
"""

from .bcm import (GradientCache, SolveTrace, SolverConfig, TraceRecord,
                  bcm_step, default_grad_tol, init_cache, refresh_cache, run,
                  select_coordinate)
from .certify import (Certificate, Cut, approx_report, cut_value,
                      dual_upper_bound, round_cut)
from .errors import (DimensionError, NumericalError, ParseError,
                     TrivialInstanceError, ValidationError)
from .escape import (EscapeConfig, LanczosResult, TridiagonalForm,
                     escape_ascent_floor, escape_threshold, lanczos_budget,
                     lanczos_leading, run_bcm2, second_order_step)
from .manifold import (FactorPoint, exp_map, grad_metric_sq, hess_quadratic,
                       load_point, random_point, riemannian_gradient,
                       save_point)
from .problem import (ProblemInstance, gen_erdos_renyi, gen_gaussian,
                      load_instance, preprocess, write_edge_list,
                      write_matrix_market)

__version__ = "0.1.0"
