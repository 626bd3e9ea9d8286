"""Low-rank coordinate ascent for diagonally constrained SDPs.

The solver maximizes <A, S S^T> over factor matrices S with unit rows by
exact one-row updates, escapes saddle points with a Lanczos curvature step,
certifies solution quality through a spectral dual bound, and rounds factors
to sign vectors by random hyperplanes.

Names not exported here are reached as bmcut.<module>.<name>.
"""

from .bcm import SolverConfig, init_cache, run
from .certify import approx_report, dual_upper_bound, round_cut
from .errors import DimensionError, NumericalError, ParseError, ValidationError
from .escape import EscapeConfig, escape_ascent_floor, run_bcm2
from .manifold import FactorPoint, load_point, random_point, save_point
from .problem import (ProblemInstance, gen_erdos_renyi, gen_gaussian,
                      load_instance, preprocess, write_edge_list,
                      write_matrix_market)

__version__ = "0.1.0"
