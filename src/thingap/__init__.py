"""Numerical verification suite for gradient blow-up in narrow gaps.

Solves elliptic systems (including plane-strain elasticity) in the thin
region between two nearly touching boundaries and measures how the solution
gradient scales as the gap closes: blow-up rate at the neck, envelope
constants across the strip, and the energy of the remainder after removing
the explicit singular part.
"""

from .geometry import GapGeometry, GeometryError, LocalRegion
from .coefficients import (CoefficientSet, EllipticityError, LameParameters,
                           check_ellipticity, check_holder, holder_demo_coefficients,
                           identity_coefficients, lame_as_general, lame_tensor)
from .auxiliary import (BoundaryData, ConfigurationError, check_seminorm_growth,
                        field_gradients, field_values, gap_fraction, gap_fraction_gradient,
                        holder_seminorm, seminorm_growth_rhs)
from .mesh import Mesh, MeshError, generate, refine, refine_layers, refine_stations
from .solver import (AssembledSystem, BoundaryAssignment, DiscreteSolution,
                     RightHandSide, SolverError, assemble, dirichlet_values,
                     grid_distance, gradient_at, l2_norm, solve_dirichlet, value_at)
from .oracle import AffineCase, OracleError, brute_force_seminorm, finite_difference_reference
from .verify import (Check, PlanError, SweepPlan, center_law, check_coefficients,
                     check_energy_scaling, check_geometry, check_oracles, check_prop21, fit_rate,
                     max_over_min, probe_points, remainder_energy, run_solve, run_sweep)

__version__ = "0.1.0"
