"""grazemap: reflected flow maps and grazing sets for convex obstacles.

Numerical machinery for waves grazing a convex obstacle: reflected rays and
the reflected flow map with analytic Jacobians, sampling verification of the
flow-map assumptions, grazing-curve tracing and classification, and the
closed-form example curves that anchor the test suite.
"""

from .diffgeo import (ConcavityReport, DomainExceeded, GenericSmooth, GrazemapError,
                      InvalidArgument, MultiPoly, NotNormalized, Obstacle, OrderTooHigh,
                      PolynomialSurface, SymmetricH, UnsupportedSurface, ZeroVector,
                      check_strict_concavity, polynomial_obstacle,
                      rotate_coordinates, sphere_obstacle)
from .grazing import (GrazingCurve, GsReport, OrderClassification,
                      PlanarGrazing, RegularityEstimate, SliceCount,
                      SphericalGrazing, SymmetricZeta, check_u1ww,
                      classify_order, estimate_regularity,
                      grazing_function_for, grazing_zero_scan_1d, gs_assumption_report,
                      shadow_boundary_flowout, slice_grazing_count,
                      symmetric_zeta, trace_grazing_curve)
from .phases import (BoundaryCovector, ConvexPhase, PlanePhase, SphericalPhase,
                     boundary_trace, boundary_trace_gradient,
                     boundary_trace_hessian, convexity_check, eikonal_residual,
                     validate_phase, xi_incoming, xi_jacobian)
from .reflection import (MAX_BUDGET, BoundaryClassification, FlowSample, GrazingSingular,
                         JacobianReport, NoConvergence, NonFiniteMargin, OutsideRange,
                         RfmVerdict, ShadowPoint,
                         classify_boundary_point, flow_map, invert_flow,
                         jacobian_analytic, jacobian_fd, reflect_direction,
                         reflected_phase_at, tangency_margin, verify_rfm,
                         xi_reflected)
from .specio import SpecError, parse_obstacle, parse_phase

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
