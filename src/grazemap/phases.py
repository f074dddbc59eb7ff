"""Incoming phase families -t + psi(x) and the boundary covector field.

psi solves the eikonal equation (d_x1 psi)^2 + |grad psi|^2 = 1 and is convex;
plane waves take psi = theta . x, spherical waves psi = |x - b|, and general
convex waves are supplied as value+gradient providers (the built-in example is
the signed distance to a sphere).  The incoming covector at a boundary point
(F(xbar), xbar) is the full spatial gradient of psi there.

``grad_psi``, ``xi_incoming`` and ``xi_jacobian`` take one point or a batch
with a leading axis m; a batch entry equals the single-point result bit for
bit.  Norms are ``np.sqrt(_rowdot(x, x))``, the arithmetic of
``np.linalg.norm`` on one vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffgeo import (DomainExceeded, GrazemapError, InvalidArgument, Obstacle, _outer, _per_row,
                      _richardson, _rowdot)


class SourceOnBoundary(GrazemapError, ValueError):
    """Spherical source coincides with the evaluation point."""


class PhaseValidationError(GrazemapError, ValueError):
    """Opt-in construction validation (eikonal / convexity) failed."""


@dataclass(frozen=True)
class BoundaryCovector:
    """Unit covector (xi1, xibar) attached to the boundary point over xbar.

    For a batch of m points every field carries a leading m axis: xbar
    (m, d), xi1 (m,), xibar (m, d), point (m, d + 1).
    """

    xbar: np.ndarray
    xi1: float
    xibar: np.ndarray
    point: np.ndarray | None = None  # (F(xbar), xbar), when the field evaluated it

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate((_per_row(self.xi1), self.xibar), axis=-1)

    @property
    def norm(self):
        return np.sqrt(self.xi1**2 + _rowdot(self.xibar, self.xibar))


@dataclass(frozen=True)
class PlanePhase:
    """psi(x) = theta . x for a unit direction theta."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        n = np.linalg.norm(self.theta)
        if abs(n - 1.0) > 1e-12:
            raise PhaseValidationError(f"|theta| = {n}, expected a unit vector")

    def psi(self, x) -> float:
        return float(self.theta @ np.asarray(x, dtype=float))

    def grad_psi(self, x) -> np.ndarray:
        return np.broadcast_to(self.theta, np.shape(x)).copy()


@dataclass(frozen=True)
class SphericalPhase:
    """psi(x) = |x - source| for a point source off the obstacle."""

    source: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source", np.asarray(self.source, dtype=float))

    def psi(self, x) -> float:
        r = float(np.linalg.norm(np.asarray(x, dtype=float) - self.source))
        if r == 0.0:
            raise SourceOnBoundary("evaluation point coincides with the source")
        return r

    def grad_psi(self, x) -> np.ndarray:
        return _unit_from(np.asarray(x, dtype=float) - self.source,
                          "evaluation point coincides with the source")


@dataclass(frozen=True)
class ConvexPhase:
    """General convex eikonal phase from a value+gradient provider.

    Providers must be safe for concurrent evaluation; this is a requirement
    on plugins, not enforced here.
    """

    value_fn: object = field(compare=False)
    grad_fn: object = field(compare=False)
    name: str = "convex"

    def psi(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def grad_psi(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and not getattr(self.grad_fn, "_takes_batches", False):
            # A user provider sees one point at a time.
            return np.array([self.grad_fn(p) for p in x], dtype=float).reshape(x.shape)
        return np.asarray(self.grad_fn(x), dtype=float)

    @classmethod
    def distance_to_sphere(cls, center, radius: float) -> "ConvexPhase":
        """Signed distance below the sphere |x-center| = radius (negative inside)."""
        center = np.asarray(center, dtype=float)

        def value(x):
            return float(np.linalg.norm(x - center)) - radius

        def grad(x):
            return _unit_from(x - center, "evaluation point at the sphere center")

        grad._takes_batches = True
        return cls(value_fn=value, grad_fn=grad, name=f"dist-sphere(r={radius})")


def _unit_from(d: np.ndarray, what: str) -> np.ndarray:
    """d / |d| for one vector or per row of a batch; a zero row raises."""
    r = np.sqrt(_rowdot(d, d))
    if d.ndim == 2:  # each row by its own norm
        if (r == 0.0).any():
            raise SourceOnBoundary(what)
        return d / r[:, None]
    if r == 0.0:
        raise SourceOnBoundary(what)
    return d / r


Phase = PlanePhase | SphericalPhase | ConvexPhase


# ---------------------------------------------------------------------------
# Boundary covector field
# ---------------------------------------------------------------------------

def xi_incoming(phase: Phase, obstacle: Obstacle, xbar) -> BoundaryCovector:
    """Incoming unit covector at the boundary point over xbar (d,), or over
    each row of a batch (m, d)."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    point = obstacle.boundary_point(xbar)
    g = phase.grad_psi(point)
    return BoundaryCovector(xbar, g[..., 0], g[..., 1:], point)


def _richardson_step(obstacle: Obstacle, xbar):
    """Step for 4th-order differencing: rounding-optimal, at most half the
    distance to the domain edge, so every difference point stays inside.
    One step per row of a batch."""
    h = 3e-4 * np.maximum(1.0, np.max(np.abs(xbar), axis=-1))
    room = obstacle.radius - np.sqrt(_rowdot(xbar, xbar))
    if np.any(room <= 0.0):
        worst = np.asarray(xbar).reshape(-1, obstacle.dim_tangential)[np.argmin(room)]
        raise DomainExceeded(f"xbar = {worst.tolist()} leaves no room for "
                             f"differences inside radius {obstacle.radius}")
    return np.minimum(h, 0.5 * room)


def xi_jacobian(phase: Phase, obstacle: Obstacle, xbar) -> tuple[np.ndarray, np.ndarray]:
    """Tangential derivatives of the incoming covector field.

    Returns (grad xi1, d xibar / d xbar), with a leading m axis for a batch
    (m, d).  Closed forms for plane and spherical phases; central
    differences otherwise.
    """
    xi = xi_incoming(phase, obstacle, xbar)
    return _xi_jacobian(phase, obstacle, xi, obstacle.gradient(xi.xbar))


def _xi_jacobian(phase: Phase, obstacle: Obstacle, xi: BoundaryCovector, grad_f):
    """``xi_jacobian`` from the covector and grad F already assembled there."""
    xbar = xi.xbar
    lead = xbar.shape[:-1]
    d = obstacle.dim_tangential
    if isinstance(phase, PlanePhase):
        return np.zeros(lead + (d,)), np.zeros(lead + (d, d))
    if isinstance(phase, SphericalPhase):
        # xi_incoming has already refused a boundary point at the source.
        rel = xi.point - phase.source
        rho = _per_row(np.sqrt(_rowdot(rel, rel)))
        a1 = rel[..., :1] / rho
        abar = rel[..., 1:] / rho
        grad_rho = a1 * grad_f + abar
        d_abar = (np.eye(d) - _outer(abar, grad_rho)) / rho[..., None]
        d_a1 = (grad_f - a1 * grad_rho) / rho
        return d_a1, d_abar
    h = _richardson_step(obstacle, xbar)

    def covector(x):
        return xi_incoming(phase, obstacle, x).vector

    jac = _richardson(covector, xbar, h)
    return jac[..., 0, :], jac[..., 1:, :]


def boundary_trace(phase: Phase, obstacle: Obstacle, xbar) -> float:
    """psi restricted to the boundary, Psi(xbar) = psi(F(xbar), xbar), at one point (d,)."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if xbar.shape != (obstacle.dim_tangential,):
        raise InvalidArgument(f"boundary_trace takes one point of shape "
                              f"({obstacle.dim_tangential},), got {xbar.shape}")
    return phase.psi(obstacle.boundary_point(xbar))


def boundary_trace_gradient(phase: Phase, obstacle: Obstacle, xbar) -> np.ndarray:
    """grad Psi = xi1 grad F + xibar from the covector field, at xbar (d,) or per row (m, d)."""
    xi = xi_incoming(phase, obstacle, xbar)
    return _per_row(xi.xi1) * obstacle.gradient(xi.xbar) + xi.xibar


def boundary_trace_hessian(phase: Phase, obstacle: Obstacle, xbar) -> np.ndarray:
    """hess Psi by Richardson-extrapolated differences of the exact gradient,
    at one point (d,) or per row of a batch (m, d)."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    h = _richardson_step(obstacle, xbar)

    def grad(x):
        return boundary_trace_gradient(phase, obstacle, x)

    out = _richardson(grad, xbar, h)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def eikonal_residual(phase: Phase, points) -> float:
    """max | |grad psi|^2 - 1 | over the given full-space points, in one batched
    ``grad_psi``; NaN when any gradient is NaN."""
    g = phase.grad_psi(np.atleast_2d(np.asarray(points, dtype=float)))
    return float(np.max(np.abs(_rowdot(g, g) - 1.0), initial=0.0))


@dataclass(frozen=True)
class ConvexityVerdict:
    passed: bool
    min_margin: float
    worst_pair: tuple[np.ndarray, np.ndarray] | None


CONVEXITY_TOL = 1e-10  # most negative convexity margin that still passes
EIKONAL_TOL = 1e-9     # largest | |grad psi|^2 - 1 | validate_phase accepts


def convexity_check(phase: Phase, sample_pairs) -> ConvexityVerdict:
    """Check psi(z2) - psi(z1) >= <grad psi(z1), z2 - z1> on all ordered pairs."""
    min_margin = np.inf
    worst = None
    for z1, z2 in sample_pairs:
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        margin = phase.psi(z2) - phase.psi(z1) - float(phase.grad_psi(z1) @ (z2 - z1))
        if margin < min_margin or np.isnan(margin):  # a NaN margin sticks and fails
            min_margin, worst = margin, (z1, z2)
    return ConvexityVerdict(passed=bool(min_margin >= -CONVEXITY_TOL),
                            min_margin=float(min_margin), worst_pair=worst)


def validate_phase(phase: Phase, obstacle: Obstacle, n_points: int = 1000,
                   n_pairs: int = 10000, seed: int = 0) -> None:
    """Opt-in sampled eikonal + convexity validation; raises on failure."""
    rng = np.random.default_rng(seed)
    d = obstacle.dim_tangential
    xb = rng.uniform(-obstacle.radius, obstacle.radius, size=(n_points, d))
    xb = xb[np.linalg.norm(xb, axis=1) <= obstacle.radius]
    pts = obstacle.boundary_point(xb)
    res = eikonal_residual(phase, pts)
    if not res <= EIKONAL_TOL:  # NaN fails
        raise PhaseValidationError(f"eikonal residual {res} exceeds {EIKONAL_TOL}")
    idx = rng.integers(0, len(pts), size=(min(n_pairs, 4 * len(pts) ** 2), 2))
    verdict = convexity_check(phase, [(pts[i], pts[j]) for i, j in idx])
    if not verdict.passed:
        raise PhaseValidationError(f"convexity violated: margin {verdict.min_margin}")
