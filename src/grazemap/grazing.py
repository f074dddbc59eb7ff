"""Grazing sets: defining functions, curve tracing, and classification.

The grazing set of an incoming wave is where its rays touch the obstacle
tangentially.  Its tangential projection is the zero set of a scalar
function: for spherical sources F - 1 - grad F . (xbar - bbar), for plane
waves grad G . theta with G = 1 - F, and for symmetric profiles a regularized
quotient form.  This module traces that zero set with a predictor-corrector
continuation, classifies the order of tangency at the apex from exact Taylor
data, estimates the regularity of the traced curve from a log-log fit, and
counts grazing points on transverse slice curves (the no-branching check).
All curve verdicts are numerical evidence, never proofs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .diffgeo import (J_MAX_DEFAULT, GrazemapError, InvalidArgument, MultiPoly, NotNormalized,
                      Obstacle, PolynomialSurface, SymmetricH, UnsupportedSurface, ZeroVector,
                      _as_points, _finite, _matvec, _per_row, _rowdot, _vector, rotate_coordinates)
from .phases import BoundaryCovector, Phase, PlanePhase, SphericalPhase, xi_incoming
from .reflection import classify_boundary_point


class SeedNotFound(GrazemapError, RuntimeError):
    """No sign change of the grazing function near the seed offsets."""

    exit_code = 3


class StepCollapse(GrazemapError, RuntimeError):
    """Continuation correction kept failing below the minimum step."""

    exit_code = 3

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"correction failed below minimum step near {self.point}")


class InsufficientPoints(GrazemapError, ValueError):
    """Too few traced vertices inside the fit window."""

    exit_code = 3


class SliceMiss(GrazemapError, ValueError):
    """Slice curve does not intersect the traced window as required."""

    exit_code = 3


class NotHomogeneous(GrazemapError, ValueError):
    """check_u1ww input must be a homogeneous polynomial of even degree."""


# ---------------------------------------------------------------------------
# Grazing defining functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalGrazing:
    """H(xbar) = F(xbar) - 1 - grad F(xbar) . (xbar - bbar), for a source at (1, bbar).

    Negative on the illuminated side (H = -rho * margin).
    """

    bbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bbar", _vector(self.bbar, "bbar"))

    def value(self, obstacle: Obstacle, x):
        """H at one point (d,) -> float, or per row of a batch (m, d) -> (m,)."""
        _check_vector(self, obstacle)
        x = obstacle._check_domain(x)
        return (obstacle._on_surface(obstacle.surface.value, x, ()) - 1.0
                - _rowdot(obstacle._gradient(x), x - self.bbar))

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        """grad H at one point (d,) -> (d,), or per row of a batch (m, d) -> (m, d)."""
        _check_vector(self, obstacle)
        x = _as_points(x)
        return _matvec(-obstacle.hessian(x), x - self.bbar)

    def _value_grad(self, obstacle: Obstacle, x0: float, x1: float) -> tuple:
        """(H, dH/dx0, dH/dx1) at one plane point, on floats from one surface jet."""
        f, (g0, g1), ((h00, h01), (h10, h11)) = obstacle._jet_at([x0, x1], 2)
        b0, b1 = self.bbar.tolist()
        d0, d1 = x0 - b0, x1 - b1
        return f - 1.0 - (g0 * d0 + g1 * d1), -(h00 * d0 + h01 * d1), -(h10 * d0 + h11 * d1)


@dataclass(frozen=True)
class PlanarGrazing:
    """g(xbar) = grad G . thetabar with G = 1 - F (source at infinity).

    Sign convention matches SphericalGrazing: negative on the illuminated
    side, since grad G . thetabar = -(grad F . thetabar) = -margin.
    """

    thetabar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetabar", _vector(self.thetabar, "thetabar"))

    def value(self, obstacle: Obstacle, x):
        """g at one point (d,) -> float, or per row of a batch (m, d) -> (m,)."""
        _check_vector(self, obstacle)
        return _rowdot(-obstacle.gradient(x), self.thetabar)

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        _check_vector(self, obstacle)
        return -obstacle.hessian(x) @ self.thetabar

    def _value_grad(self, obstacle: Obstacle, x0: float, x1: float) -> tuple:
        """(g, dg/dx0, dg/dx1) at one plane point, on floats from one surface jet."""
        _, (g0, g1), ((h00, h01), (h10, h11)) = obstacle._jet_at([x0, x1], 2)
        t0, t1 = self.thetabar.tolist()
        return -(g0 * t0 + g1 * t1), -(h00 * t0 + h01 * t1), -(h10 * t0 + h11 * t1)


@dataclass(frozen=True)
class SymmetricZeta:
    """zeta(xbar) = -h/h'(|L xbar|^2) + 2|L xbar|^2 - 2 (L xbar).(L bbar).

    Same zero set as the spherical form on symmetric profiles, but C1 through
    the apex with gradient -2 L^T L bbar there.
    """

    bbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bbar", _vector(self.bbar, "bbar"))

    def value(self, obstacle: Obstacle, x):
        """zeta at one point (d,) -> float, or per row of a batch (m, d) -> (m,),
        each row bit for bit the point's."""
        _check_vector(self, obstacle)
        surf = _symmetric_surface(obstacle)
        x = obstacle._check_domain(x)
        y = _matvec(surf.lam, np.atleast_2d(x))
        s = _rowdot(y, y)
        live = s != 0.0  # zeta is 0 at the apex
        out = np.zeros(len(s))
        out[live] = (-surf.h_ratio(s[live]) + 2.0 * s[live]
                     - _rowdot(2.0 * y[live], surf.lam @ self.bbar))
        return float(out[0]) if x.ndim == 1 else out

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        """grad zeta at one point (d,) -> (d,), or per row of a batch (m, d) -> (m, d),
        each row bit for bit the point's."""
        _check_vector(self, obstacle)
        surf = _symmetric_surface(obstacle)
        x = obstacle._check_domain(x)
        rows = np.atleast_2d(x)
        ltl = surf.lam.T @ surf.lam
        y = _matvec(surf.lam, rows)
        s = _rowdot(y, y)
        live = s != 0.0
        out = np.empty(rows.shape)
        out[~live] = -2.0 * ltl @ self.bbar  # the apex, without h/h'
        # h_ratio_prime takes one float s at a time.
        scale = [(2.0 - surf.h_ratio_prime(v)) * 2.0 for v in s[live].tolist()]
        out[live] = _per_row(np.array(scale)) * _matvec(ltl, rows[live]) - 2.0 * ltl @ self.bbar
        return out[0] if x.ndim == 1 else out

    def _value_grad(self, obstacle: Obstacle, x0: float, x1: float) -> tuple:
        """(zeta, dzeta/dx0, dzeta/dx1) at one plane point: ``value`` and
        ``gradient`` there, as floats."""
        x = np.array([x0, x1])
        return self.value(obstacle, x), *self.gradient(obstacle, x).tolist()


GrazingFunction = SphericalGrazing | PlanarGrazing | SymmetricZeta


def _check_vector(gf: GrazingFunction, obstacle: Obstacle) -> None:
    """``InvalidArgument`` unless the vector of gf (bbar or thetabar) has one
    entry per tangential variable of the obstacle."""
    name = fields(gf)[0].name
    n = len(getattr(gf, name))
    if n != obstacle.dim_tangential:
        raise InvalidArgument(f"{name} has {n} entries, expected {obstacle.dim_tangential}")


def _symmetric_surface(obstacle: Obstacle) -> SymmetricH:
    if not isinstance(obstacle.surface, SymmetricH):
        raise UnsupportedSurface("operation requires a symmetric-profile surface")
    return obstacle.surface


def symmetric_zeta(obstacle: Obstacle, bbar, xbar) -> float:
    """Regularized grazing function for symmetric profiles; 0 at the apex."""
    return SymmetricZeta(bbar).value(obstacle, xbar)


def grazing_function_for(obstacle: Obstacle, phase: Phase) -> GrazingFunction:
    """Canonical defining function for the grazing set of a phase that grazes the apex."""
    if not isinstance(phase, SphericalPhase | PlanePhase):
        raise UnsupportedSurface("no closed-form grazing function for this phase family")
    _apex_covector(obstacle, phase)  # both forms hold only for a phase grazing the apex
    if isinstance(phase, SphericalPhase):
        return SphericalGrazing(bbar=phase.source[1:])
    return PlanarGrazing(thetabar=phase.theta[1:])


# ---------------------------------------------------------------------------
# Order of tangency at the apex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderClassification:
    kind: str                 # 'even' | 'odd' | 'at-least'
    order: int
    diffractive: bool | None  # for even orders: True if leading coefficient < 0
    coefficients: tuple
    direction: np.ndarray

    def describe(self) -> str:
        if self.kind == "at-least":
            return f"order >= {self.order} (treated as infinite)"
        if self.kind == "odd":
            return f"{self.order} inflection"
        return f"{self.order} {'diffractive' if self.diffractive else 'gliding'}"


ORDER_TOL = 1e-9  # Taylor coefficients below this fraction of the largest count as zero
APEX_TOL = 1e-12  # largest |xi1| at the apex of a phase that grazes there


def order_from_direction(obstacle: Obstacle, direction) -> OrderClassification:
    """Order of boundary contact of the ray through the apex along ``direction``.

    The order is the index of the first nonzero coefficient (at index >= 2)
    in the directional Taylor expansion of F at the apex, read up to
    J_MAX_DEFAULT; a coefficient counts as zero below ORDER_TOL relative to
    the largest one.  Exact polynomial surfaces make the tolerance moot; a
    ``GenericSmooth`` surface has no exact data and raises ``UnsupportedSurface``.
    """
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    coeffs = obstacle.directional_taylor(d, J_MAX_DEFAULT)
    scale = max(1.0, max((abs(c) for c in coeffs), default=0.0))
    for j in range(2, J_MAX_DEFAULT + 1):
        c = coeffs[j - 1]
        if abs(c) > ORDER_TOL * scale:
            if j % 2 == 0:
                return OrderClassification(kind="even", order=j, diffractive=bool(c < 0.0),
                                           coefficients=tuple(coeffs), direction=d)
            return OrderClassification(kind="odd", order=j, diffractive=None,
                                       coefficients=tuple(coeffs), direction=d)
    return OrderClassification(kind="at-least", order=J_MAX_DEFAULT, diffractive=None,
                               coefficients=tuple(coeffs), direction=d)


def _apex_covector(obstacle: Obstacle, phase: Phase) -> BoundaryCovector:
    """Incoming covector at the apex; ``NotNormalized`` unless the phase grazes there."""
    xi = xi_incoming(phase, obstacle, np.zeros(obstacle.dim_tangential))
    if abs(xi.xi1) > APEX_TOL:
        raise NotNormalized(f"xi1 at the apex is {xi.xi1}, not 0: phase does not graze there")
    return xi


def classify_order(obstacle: Obstacle, phase: Phase) -> OrderClassification:
    """Order of tangency at the apex for a phase normalized to graze there."""
    return order_from_direction(obstacle, _apex_covector(obstacle, phase).xibar)


# ---------------------------------------------------------------------------
# Positivity of the leading homogeneous Hessian (smooth grazing-set criterion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianPositivityVerdict:
    passed: bool
    min_eig: float
    argmin: np.ndarray
    degree: int


PD_TOL = 1e-12      # smallest Hessian eigenvalue that counts as positive
U1WW_ANGLES = 360   # unit-circle directions at which check_u1ww samples the Hessian


def check_u1ww(g2k: MultiPoly) -> HessianPositivityVerdict:
    """PASS iff the Hessian of a homogeneous even-degree polynomial is
    positive definite on the unit circle (homogeneity makes that sufficient),
    sampled at U1WW_ANGLES equally spaced directions."""
    if g2k.dim != 2:
        raise NotHomogeneous("positivity check implemented for two variables")
    if not g2k.is_homogeneous():
        raise NotHomogeneous("polynomial is not homogeneous")
    deg = g2k.degree()
    if deg < 2 or deg % 2 != 0:
        raise NotHomogeneous(f"degree {deg} is not an even number >= 2")
    ang = np.linspace(0.0, 2.0 * np.pi, U1WW_ANGLES, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    low = np.linalg.eigvalsh(g2k.hessian(pts))[:, 0]
    k = int(np.argmin(low))
    return HessianPositivityVerdict(passed=bool(low[k] > PD_TOL), min_eig=float(low[k]),
                                    argmin=pts[k], degree=deg)


def leading_homogeneous_part(surface: PolynomialSurface) -> MultiPoly | None:
    """-(lowest nonconstant homogeneous part of F - 1), i.e. the leading G."""
    poly = surface.poly
    degrees = sorted({sum(e) for e in poly.terms if sum(e) >= 2})
    if not degrees:
        return None
    return poly.homogeneous_part(degrees[0]).scale(-1.0)


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveBranch:
    side: int                     # sign of the transverse coordinate at the seed
    vertices: np.ndarray          # (m, 2), ordered by arc length from the apex end
    residuals: np.ndarray
    arc_params: np.ndarray


@dataclass(frozen=True)
class GrazingCurve:
    branches: tuple[CurveBranch, ...]
    transverse_axis: int          # coordinate used as the graph parameter
    graph_axis: int
    window: float
    trace_tol: float

    def all_vertices(self) -> np.ndarray:
        return np.vstack([b.vertices for b in self.branches])


H_MIN = 1e-6          # smallest continuation step before StepCollapse
H_MAX = 1e-2          # largest continuation step
SEED_OFFSET = 1e-3    # transverse offset of the two branch seeds
SHRINK_STOP = 1e-5    # inward shrink stops below this transverse offset
SHRINK_FACTOR = 0.85  # ratio of successive transverse offsets in the shrink
# Below the trace tolerance, a corrector step that shrinks |f| by less than
# this factor is rounding noise: exact Newton at an m-fold root shrinks |f|
# by ((m - 1)/m)^m < 1/e per step, so only the rounding floor fails the ratio.
FLOOR_RATIO = 0.5


def _bracket_root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Root of f in [lo, hi], where f(lo) = f_lo and f(hi) = f_hi differ in
    sign (a zero value counts as positive), by a bracketed secant: Illinois
    regula falsi (an end kept twice running has its value halved), each trial
    0.4 tol inside the bracket so that the bracket closes across the root, and
    a midpoint trial after any trial that does not halve the bracket.  Stops
    when the bracket is narrower than ``tol`` (checked before each evaluation)
    and returns its midpoint, or returns a trial point where f vanishes; at
    most 200 evaluations.
    """
    kept, midpoint = 0, False  # kept: +1 after lo moved (hi kept), -1 after hi moved
    for _ in range(200):
        width = hi - lo
        if width < tol:
            break
        if midpoint:
            x = 0.5 * (lo + hi)
        else:
            x = max(lo + 0.4 * tol, min(hi - 0.4 * tol, lo - f_lo * width / (f_hi - f_lo)))
        f_x = f(x)
        if f_x == 0.0:
            return float(x)
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo, f_hi = x, f_x, 0.5 * f_hi if kept == 1 else f_hi
            kept = 1
        else:
            hi, f_hi, f_lo = x, f_x, 0.5 * f_lo if kept == -1 else f_lo
            kept = -1
        midpoint = not midpoint and hi - lo > 0.5 * width
    return float(0.5 * (lo + hi))


def _sign_events(vals: np.ndarray) -> np.ndarray:
    """Grid indices i of the roots seen in sampled values: an exact zero at i
    that starts a run of them (a run counts once), or a sign change between
    i and i + 1."""
    zero = vals[:-1] == 0.0
    run_start = zero & np.concatenate(([True], vals[:-1] != 0.0))[:-1]
    return np.flatnonzero(run_start | (vals[:-1] * vals[1:] < 0.0))


def _refine(f, grid, vals, i, tol: float) -> float:
    """The root of event i of ``_sign_events``: the grid point of an exact
    zero, or the bracketed secant of the sign change on floats, which starts
    from the grid values at both ends."""
    if vals[i] == 0.0:
        return float(grid[i])
    return _bracket_root(f, float(grid[i]), float(grid[i + 1]), float(vals[i]),
                         float(vals[i + 1]), tol)


def _scan_roots(f, grid, tol: float) -> list[float]:
    """Roots of f on a grid, one per ``_sign_events`` event.  f takes an
    array of parameters or a single one; the grid is evaluated in one call
    and the bracketed secant passes one float at a time."""
    vals = np.asarray(f(grid), dtype=float)
    return [_refine(f, grid, vals, i, tol) for i in _sign_events(vals)]


LINE_SCAN_N = 1024     # grid points of each seed scan line
LINE_ROOT_TOL = 1e-13  # bracket width at which a seed scan root is final


def _on_line(v, axis: int, offset: float) -> np.ndarray:
    """Plane points (..., 2) with coordinate ``axis`` at v and the other at offset."""
    v = np.asarray(v, dtype=float)
    p = np.full(v.shape + (2,), offset)
    p[..., axis] = v
    return p


def _detect_orientation(gf, obstacle, window):
    """Pick the transverse axis, the one whose both offset lines see one
    root, and return it with the root nearest the apex on each of its lines.

    Each of the four scan lines, across an axis at +-SEED_OFFSET, is one
    ``_scan_roots`` call: one batched ``value`` on its grid, and each root
    solved to LINE_ROOT_TOL by the bracketed secant on the float value of
    ``gf._value_grad``.  The axes are scored by their extra roots, then by
    the sum of the two nearest roots' distances from the apex; the least
    score wins, axis 1 first on ties.
    """
    lim = min(window, math.sqrt(max(obstacle.radius**2 - SEED_OFFSET**2, 0.0)) * 0.999)
    grid = np.linspace(-lim, lim, LINE_SCAN_N)
    scored = []
    for t_axis in (1, 0) if lim > 0.0 else ():
        lines = []
        for offset in (SEED_OFFSET, -SEED_OFFSET):
            def f(v, t_axis=t_axis, offset=offset):
                if np.ndim(v):
                    return gf.value(obstacle, _on_line(v, 1 - t_axis, offset))
                return gf._value_grad(obstacle, *((v, offset) if t_axis else (offset, v)))[0]
            lines.append(_scan_roots(f, grid, LINE_ROOT_TOL))
        if all(lines):
            nearest = [min(roots, key=abs) for roots in lines]
            penalty = sum(len(roots) - 1 for roots in lines)
            scored.append((penalty, sum(map(abs, nearest)), t_axis, nearest))
    if not scored:
        raise SeedNotFound(f"no sign change at transverse offset {SEED_OFFSET} in window {window}")
    _, _, t_axis, nearest = min(scored, key=lambda item: item[:2])
    return t_axis, *nearest


def _correct(gf, obstacle, point, tol, axis=None):
    """Newton correction back onto the zero set, along the gradient or, when
    ``axis`` is given, along that coordinate axis only.

    Iterates past ``tol``, which is the acceptance bound on the residual:
    near the apex the derivative along the graph axis can be ~1e-10, so a
    residual at the bound would leave the coordinate essentially unresolved.
    It stops at the rounding floor of f instead: once |f| <= ``tol``, a step
    that does not shrink |f| by FLOOR_RATIO (one half) is accepted and ends
    the iteration.  Exact Newton at an m-fold root shrinks |f| by
    ((m - 1)/m)^m < 1/e per step, so the rule never cuts a real convergence,
    only the sign-flipping crawl of rounding noise.  Above ``tol``, a step
    that does not lower |f| ends the iteration and is dropped.  A zero
    derivative ends the iteration.  At most 40 gradient steps or 80 axis steps.

    Each iterate is evaluated once, value and gradient together, on floats
    (``gf._value_grad``, the one float door).  The point is a pair of floats.  Returns
    (point, |residual|, gradient there) as a list, a float and a list, or
    None when the residual stays above ``tol``.
    """
    p = list(point)
    f, *grad = gf._value_grad(obstacle, *p)
    for _ in range(40 if axis is None else 80):
        if f == 0.0:
            return p, 0.0, grad
        if axis is None:
            g2 = grad[0] * grad[0] + grad[1] * grad[1]
            if g2 == 0.0:
                break
            r = f / g2
            p_new = [p[0] - grad[0] * r, p[1] - grad[1] * r]
        else:
            if grad[axis] == 0.0:
                break
            p_new = p.copy()
            p_new[axis] = p[axis] - f / grad[axis]
        f_new, *grad_new = gf._value_grad(obstacle, *p_new)
        if abs(f_new) > tol and abs(f_new) >= abs(f):
            break
        at_floor = abs(f_new) <= tol and abs(f_new) > FLOOR_RATIO * abs(f)
        p, f, grad = p_new, f_new, grad_new
        if at_floor:
            break
    if abs(f) <= tol:
        return p, abs(f), grad
    return None


def _checked_trace_args(window, trace_tol) -> tuple[float, float]:
    """window >= 0 (0 finds no seed) and trace_tol > 0 as finite floats, or ``InvalidArgument``."""
    if (w := _finite(window, 0.0)) is None:
        raise InvalidArgument(f"window must be finite and nonnegative, got {window!r}")
    if (tol := _finite(trace_tol)) is None or tol <= 0.0:
        raise InvalidArgument(f"trace_tol must be finite and positive, got {trace_tol!r}")
    return w, tol


def trace_grazing_curve(gf: GrazingFunction, obstacle: Obstacle, window: float = 0.3,
                        trace_tol: float = 1e-10) -> GrazingCurve:
    """Trace both branches of the grazing curve through the apex.

    The apex itself is singular whenever the tangency order exceeds two, so
    branches are seeded at transverse offsets +-SEED_OFFSET found by scanning
    for sign changes; each branch then runs a geometric shrink toward the
    apex (ratio SHRINK_FACTOR, down to SHRINK_STOP) and a pseudo-arclength
    continuation away from it (steps between H_MIN and H_MAX), out to the
    window boundary.  A branch that comes back within one step of its own
    seed has closed a loop, and its continuation stops there.  The tracing
    runs on floats, the apex check included; each branch's residuals are |f|
    at its stored vertices, from one batched ``value``.  Bad arguments raise
    ``InvalidArgument`` first (``_checked_trace_args``), as does a gf
    whose vector does not have one entry per tangential variable.
    """
    window, trace_tol = _checked_trace_args(window, trace_tol)
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("curve tracing requires a 3D obstacle (two tangential variables)")
    _check_vector(gf, obstacle)
    apex = gf._value_grad(obstacle, 0.0, 0.0)[0]
    if abs(apex) > 1e-9:
        raise SeedNotFound(f"apex residual {apex} is nonzero: apex is not a grazing point")
    window = min(window, obstacle.radius / math.sqrt(2.0) * 0.999)

    t_axis, root_p, root_m = _detect_orientation(gf, obstacle, window)
    g_axis = 1 - t_axis

    branches = []
    for side, root in ((1, root_p), (-1, root_m)):
        # Points are pairs of floats; a vertex becomes an array row when stored.
        seed = [0.0, 0.0]
        seed[t_axis] = side * SEED_OFFSET
        seed[g_axis] = root
        # Polish the bracketed root onto the zero set; keep it if that fails.
        polished = _correct(gf, obstacle, seed, trace_tol, axis=g_axis)
        if polished is None:
            polished = seed, None, gf._value_grad(obstacle, *seed)[1:]
        seed, _, (g0, g1) = polished

        # Inward: geometric shrink of the transverse coordinate toward the apex.
        inward = []
        guess = seed.copy()
        t_val = side * SEED_OFFSET * SHRINK_FACTOR
        while abs(t_val) >= SHRINK_STOP:
            guess[t_axis] = t_val
            sol = _correct(gf, obstacle, guess, trace_tol, axis=g_axis)
            if sol is None:
                break
            inward.append(sol[0])
            guess[g_axis] = sol[0][g_axis]
            t_val *= SHRINK_FACTOR

        # Outward: predictor-corrector continuation.
        outward = []
        c0, c1 = seed
        prev_dir = None
        h = 10.0 * H_MIN
        travelled = 0.0
        while True:
            norm = math.hypot(g0, g1)
            if norm == 0.0:
                break
            u0, u1 = -g1 / norm, g0 / norm
            if prev_dir is None:
                if (u0, u1)[t_axis] * side < 0:
                    u0, u1 = -u0, -u1
            elif u0 * prev_dir[0] + u1 * prev_dir[1] < 0.0:
                u0, u1 = -u0, -u1
            t_here = abs((c0, c1)[t_axis])
            h_cap = min(H_MAX, max(10.0 * H_MIN, 0.2 * t_here))
            step = min(h, h_cap)
            accepted = False
            left_domain = False
            while step >= H_MIN:
                predicted = [c0 + step * u0, c1 + step * u1]
                if math.hypot(*predicted) > obstacle.radius * 0.995:
                    left_domain = True
                    break
                corrected = _correct(gf, obstacle, predicted, trace_tol)
                if (corrected is not None
                        and math.hypot(corrected[0][0] - c0, corrected[0][1] - c1) > 0.1 * step):
                    accepted = True
                    break
                step *= 0.5
            if left_domain:
                break
            if not accepted:
                raise StepCollapse([c0, c1])
            (p0, p1), _, (g0, g1) = corrected
            if max(abs(p0), abs(p1)) > window or math.hypot(p0, p1) > obstacle.radius * 0.999:
                break
            outward.append([p0, p1])
            chord = math.hypot(p0 - c0, p1 - c1)
            travelled += chord
            if travelled > 2.0 * step and math.hypot(p0 - seed[0], p1 - seed[1]) < step:
                break  # back at the seed: the branch closed a loop
            prev_dir = ((p0 - c0) / max(chord, 1e-300), (p1 - c1) / max(chord, 1e-300))
            c0, c1 = p0, p1
            h = min(step * 1.4, H_MAX)
            if len(outward) > 100000:
                break

        verts = np.array(inward[::-1] + [seed] + outward)
        resid = np.abs(gf.value(obstacle, verts))
        arcs = np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(verts, axis=0), axis=1))))
        branches.append(CurveBranch(side=side, vertices=verts, residuals=resid, arc_params=arcs))

    return GrazingCurve(branches=tuple(branches), transverse_axis=t_axis,
                        graph_axis=g_axis, window=window, trace_tol=trace_tol)


# ---------------------------------------------------------------------------
# Regularity estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityEstimate:
    exponent: float
    coefficient: float
    verdict: str          # 'cusp' | 'c1-not-c2' | 'smooth' | 'inconclusive'
    n_points: int
    fit_window: tuple[float, float]
    secondary_residual: float | None = None


CUSP_BIN = (0.60, 0.73)
C1_BIN = (1.26, 1.41)
MIN_FIT_POINTS = 20  # fewest vertices per branch the regularity fit accepts
SMOOTH_FIT_TOL = 1e-6  # largest relative residual of the smooth-graph polynomial fit


def estimate_regularity(curve: GrazingCurve, fit_window=(1e-4, 1e-2)) -> RegularityEstimate:
    """Fit log|graph| against log|transverse| over a decade window.

    The exponent lands in one of two bins (near 2/3: cusp; near 4/3: C1 but
    not C2) or else the curve is a smooth-graph candidate, confirmed by a
    low-degree polynomial fit of the graph coordinate.  The coefficient is
    signed by the graph values in the window.
    """
    lo, hi = _vector(fit_window, "fit_window", 2).tolist()
    ts, us = [], []
    for branch in curve.branches:
        t = branch.vertices[:, curve.transverse_axis]
        u = branch.vertices[:, curve.graph_axis]
        mask = (np.abs(t) >= lo) & (np.abs(t) <= hi) & (np.abs(u) > 0.0)
        if int(mask.sum()) < MIN_FIT_POINTS:
            raise InsufficientPoints(f"branch {branch.side}: {int(mask.sum())} vertices "
                                     f"in window, need {MIN_FIT_POINTS}")
        ts.append(t[mask])
        us.append(u[mask])
    t = np.concatenate(ts)
    u = np.concatenate(us)

    slope, intercept = np.polyfit(np.log(np.abs(t)), np.log(np.abs(u)), 1)
    sign = 1.0 if float(np.mean(np.sign(u))) >= 0.0 else -1.0
    coefficient = sign * math.exp(intercept)
    exponent = float(slope)

    if CUSP_BIN[0] <= exponent <= CUSP_BIN[1]:
        return RegularityEstimate(exponent, coefficient, "cusp", t.size, (lo, hi))
    if C1_BIN[0] <= exponent <= C1_BIN[1]:
        return RegularityEstimate(exponent, coefficient, "c1-not-c2", t.size, (lo, hi))

    # Smooth candidate: the graph coordinate should be an analytic function
    # of the transverse one; check with a degree-6 least-squares fit.
    tau = t / np.max(np.abs(t))
    vand = np.vander(tau, 7, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, u, rcond=None)
    resid = float(np.max(np.abs(vand @ coef - u))) / max(float(np.max(np.abs(u))), 1e-300)
    if resid <= SMOOTH_FIT_TOL:
        return RegularityEstimate(exponent, coefficient, "smooth", t.size, (lo, hi),
                                  secondary_residual=resid)
    return RegularityEstimate(exponent, coefficient, "inconclusive", t.size, (lo, hi),
                              secondary_residual=resid)


# ---------------------------------------------------------------------------
# 2D obstacles: sign-change scan
# ---------------------------------------------------------------------------

SCAN_1D_N = 4096  # grid points of the 2D-obstacle zero scan


def grazing_zero_scan_1d(gf: GrazingFunction, obstacle: Obstacle,
                         window: float = 0.3) -> tuple[int, list[float]]:
    """Count zeros of the grazing function on |x2| <= window (2D obstacles).

    Uses an even grid (the apex is not a grid point) with bracketed-secant
    refinement; runs of exact zeros collapse to one zero.
    """
    if obstacle.dim_tangential != 1:
        raise UnsupportedSurface("scan requires a 2D obstacle (one tangential variable)")
    window = min(window, obstacle.radius)
    grid = np.linspace(-window, window, SCAN_1D_N)
    zeros = _scan_roots(lambda v: gf.value(obstacle, np.asarray(v)[..., None]), grid, 1e-14)
    return len(zeros), zeros


# ---------------------------------------------------------------------------
# Slice counts (no-branching evidence)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceCount:
    """Grazing points on a slice curve, counted on each side x3 > 0 and x3 < 0
    from the angular grid alone; ``points`` are solved on first read."""

    count_pos: int
    count_neg: int
    x2_star: float
    _crossings: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def points(self) -> np.ndarray:
        """The grazing points (n, 2) in original coordinates, solved once."""
        return self._crossings()


SLICE_N_PHI = 1440      # angular grid intervals of each slice curve
SLICE_ROOT_TOL = 1e-14  # bracket width at which a slice ray's root is final
SLICE_NEWTON_MAX = 60   # most Newton or midpoint steps of one slice ray


class _SliceCurve:
    """The slice curve of ``slice_grazing_count``, in coordinates where the
    source sits at (1, a, 0) with a < 0: the zero set of the slice-plane
    function k, star-shaped about its center on the meridian x3 = 0.

    With A = x2* - a and B = 1 - F(x2*, 0), k = (F - 1) A + (x2 - a) B, and
    along the ray from the center in the unit direction u its derivative is
    dk/dr = A (grad F . u) + u2 B.  ``points`` solves the curve points at
    many angles in lockstep: a radial march in steps of ``r_step`` brackets
    each ray's first crossing and ``_newton_lanes`` finds it.  No lane's
    arithmetic depends on another's, so an angle gets the same bits alone or
    among many.
    """

    def __init__(self, obst_r: Obstacle, a: float, x2_star: float):
        if abs(x2_star) > obst_r.radius * 0.999:
            raise SliceMiss("slice parameter outside the obstacle domain")
        self.obst, self.a = obst_r, a
        self.A, self.B = x2_star - a, 1.0 - obst_r._jet_at([x2_star, 0.0], 0)
        # Second intersection of the slice plane with the meridian x3 = 0.
        lim = obst_r.radius * 0.999
        meridian_roots = _scan_roots(
            lambda v: self.k(_on_line(v, 0, 0.0) if np.ndim(v) else (v, 0.0)),
            np.linspace(1e-9, lim, 600), SLICE_ROOT_TOL)
        if not meridian_roots:
            raise SliceMiss("slice plane does not re-enter the window on the far side")
        self.center = np.array([0.5 * (x2_star + meridian_roots[0]), 0.0])
        if self.k(self.center.tolist()) <= 0.0:
            raise SliceMiss("slice curve is degenerate at this parameter")
        self.r_bound = lim - float(np.linalg.norm(self.center))
        self.r_step = self.r_bound / 50.0

    def k(self, p, u=None):
        """k at a pair of floats (through ``Obstacle._jet_at``) or per row of a
        batch (m, 2); given unit directions u (m, 2), (k, dk/dr) on the batch."""
        batch = isinstance(p, np.ndarray)
        if u is None:
            f = self.obst.value(p) if batch else self.obst._jet_at(p, 0)
        else:
            f, (g2, g3), (u2, u3) = self.obst.value(p), self.obst.gradient(p).T, u.T
        k = (f - 1.0) * self.A + ((p[:, 0] if batch else p[0]) - self.a) * self.B
        return k if u is None else (k, self.A * (g2 * u2 + g3 * u3) + u2 * self.B)

    def points(self, phis) -> np.ndarray:
        """The first crossing of k = 0 along the ray at each angle, (m, 2)."""
        phis = np.asarray(phis, dtype=float).tolist()
        u = np.column_stack((list(map(math.cos, phis)), list(map(math.sin, phis))))
        lo = np.zeros(len(u))
        hi = np.empty(len(u))
        todo = np.arange(len(u))
        r = self.r_step
        while r <= self.r_bound and todo.size:
            crossed = self.k(self.center + r * u[todo]) < 0.0
            hi[todo[crossed]] = r
            todo = todo[~crossed]
            lo[todo] = r
            r += self.r_step
        if todo.size:
            raise SliceMiss("slice curve leaves the obstacle domain")
        return self.center + self._newton_lanes(lo, hi, u)[:, None] * u

    def _newton_lanes(self, lo, hi, u) -> np.ndarray:
        """The root of k on each ray bracket [lo[j], hi[j]] along u[j], where
        k(hi[j]) < 0, by Newton from the outer end, all lanes at once.  k is
        concave along a ray (F is concave, the rest linear), so Newton from
        its k < 0 side moves monotonically inward; each step is still guarded
        by the bracket, falling back to its midpoint.  A lane stops when its
        bracket is narrower than SLICE_ROOT_TOL, k vanishes, SLICE_NEWTON_MAX
        steps are done, or at the rounding floor: a step that does not shrink
        |k| by FLOOR_RATIO ends it, keeping the better iterate.  A step-size
        rule would not do: along the quartic's flat direction F - 1 cancels
        near F = 1, the root is defined only to about 2e-13, and the steps
        never fall below 1e-14.
        """
        r = hi.copy()
        k, dk = self.k(self.center + r[:, None] * u, u)
        todo = np.arange(len(r))
        for _ in range(SLICE_NEWTON_MAX):
            todo = todo[(k[todo] != 0.0) & (hi[todo] - lo[todo] >= SLICE_ROOT_TOL)]
            if not todo.size:
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                r_new = r[todo] - k[todo] / dk[todo]
            mid = ~((lo[todo] < r_new) & (r_new < hi[todo]))
            r_new[mid] = 0.5 * (lo[todo[mid]] + hi[todo[mid]])
            k_new, dk_new = self.k(self.center + r_new[:, None] * u[todo], u[todo])
            neg = k_new < 0.0
            hi[todo[neg]], lo[todo[~neg]] = r_new[neg], r_new[~neg]
            floor = np.abs(k_new) > FLOOR_RATIO * np.abs(k[todo])
            take = ~floor | (np.abs(k_new) < np.abs(k[todo]))
            r[todo[take]] = r_new[take]
            k[todo[~floor]], dk[todo[~floor]] = k_new[~floor], dk_new[~floor]
            todo = todo[~floor]
        return r


def _event_sides(grid, vals, events) -> np.ndarray:
    """Per angular event of ``_sign_events``, a sine whose sign is the side
    of its slice crossing: x3 > 0, x3 < 0, or neither for 0.

    A crossing is center + r (cos phi, sin phi) with r > 0 and the center on
    x3 = 0, so its side is the sign of sin at its refined angle.  ``_refine``
    returns the grid angle of an exact zero, and otherwise an angle at least
    2e-14 inside the grid bracket (each secant trial is 0.4 tol inside, and
    a closing bracket's midpoint half that).  sin changes sign only within a
    few ulps of the grid angles 0, pi and 2 pi, so it has one sign inside a
    bracket, read at its midpoint.  The bracket's first angle would not do:
    the one nearest pi has sin > 0 and opens a bracket where sin < 0.
    """
    inside = 0.5 * (grid[events] + grid[events + 1])
    return np.sin(np.where(vals[events] == 0.0, grid[events], inside))


def slice_grazing_count(obstacle: Obstacle, bbar, x2_star: float) -> SliceCount:
    """Count grazing points on the closed slice curve through (x2*, 0).

    The slice curve is the boundary section cut by the plane through the
    source ray hitting the boundary above (x2*, 0); on it the spherical
    grazing function is scanned in angle.  No-branching predicts exactly one
    point on each side x3 > 0 and x3 < 0.

    The curve points at the SLICE_N_PHI + 1 grid angles are one lockstep
    solve (``_SliceCurve.points``, 6 to 8 evaluations per ray on the sample
    quartics) and the grazing function one call on them.  Each sign change
    is one crossing, counted on the side its grid bracket gives
    (``_event_sides``), so the counts solve no crossing.  ``points``, when
    first read, refines each crossing angle to 1e-13 by the bracketed
    secant, each trial angle one lane of ``_SliceCurve.points`` valued by
    ``gf._value_grad``.  Bad arguments raise ``InvalidArgument`` first.
    """
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("slice counts require a 3D obstacle")
    if (x2 := _finite(x2_star)) is None:
        raise InvalidArgument(f"x2_star must be a finite real number, got {x2_star!r}")
    b = _vector(bbar, "bbar", 2)
    if x2 >= 0.0:
        raise SliceMiss("slice parameter must be negative (illuminated side)")
    if np.linalg.norm(b) == 0.0:
        raise ZeroVector("bbar must be nonzero")

    # Work in coordinates where the source sits at (1, -|bbar|, 0).
    rotate = abs(b[1]) > 1e-14 or b[0] > 0.0
    obst_r, q = rotate_coordinates(obstacle, b) if rotate else (obstacle, np.eye(2))
    b_r = q @ b if rotate else b
    gf = SphericalGrazing(bbar=b_r)
    curve = _SliceCurve(obst_r, float(b_r[0]), x2)
    # Closed angular grid: angle 0 repeats at 2 pi, so a crossing across the
    # wrap-around is seen once.
    grid = np.linspace(0.0, 2.0 * np.pi, SLICE_N_PHI + 1)
    vals = gf.value(obst_r, curve.points(grid))
    events = _sign_events(vals)
    sides = _event_sides(grid, vals, events)

    def crossings() -> np.ndarray:
        def h(phi):
            return gf._value_grad(obst_r, *curve.points([phi])[0].tolist())[0]

        phis = [_refine(h, grid, vals, i, 1e-13) for i in events]
        return _matvec(q.T, curve.points(phis) if phis else np.zeros((0, 2)))

    return SliceCount(count_pos=int(np.sum(sides > 0.0)), count_neg=int(np.sum(sides < 0.0)),
                      x2_star=x2, _crossings=crossings)


# ---------------------------------------------------------------------------
# Shadow-boundary flowout
# ---------------------------------------------------------------------------

FLOWOUT_MARGIN_TOL = 1e-6  # largest |margin| of a curve vertex the flowout accepts


def shadow_boundary_flowout(obstacle: Obstacle, phase: Phase, curve: GrazingCurve,
                            s_range=(0.0, 1.0), n_s: int = 17) -> np.ndarray:
    """Incoming-ray flowout of the traced grazing curve, as a ruled sheet.

    Returns an array of shape (n_vertices, n_s, n + 1): spacetime points
    (x, t) along the straight incoming characteristic through each curve
    vertex, starting at t = 0 on the boundary.  Rejects vertices that are not
    (numerically) grazing, naming the first.
    """
    verts = curve.all_vertices()
    cls = classify_boundary_point(obstacle, phase, verts)
    bad = np.flatnonzero(np.abs(cls.margin) > FLOWOUT_MARGIN_TOL)
    if bad.size:
        i = bad[0]
        raise InvalidArgument(f"vertex {verts[i]} has margin {cls.margin[i]}: not a grazing point")
    ss = np.linspace(s_range[0], s_range[1], n_s)
    # Spacetime base point (x, 0) and direction (xi, 1) of each vertex's ray.
    base = np.pad(cls.incoming.point, ((0, 0), (0, 1)))
    direction = np.pad(cls.incoming.vector, ((0, 0), (0, 1)), constant_values=1.0)
    return base[:, None, :] + 2.0 * ss[:, None] * direction[:, None, :]


# ---------------------------------------------------------------------------
# Bundled grazing-set report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GsReport:
    verdict: str
    order: OrderClassification
    u1ww: HessianPositivityVerdict | None
    curve: GrazingCurve | None
    regularity: RegularityEstimate | None
    slice_counts: tuple[SliceCount, ...] = ()
    notes: tuple[str, ...] = ()


VERDICT_SMOOTH = "GS-HOLDS-SMOOTH"
VERDICT_C1 = "GS-HOLDS-C1-EVIDENCE"
VERDICT_CUSP = "GS-FAILS-CUSP-EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

# Verdict for each curve regularity class once no-branching holds and the
# leading Hessian is not positive definite; any other class is inconclusive.
_REGULARITY_VERDICTS = {"cusp": VERDICT_CUSP, "c1-not-c2": VERDICT_C1, "smooth": VERDICT_C1}

SLICE_PARAMS = (-0.05,)        # x2* of the no-branching slice curves
FIT_WINDOW = (1e-4, 1e-2)      # transverse range of the regularity fit


def gs_assumption_report(obstacle: Obstacle, phase: Phase, window: float = 0.3,
                         trace_tol: float = 1e-10) -> GsReport:
    """Bundle order, Hessian-positivity, tracing, regularity, and slice counts.

    The regularity fit covers transverse offsets in FIT_WINDOW; slice counts
    are taken at each x2* in SLICE_PARAMS (spherical sources only).  A trace
    or fit that fails is recorded as a note ("tracing failed: ..." or
    "regularity fit failed: ..."), and the verdict then rests on the slice
    counts and the Hessian-positivity check.

    Evidence-level verdicts are numerical evidence, never proofs; the one
    verdict backed by an exact hypothesis check is the smooth case, certified
    by positivity of the leading homogeneous Hessian (or by membership in the
    symmetric-profile class).  The diffractive-neighborhood condition is
    sampled, not exhaustive.  Bad arguments raise ``InvalidArgument`` first.
    """
    window, trace_tol = _checked_trace_args(window, trace_tol)
    notes = ["curve verdicts are numerical evidence, not proofs",
             "diffractive type of nearby grazing points is sampled, not exhaustive"]
    order = classify_order(obstacle, phase)
    if order.kind == "odd":
        return GsReport(verdict=VERDICT_INCONCLUSIVE, order=order, u1ww=None, curve=None,
                        regularity=None,
                        notes=tuple(notes + ["inflection contact: outside the diffractive theory"]))

    if isinstance(obstacle.surface, SymmetricH):
        return GsReport(verdict=VERDICT_SMOOTH, order=order, u1ww=None, curve=None,
                        regularity=None,
                        notes=tuple(notes + [
                            "symmetric profile: transverse defining function is C1 with "
                            "nonvanishing differential at the apex"]))

    u1ww = None
    if isinstance(obstacle.surface, PolynomialSurface) and obstacle.dim_tangential == 2:
        leading = leading_homogeneous_part(obstacle.surface)
        if leading is not None and leading.degree() % 2 == 0:
            u1ww = check_u1ww(leading)

    curve = None
    regularity = None
    slices = []
    if obstacle.dim_tangential == 2:
        gf = grazing_function_for(obstacle, phase)
        try:
            curve = trace_grazing_curve(gf, obstacle, window=window, trace_tol=trace_tol)
        except (SeedNotFound, StepCollapse) as exc:
            notes.append(f"tracing failed: {exc}")
        else:
            try:
                regularity = estimate_regularity(curve, fit_window=FIT_WINDOW)
            except InsufficientPoints as exc:
                notes.append(f"regularity fit failed: {exc}")
        if isinstance(phase, SphericalPhase):
            for x2s in SLICE_PARAMS:
                try:
                    slices.append(slice_grazing_count(obstacle, phase.source[1:], x2s))
                except SliceMiss as exc:
                    notes.append(f"slice at {x2s} skipped: {exc}")
        else:
            notes.append("slice counts apply to spherical sources only")
    else:
        notes.append(f"dim = {obstacle.dim}: tracing, the regularity fit and slice counts "
                     "cover dim 3 only")

    if not all(sc.count_pos == 1 and sc.count_neg == 1 for sc in slices):
        notes.append("slice counts differ from (1,1): no-branching evidence failed")
        verdict = VERDICT_INCONCLUSIVE
    elif u1ww is not None and u1ww.passed:
        verdict = VERDICT_SMOOTH
    else:
        kind = regularity.verdict if regularity is not None else None
        verdict = _REGULARITY_VERDICTS.get(kind, VERDICT_INCONCLUSIVE)
        if kind == "smooth":
            notes.append("graph fit is analytic to fit tolerance; C1 evidence reported")
        elif kind == "inconclusive":
            notes.append(f"regularity fit inconclusive: exponent {regularity.exponent:.4g} is in "
                         f"neither the cusp nor the C1 bin, and the smooth-graph fit residual "
                         f"{regularity.secondary_residual:.3g} exceeds {SMOOTH_FIT_TOL:g}")
    return GsReport(verdict, order, u1ww, curve, regularity, tuple(slices), tuple(notes))
