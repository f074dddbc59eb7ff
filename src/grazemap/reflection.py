"""Reflected rays, the reflected flow map, and its Jacobian factorization.

A boundary covector xi splits into a reflected covector xi_r by subtracting
twice its conormal component; the reflected flow map sends (s, xbar, t) to the
point at parameter s on the reflected ray leaving (F(xbar), xbar, t).  The
Jacobian of that map is a closed form from the chain rule through the
incoming covector field and hess F; it factors through small dense matrices
(here named B, C, K, L after their roles: boundary shear, cone metric,
curvature of the incoming field, curvature of the obstacle), giving the lower
bound j >= 2 * margin on the illuminated region.  Closed forms are checked
against central differences.

The layer is batched: ``classify_boundary_point``, ``tangency_margin``,
``reflect_direction``, ``xi_reflected``, ``jacobian_analytic`` and
``jacobian_fd`` take one point xbar (d,) or a batch (m, d), and a batch
result carries a leading m axis whose entries equal the single-point
results bit for bit.  A boundary point is assembled once, one
``boundary_point``, ``grad_psi`` and ``gradient`` evaluation per point, and
its record feeds the margin, the label, both covectors, the flow points and
the Jacobian.  ``verify_rfm``, the ``reflect`` table and the grid seed of
``invert_flow`` run as array passes; the Newton loop of ``invert_flow`` runs
generated straight-line float code, one ``Obstacle._jet_at`` per iterate,
after its argument checks on the float lists it builds.  ``reflected_phase_at``
reads its value and gradient from the record of the converged point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import attrgetter, index

import numpy as np

from .diffgeo import (GrazemapError, InvalidArgument, Obstacle, _as_points, _central_difference,
                      _finite, _generate, _outer, _per_row, _reals, _rowdot, _vector)
from .phases import (BoundaryCovector, Phase, PlanePhase, SourceOnBoundary, SphericalPhase,
                     _xi_jacobian, xi_incoming)

GRAZING_TOL = 1e-10  # |margin| at or below which a boundary point counts as grazing
FD_STEP = 1e-5


class ShadowPoint(GrazemapError, ValueError):
    """Operation requires a grazing or illuminated boundary point."""


class GrazingSingular(GrazemapError, ValueError):
    """Operation requires a margin bounded away from zero."""

    exit_code = 3


class NonFiniteMargin(GrazemapError, ValueError):
    """The tangency margin at a boundary point is NaN, so it has no label."""

    exit_code = 3


class NoConvergence(GrazemapError, RuntimeError):
    """Newton inversion failed to reach the residual target."""

    exit_code = 3

    def __init__(self, iterations: int, residual: float, stalled: bool = False):
        super().__init__(f"no convergence after {iterations} iterations"
                         f"{' (damping stalled)' if stalled else ''}, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class OutsideRange(GrazemapError, ValueError):
    """Target point cannot lie on any reflected ray."""


# ---------------------------------------------------------------------------
# Reflection of covectors
# ---------------------------------------------------------------------------

def tangency_margin(obstacle: Obstacle, phase: Phase, xbar) -> float:
    """<grad F, xibar> - xi1: zero at grazing, positive where rays reflect."""
    return classify_boundary_point(obstacle, phase, xbar).margin


def _reflect(xbar: np.ndarray, grad_f: np.ndarray, xi: BoundaryCovector) -> BoundaryCovector:
    factor = 2.0 * (xi.xi1 - _rowdot(grad_f, xi.xibar)) / (1.0 + _rowdot(grad_f, grad_f))
    return BoundaryCovector(xbar, xi.xi1 - factor, xi.xibar + _per_row(factor) * grad_f,
                            xi.point)


def reflect_direction(obstacle: Obstacle, xbar, xi: BoundaryCovector) -> BoundaryCovector:
    """Reflected unit covector; total function of the incoming covector.

    The reflected covector differs from the incoming one by a multiple of the
    conormal (1, -grad F) and has unit length, which pins it down uniquely.
    One point, or a batch of points and covectors.
    """
    xbar = _as_points(xbar)
    return _reflect(xbar, obstacle.gradient(xbar), xi)


def xi_reflected(obstacle: Obstacle, phase: Phase, xbar) -> BoundaryCovector:
    return classify_boundary_point(obstacle, phase, xbar).reflected


@dataclass(frozen=True)
class BoundaryClassification:
    """A boundary point assembled once: margin, label, grad F and both
    covectors at (F(xbar), xbar).  The reflected covector is computed on
    first access, so a point rejected by its label never pays for it.

    For a batch of m points every field carries a leading m axis: xbar
    (m, d), margin (m,), label (m,) strings, grad_f (m, d), and covectors
    whose fields are (m,) and (m, d).
    """

    xbar: np.ndarray
    margin: float
    label: str  # 'illuminated' | 'grazing' | 'shadow'
    grad_f: np.ndarray
    incoming: BoundaryCovector

    @cached_property
    def reflected(self) -> BoundaryCovector:
        return _reflect(self.xbar, self.grad_f, self.incoming)

    def image(self, s) -> np.ndarray:
        """Spatial flow point (F(xbar), xbar) + 2 s xi_r, broadcast over s: for one
        point a column s (k, 1) gives k points of the ray; for a batch, s (m, 1)
        gives one point per row and s (k, 1, 1) gives (k, m, d + 1)."""
        return self.reflected.point + 2.0 * s * self.reflected.vector


_LABELS = ("grazing", "illuminated", "shadow")  # by (margin > tol) + 2 (margin < -tol)


def _assemble(obstacle: Obstacle, phase: Phase, xbar) -> BoundaryClassification:
    """``classify_boundary_point`` without its NaN check: a NaN margin fails
    both comparisons and is labelled grazing."""
    xi = xi_incoming(phase, obstacle, xbar)
    grad_f = obstacle._gradient(xi.xbar)  # its boundary point has checked the domain
    mu = _rowdot(grad_f, xi.xibar) - xi.xi1
    if mu.ndim:
        label = np.take(_LABELS, (mu > GRAZING_TOL) + 2 * (mu < -GRAZING_TOL))
    else:  # one point: a float and a str, without numpy scalar arithmetic
        mu = float(mu)
        label = _LABELS[(mu > GRAZING_TOL) + 2 * (mu < -GRAZING_TOL)]
    return BoundaryClassification(xbar=xi.xbar, margin=mu, label=label, grad_f=grad_f,
                                  incoming=xi)


def _nan_margin(xbar: np.ndarray) -> NonFiniteMargin:
    return NonFiniteMargin(f"tangency margin is nan at xbar={xbar.tolist()}")


def classify_boundary_point(obstacle: Obstacle, phase: Phase, xbar) -> BoundaryClassification:
    """Assemble the boundary point over xbar (d,), or over each row of a batch
    (m, d), and label it by the sign of its tangency margin.

    A NaN margin fails both comparisons and would read as grazing; it raises
    ``NonFiniteMargin`` naming the (first) such xbar instead.
    """
    cls = _assemble(obstacle, phase, xbar)
    if cls.xbar.ndim == 1:
        if cls.margin != cls.margin:
            raise _nan_margin(cls.xbar)
    else:
        nan = np.flatnonzero(np.isnan(cls.margin))
        if nan.size:
            raise _nan_margin(cls.xbar[nan[0]])
    return cls


def _gather(parts) -> BoundaryClassification:
    """The batch record of the rows ``rows`` of each batch record ``cls`` of
    parts [(cls, rows), ...], in order: rows of the records, not re-assemblies."""
    def column(name):
        get = attrgetter(name)
        return np.concatenate([get(cls)[rows] for cls, rows in parts])

    xbar = column("xbar")
    return BoundaryClassification(
        xbar=xbar, margin=column("margin"), label=column("label"), grad_f=column("grad_f"),
        incoming=BoundaryCovector(xbar, column("incoming.xi1"), column("incoming.xibar"),
                                  column("incoming.point")))


# ---------------------------------------------------------------------------
# Reflected flow map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSample:
    s: float
    xbar: np.ndarray
    t: float
    y: np.ndarray  # (y1, ybar..., t') in R^{n+1}


def flow_map(obstacle: Obstacle, phase: Phase, s: float, xbar, t: float = 0.0) -> FlowSample:
    """Point at parameter s on the reflected ray from the boundary point over xbar.

    Defined on grazing and illuminated points only, for one real s >= 0 and
    one real t, both finite and checked first; the time coordinate is carried
    along unchanged apart from the t + 2s advance.
    """
    if (s := _finite(s, 0.0)) is None:
        raise InvalidArgument("ray parameter s must be finite and nonnegative")
    if (t := _finite(t)) is None:
        raise InvalidArgument("time t must be finite")
    cls = classify_boundary_point(obstacle, phase, xbar)
    if cls.label == "shadow":
        raise ShadowPoint(f"margin {cls.margin} < -{GRAZING_TOL} at xbar={xbar}")
    y = np.concatenate((cls.image(s), [t + 2.0 * s]))
    return FlowSample(s=s, xbar=cls.xbar, t=t, y=y)


# ---------------------------------------------------------------------------
# Jacobian: factorization and finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianReport:
    j_analytic: float
    lower_bound: float  # 2 * margin
    margin: float


def _reflected_field_derivative(obstacle: Obstacle, phase: Phase, cls: BoundaryClassification):
    """Reflected covector of a record and its tangential derivative, in closed form.

    Differentiates xi_r = xi - f (1, -grad F), f = 2 (xi1 - <grad F, xibar>) /
    (1 + |grad F|^2), by the chain rule through ``xi_jacobian`` and hess F.
    Returns (xi_r, grad xi1_r, K, L) with d xibar_r / d xbar = K + L: K carries
    the derivative of the incoming field, L the curvature of the obstacle.
    A batch record gives each with a leading m axis.  The vector-matrix
    products are matmuls with explicit unit axes, which run the routine of
    the single-point ``@`` row by row.
    """
    grad_f = cls.grad_f
    hess_f = obstacle.hessian(cls.xbar)
    xi, xr = cls.incoming, cls.reflected
    d_xi1, d_xibar = _xi_jacobian(phase, obstacle, xi, grad_f)
    w = _per_row(2.0 / (1.0 + _rowdot(grad_f, grad_f)))
    # grad f splits into an incoming-field part and an obstacle-curvature part.
    df_field = w * (d_xi1 - (grad_f[..., None, :] @ d_xibar)[..., 0, :])
    df_curv = -w * (hess_f @ xr.xibar[..., None])[..., 0]
    k_mat = d_xibar + _outer(grad_f, df_field)
    l_mat = _per_row(_per_row(xi.xi1 - xr.xi1)) * hess_f + _outer(grad_f, df_curv)
    return xr, d_xi1 - df_field - df_curv, k_mat, l_mat


def factor_matrices(obstacle: Obstacle, phase: Phase, xbar):
    """B, C, K, L at an illuminated boundary point.

    K carries the curvature of the incoming covector field, L the curvature
    of the obstacle; their sum is the tangential derivative of the reflected
    field.  B and C divide by xi1_r, so points where the reflected ray runs
    parallel to the tangent plane raise ``GrazingSingular``.
    """
    cls = classify_boundary_point(obstacle, phase, xbar)
    d = obstacle.dim_tangential
    xr, _, k_mat, l_mat = _reflected_field_derivative(obstacle, phase, cls)
    if abs(xr.xi1) < 1e-13:
        raise GrazingSingular("reflected covector has vanishing normal-axis component")
    b_mat = np.eye(d) - np.outer(xr.xibar, cls.grad_f) / xr.xi1
    c_mat = np.eye(d) + np.outer(xr.xibar, xr.xibar) / xr.xi1**2
    return b_mat, c_mat, k_mat, l_mat


def _spatial_block(obstacle: Obstacle, phase: Phase, s, cls: BoundaryClassification) -> np.ndarray:
    """d(y1, ybar) / d(s, xbar) of the reflected flow map at a record, in closed
    form; (m, d + 1, d + 1) for a batch record and s scalar or (m,)."""
    xr, d_xi1r, k_mat, l_mat = _reflected_field_derivative(obstacle, phase, cls)
    d = obstacle.dim_tangential
    s_row = _per_row(s)  # scales a row vector; _per_row(s_row) scales a matrix
    m = np.empty(np.shape(cls.margin) + (d + 1, d + 1))
    m[..., 0, 0] = 2.0 * xr.xi1
    m[..., 0, 1:] = cls.grad_f + 2.0 * s_row * d_xi1r
    m[..., 1:, 0] = 2.0 * xr.xibar
    m[..., 1:, 1:] = np.eye(d) + 2.0 * _per_row(s_row) * (k_mat + l_mat)
    return m


def _first_flagged(cls: BoundaryClassification, flagged) -> tuple[float, str]:
    """Margin and label of the first flagged point of a record, one point or a batch."""
    k = np.argmax(np.reshape(flagged, -1))
    return float(np.reshape(cls.margin, -1)[k]), str(np.reshape(cls.label, -1)[k])


def _check_per_point(values, name: str, xbar) -> None:
    """A Jacobian's s or t: finite real numbers (``_vector``), one for all the
    points of xbar (d,) or (m, d) or one per point, else ``InvalidArgument``,
    as for an xbar that ``_as_points`` refuses."""
    given = _vector(values, name)
    m = len(xbar) if _as_points(xbar).ndim == 2 else 1
    if np.ndim(values) and len(given) != m:
        raise InvalidArgument(f"{name} has {len(given)} entries for {m} points")


def jacobian_analytic(obstacle: Obstacle, phase: Phase, s, xbar) -> JacobianReport:
    """Flow-map Jacobian from the closed-form spatial block determinant.

    The determinant of d(y1, ybar)/d(s, xbar) is assembled from the boundary
    geometry and the chain-rule derivative of the reflected field.  It never
    divides by xi1_r, so it stays regular where xi1_r crosses zero inside the
    illuminated region, where the Schur factorization
    j = 2 xi1_r det(B + 2s C (K + L)) degenerates.  At s = 0 the determinant
    reduces to 2*margin exactly.  Requires illuminated points.  A batch xbar
    (m, d), with s scalar or (m,), gives a report of (m,) arrays and one
    stacked determinant; the first grazing or shadow point raises.  An s
    that is not finite real numbers, one or one per point, raises
    ``InvalidArgument`` first.
    """
    _check_per_point(s, "ray parameter s", xbar)
    cls = classify_boundary_point(obstacle, phase, xbar)
    unlit = cls.label != "illuminated"
    if np.any(unlit):
        mu, label = _first_flagged(cls, unlit)
        if label == "grazing":
            raise GrazingSingular(f"margin {mu} within tolerance {GRAZING_TOL} of grazing")
        raise ShadowPoint(f"margin {mu} < -{GRAZING_TOL}: point is in shadow")
    j = np.linalg.det(_spatial_block(obstacle, phase, s, cls))
    return JacobianReport(j_analytic=j if j.ndim else float(j), lower_bound=2.0 * cls.margin,
                          margin=cls.margin)


def _fd_det(obstacle: Obstacle, phase: Phase, v: np.ndarray) -> np.ndarray:
    """Determinants of the central-difference Jacobians of (s, xbar, t) -> Z_r
    at the rows (s, xbar, t) of v (m, d + 2): one classification of all
    2 (d + 2) m difference points and one stacked determinant."""
    d = obstacle.dim_tangential

    def z_full(w):
        cls = classify_boundary_point(obstacle, phase, w[:, 1:1 + d])
        return np.concatenate((cls.image(w[:, :1]), w[:, -1:] + 2.0 * w[:, :1]), axis=1)

    return np.linalg.det(_central_difference(z_full, v, FD_STEP))


def jacobian_fd(obstacle: Obstacle, phase: Phase, s, xbar, t: float = 0.0):
    """Determinant of the central-difference Jacobian of (s, xbar, t) -> Z_r.

    This is the validation oracle for ``jacobian_analytic``; it never uses
    the factorization.  Defined where ``flow_map`` is: on grazing and
    illuminated points.  A batch xbar (m, d), with s and t scalars or (m,),
    gives (m,) determinants; the first shadow point raises.  An s or t that
    is not finite real numbers, one or one per point, raises
    ``InvalidArgument`` first.
    """
    _check_per_point(s, "ray parameter s", xbar)
    _check_per_point(t, "time t", xbar)
    cls = classify_boundary_point(obstacle, phase, xbar)
    shadow = cls.label == "shadow"
    if np.any(shadow):
        mu, _ = _first_flagged(cls, shadow)
        raise ShadowPoint(f"margin {mu} < -{GRAZING_TOL}: point is in shadow")
    xb = np.atleast_2d(cls.xbar)
    m = len(xb)
    v = np.column_stack((np.broadcast_to(s, m), xb, np.broadcast_to(t, m)))
    j = _fd_det(obstacle, phase, v)
    return j if cls.xbar.ndim == 2 else float(j[0])


# ---------------------------------------------------------------------------
# Inversion and the reflected phase
# ---------------------------------------------------------------------------

S_RANGE = (0.0, 2.0)  # ray parameters the grid seed searches
GRID_N_X = 24         # grid points per tangential axis of the grid seed
GRID_N_S = 24         # grid points in s of the grid seed
RESIDUAL_TOL = 1e-10  # largest flow-map residual an inversion may end with
MAX_ITER = 50         # Newton iterations before the inversion gives up
GRAZING_FLOOR = 1e-4  # smallest seed margin an inversion starts from


@lru_cache(maxsize=32)
def _newton_source(d: int, kind: str) -> str:
    """Straight-line float source of ``_invert``'s Newton kernel for d
    tangential variables and a phase kind ('plane', 'spherical', 'convex').
    ``record(xs)``: the boundary point over xs from one ``jet_at(xs, 2)`` as
    the tuple (margin, F, xs, xi_r, xi, grad F, hess F, 1 + |grad F|^2, and
    point - source if spherical); it raises what ``classify_boundary_point``
    raises.  ``residual(s, rec, target)``: (F, xbar) + 2 s xi_r - target.
    ``augmented(s, rec, r)``: the rows [A | -r] of ``_spatial_block``'s A.
    Sums are 0 + a0 * b0 + ... left to right, as ``sum`` adds, so each entry
    keeps its bits.  Constants are ints; phase constants are names."""
    seq, dims, n = ", ".join, range(d), range(d + 1)
    x, g, e = [f"x{i}" for i in dims], [f"g{i}" for i in dims], [f"e{k}" for k in n]
    p, xi, xr = ["f", *x], [f"xi{k}" for k in n], [f"xr{k}" for k in n]
    h = [[f"h{i}_{j}" for j in dims] for i in dims]
    rec = seq(["mu", *p, *xr, *xi, *g, *sum(h, []), "q"] + (e if kind == "spherical" else []))

    def dot(a, b):  # sum(u * v for u, v in zip(a, b))
        return "(0" + "".join(f" + {u} * {v}" for u, v in zip(a, b)) + ")"

    def rows(m):
        return "[" + seq(f"[{seq(row)}]" for row in m) + "]"

    lines = ["def record(xs):", f"    [{seq(x)}] = xs", f"    f, [{seq(g)}], {rows(h)} = jet_at(xs, 2)"]
    if kind == "plane":
        lines.append(f"    [{seq(xi)}] = theta")
    elif kind == "spherical":
        lines += [*(f"    e{k} = {a} - source[{k}]" for k, a in enumerate(p)),
                  f"    rho = sqrt{dot(e, e)}", "    if rho == 0:\n        raise at_source()",
                  *(f"    xi{k} = e{k} / rho" for k in n)]
    else:
        lines.append(f"    [{seq(xi)}] = grad_psi(array([{seq(p)}])).tolist()")
    lines += [f"    g_xib = {dot(g, xi[1:])}", "    mu = g_xib - xi0",
              "    if mu != mu:\n        raise nan_margin(array(xs))",
              f"    q = 1 + {dot(g, g)}", "    factor = 2 * (xi0 - g_xib) / q",
              "    xr0 = xi0 - factor", *(f"    xr{1 + i} = xi{1 + i} + factor * g{i}" for i in dims),
              f"    return {rec}",
              "def residual(s, rec, target):",
              "    return [" + seq(f"rec[{1 + k}] + 2 * s * rec[{d + 2 + k}] - target[{k}]"
                                  for k in n) + "]",
              "def augmented(s, rec, r):", f"    {rec} = rec"]
    # a[j] = d xi1 / d x_j and b[i][j] = d xibar_i / d x_j of the incoming field.
    a, b = [f"a{j}" for j in dims], [[f"b{i}_{j}" for j in dims] for i in dims]
    if kind == "plane":
        a, b = ["0"] * d, [["0"] * d] * d
    elif kind == "spherical":
        lines += [f"    rho = sqrt(0{''.join(f' + {v} ** 2' for v in e)})",
                  *(f"    gr{j} = xi0 * g{j} + xi{1 + j}" for j in dims),
                  *(f"    a{j} = (g{j} - xi0 * gr{j}) / rho" for j in dims),
                  *(f"    b{i}_{j} = ({int(i == j)} - xi{1 + i} * gr{j}) / rho"
                    for i in dims for j in dims)]
    else:
        lines += [f"    da, db = xi_jacobian(phase, obstacle, covector(array([{seq(x)}]), xi0, "
                  f"array([{seq(xi[1:])}]), array([{seq(p)}])), array([{seq(g)}]))",
                  f"    [{seq(a)}], {rows(b)} = da.tolist(), db.tolist()"]
    # As in _reflected_field_derivative: grad f splits into a field and a curvature part,
    # and K + L = d_xib + g (x) (df_field + df_curv) + c hess F.
    lines += ["    w = 2 / q",
              *(f"    ff{j} = w * ({a[j]} - {dot(g, [row[j] for row in b])})" for j in dims),
              *(f"    fc{i} = -w * {dot(h[i], xr[1:])}" for i in dims),
              "    two_s, c = 2 * s, xi0 - xr0",
              "    return [[2 * xr0, " + "".join(f"g{j} + two_s * ({a[j]} - ff{j} - fc{j}), "
                                               for j in dims) + "-r[0]],",
              *(f"            [2 * xr{1 + i}, " + "".join(
                  f"{int(i == j)} + two_s * ({b[i][j]} + g{i} * (ff{j} + fc{j}) + c * h{i}_{j}), "
                  for j in dims) + f"-r[{1 + i}]]," for i in dims), "    ]"]
    return "\n".join(lines)


def _newton_kernel(obstacle: Obstacle, phase: Phase):
    """(record, residual, augmented) of ``_newton_source``, run by ``_generate``
    with the obstacle's jet and the phase's theta, source, or ``grad_psi`` and
    ``_xi_jacobian`` bound as names."""
    names = {"jet_at": obstacle._jet_at, "array": np.array, "nan_margin": _nan_margin}
    if isinstance(phase, PlanePhase):
        kind, names["theta"] = "plane", phase.theta.tolist()
    elif isinstance(phase, SphericalPhase):
        kind = "spherical"
        names.update(source=phase.source.tolist(), sqrt=math.sqrt, at_source=partial(
            SourceOnBoundary, "evaluation point coincides with the source"))
    else:
        kind = "convex"
        names.update(grad_psi=phase.grad_psi, xi_jacobian=_xi_jacobian, phase=phase,
                     obstacle=obstacle, covector=BoundaryCovector)
    ns = _generate(_newton_source(obstacle.dim_tangential, kind), names)
    return ns["record"], ns["residual"], ns["augmented"]


def _solve(rows: list):
    """x with a x = b from the augmented rows [a | b] (overwritten), by
    elimination with partial pivoting; None when a pivot is exactly zero.
    The pivot is the first row of largest abs (a NaN is never larger)."""
    n = len(rows)
    for k in range(n):
        p, big = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if abs(rows[i][k]) > big:
                p, big = i, abs(rows[i][k])
        if big == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(n):  # Gauss-Jordan: clear column k in every other row
            if i != k:
                row = rows[i]
                m = row[k] / pivot[k]
                for j in range(k + 1, n + 1):
                    row[j] -= m * pivot[j]
    return [row[n] / row[k] for k, row in enumerate(rows)]


def _checked_y(y, d: int) -> list:
    """y as a list of d + 2 finite floats, or ``InvalidArgument`` naming its shape."""
    ys = _reals(y)
    if ys is None or len(ys) != d + 2:
        try:
            shape = np.shape(y)
        except ValueError:  # a ragged nesting has no shape
            shape = None
        if shape is not None and shape != (d + 2,):
            raise InvalidArgument(f"y has shape {shape}, expected ({d + 2},)")
        raise InvalidArgument(f"y must be {d + 2} finite real numbers, got {y!r}")
    if not all(map(math.isfinite, ys)):
        raise InvalidArgument(f"y must be finite, got {ys}")
    return ys


def _checked_seed(seed, d: int) -> tuple[float, list]:
    """A seed (s, xbar) as a float and a list of d floats, or ``InvalidArgument``:
    s one finite real number, xbar d of them."""
    try:
        s, xbar = seed
    except (TypeError, ValueError):  # not a pair
        s = xbar = None
    if (s := _finite(s)) is None:
        raise InvalidArgument(f"seed must be a pair (s, xbar) with s a finite number, got {seed!r}")
    xs = _reals(xbar)
    if xs is None or len(xs) != d or not all(map(math.isfinite, xs)):
        raise InvalidArgument(f"seed xbar must be {d} finite floats, got {xbar!r}")
    return s, xs


def invert_flow(obstacle: Obstacle, phase: Phase, y, seed=None) -> tuple[float, np.ndarray, float]:
    """Invert the reflected flow map at a spacetime point y = (y1, ybar, t').

    Damped Newton on the spatial part with the closed-form Jacobian of the
    flow map, seeded by a coarse grid search over (s, xbar) when no seed is given.
    Near-grazing seeds are refused: the inverse is merely continuous there
    and the Newton system degenerates.  The loop runs the generated float
    code of ``_newton_source``, one ``record`` per iterate.  A y that is not d + 2 finite real numbers
    of shape (d + 2,), and a seed that is not a finite real s with d finite
    real numbers for xbar, raise ``InvalidArgument`` before anything is
    evaluated.
    """
    s, xs, t, _ = _invert(obstacle, phase, y, seed)
    return s, np.array(xs), t


def _invert(obstacle: Obstacle, phase: Phase, y, seed):
    """``invert_flow`` as (s, xbar, t, rec): xbar a list of floats and rec the
    Newton kernel's record of the converged point."""
    d = obstacle.dim_tangential
    ys = _checked_y(y, d)
    if seed is not None:
        s, xs = _checked_seed(seed, d)
    target, t_prime = ys[:-1], ys[-1]

    if (math.hypot(*target[1:]) <= obstacle.radius
            and target[0] < obstacle._jet_at(target[1:], 0) - 1e-12):
        raise OutsideRange("point lies strictly inside the obstacle")

    if seed is None:
        seed = _grid_seed(obstacle, phase, np.array(target))
        if seed is None:
            raise OutsideRange("grid search found no admissible seed")
        s, xs = float(seed[0]), seed[1].tolist()

    record, residual, augmented = _newton_kernel(obstacle, phase)
    rec = record(xs)
    if rec[0] < GRAZING_FLOOR:
        raise GrazingSingular(f"seed margin {rec[0]} below floor {GRAZING_FLOOR}")

    r = residual(s, rec, target)
    rn = math.hypot(*r)
    for it in range(MAX_ITER):
        if rn <= 1e-14:
            break
        delta = _solve(augmented(s, rec, r))
        if delta is None:
            raise NoConvergence(it, rn)
        # Damping: halve until the residual decreases.
        lam = 1.0
        for _ in range(40):
            s_new = max(s + lam * delta[0], 0.0)
            xs_new = [x + lam * dx for x, dx in zip(xs, delta[1:])]
            if (math.hypot(*xs_new) > obstacle.radius
                    or (trial := record(xs_new))[0] < 1e-8):
                lam *= 0.5
                continue
            r_new = residual(s_new, trial, target)
            rn_new = math.hypot(*r_new)
            if rn_new < rn:
                s, xs, r, rn, rec = s_new, xs_new, r_new, rn_new, trial
                break
            lam *= 0.5
        else:
            if rn > RESIDUAL_TOL:
                raise NoConvergence(it + 1, rn, stalled=True)
            break
    if rn > RESIDUAL_TOL:
        raise NoConvergence(MAX_ITER, rn)
    if s < -1e-12:
        raise OutsideRange(f"converged to negative ray parameter s = {s}")
    return max(s, 0.0), xs, t_prime - 2.0 * max(s, 0.0), rec


def _grid_seed(obstacle: Obstacle, phase: Phase, y_space):
    """(s, xbar) on the seed grid whose flow point lies nearest y_space; the
    first in mesh-then-s order on ties, None when no mesh point is lit.

    One classification of the whole in-disk mesh; the errors of unlit mesh
    points are masked to inf before one flattened argmin.
    """
    d = obstacle.dim_tangential
    axes = [np.linspace(-obstacle.radius, obstacle.radius, GRID_N_X)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= obstacle.radius]
    cls = classify_boundary_point(obstacle, phase, mesh)
    s_grid = np.linspace(S_RANGE[0], S_RANGE[1], GRID_N_S)
    diff = cls.image(s_grid[:, None, None]) - y_space
    # _rowdot is the dot np.linalg.norm takes of one vector, row by row.
    err = np.sqrt(_rowdot(diff, diff)).T
    err[cls.margin < GRAZING_FLOOR] = np.inf
    k = int(np.argmin(err))
    if not err.flat[k] < np.inf:
        return None
    i, j = divmod(k, GRID_N_S)
    return s_grid[j], mesh[i]


def reflected_phase_at(obstacle: Obstacle, phase: Phase, y, seed=None):
    """Value and spacetime gradient of the reflected phase at y.

    The phase carries the boundary value of the incoming phase along the
    reflected ray; its gradient is the constant (xi_r, -1) of that ray.
    Both are read from the float record of the point the inversion
    converged to: the boundary point (F, xbar) feeds ``phase.psi`` and the
    reflected covector the gradient, with no second assembly.
    """
    _, _, t, rec = _invert(obstacle, phase, y, seed)
    d = obstacle.dim_tangential  # rec holds the point (F, xbar) and then xi_r
    return -t + phase.psi(list(rec[1:d + 2])), np.array([*rec[d + 2:2 * d + 3], -1.0])


# ---------------------------------------------------------------------------
# Flow-map verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RfmVerdict:
    passed: bool
    n_samples: int
    n_illuminated: int
    tries: int                   # candidates (rows) drawn; 200 * budget caps them
    worst_bound_gap: float       # min over samples of j_analytic - 2*margin
    worst_fd_rel_error: float    # max relative |j_analytic - j_fd|
    injectivity_failures: list
    bound_failures: list
    fd_failures: list
    rows: list                   # per-sample CSV rows

    def summary(self) -> str:
        if self.n_illuminated == 0:
            return "INCONCLUSIVE"
        return "PASS" if self.passed else "FAIL"


FD_MARGIN_FLOOR = 1e-3  # smallest margin at which the FD Jacobian is compared
FD_REL_TOL = 1e-6       # largest relative analytic-vs-FD Jacobian gap that passes
BOUND_SLACK = 1e-9      # how far j_analytic may fall below 2*margin and still pass
DRAW_BLOCK = 1 << 12    # most rows (tries) one chunk of the draw takes: bounds its batches
# Largest sample budget ``verify_rfm`` and the ``--budget`` flag accept: the
# draw keeps a record and a CSV row per sample, so memory grows with it.
MAX_BUDGET = 10**6


def _draw(obstacle: Obstacle, phase: Phase, rng, r: float, s0: float, budget: int):
    """The rejection draw of ``verify_rfm``, in chunks of rows of raw doubles.

    Each try takes one row u of d + 2 raw doubles: the candidate xb = -r +
    (2r) u[:d], rejected outside |xb| <= r or in shadow, and for a kept
    sample s = s0 u[d] and t = -1 + 2 u[d + 1]; a rejected try uses up its
    whole row.  Tries stop at ``budget`` samples or 200 * budget tries.
    rng.random((k, d + 2)) is k successive rng.random(d + 2) calls, so a
    chunk is k tries of the per-try loop: its in-disk rows are classified in
    one batch, and it keeps the first non-shadow rows it needs.  The
    generator then stands after the last chunk drawn, rows past the last
    sample included.

    Returns the samples' record (rows of the chunk batches), their domain
    rows (s, xbar, t) and the number of tries.
    """
    d = obstacle.dim_tangential
    cap = 200 * budget
    kept, doms = [], []
    n = tries = 0
    while n < budget and tries < cap:
        # 4 * budget rows: enough for a draw that keeps a quarter of its tries.
        u = rng.random((min(4 * budget, DRAW_BLOCK, cap - tries), d + 2))
        xb = -r + (2.0 * r) * u[:, :d]
        # _rowdot is the dot _norm takes of one vector, row by row.
        inside = np.flatnonzero(np.sqrt(_rowdot(xb, xb)) <= r)
        cls = _assemble(obstacle, phase, xb[inside])
        picked = np.flatnonzero(cls.label != "shadow")[:budget - n]  # a NaN margin reads grazing
        nan = np.flatnonzero(np.isnan(cls.margin[picked]))
        if nan.size:  # the first NaN row tried
            raise _nan_margin(cls.xbar[picked[nan[0]]])
        rows = inside[picked]  # the samples' rows of the chunk
        n += len(rows)
        tries += int(rows[-1]) + 1 if n == budget else len(u)  # up to the last sample kept
        kept.append(_gather([(cls, picked)]))
        doms.append(np.column_stack((0.0 + s0 * u[rows, d], xb[rows], -1.0 + 2.0 * u[rows, d + 1])))
    return _gather([(rec, slice(None)) for rec in kept]), np.concatenate(doms), tries


def _integer(value, name: str) -> int:
    """value as an int through ``operator.index`` (Python and numpy integers
    pass), or ``InvalidArgument`` naming it."""
    try:
        return index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None


def verify_rfm(obstacle: Obstacle, phase: Phase, s0: float = 1.0,
               budget: int = 1000, seed: int = 42) -> RfmVerdict:
    """Sampled evidence that the reflected flow map is an injective local
    diffeomorphism off the grazing face.

    Checks, on ``budget`` samples of [0, s0] x (grazing U illuminated):
    (i) none of min(10^4, 5 * samples) uniformly drawn pairs of samples
    maps to one image (image distance < 1e-9 at domain distance > 1e-6):
    this flags exact collisions only and has not fired on a real map,
    (ii) the analytic Jacobian respects its 2*margin lower bound,
    (iii) analytic and finite-difference Jacobians agree (only on samples
    whose margin clears FD_MARGIN_FLOOR: below that the FD determinant
    is dominated by differencing noise).  With no illuminated sample
    nothing was checked: the verdict does not pass and reads INCONCLUSIVE.
    The draw stops at 200 * budget candidates, so it can end with fewer
    samples than ``budget``; ``tries`` says how many it drew.

    Each try of the rejection draw takes one row of d + 2 raw doubles from
    the generator, and the draw classifies its candidates in chunks of rows
    (see ``_draw``); the injectivity pairs read on from the last chunk
    drawn.  The Jacobians, checks, rows and failure lists are array
    passes over the samples' record; a grazing sample gets no Jacobian (NaN
    in its row) and fails no check.  A budget that is not an integer in
    1..MAX_BUDGET, a seed that is not a nonnegative integer and an s0 that
    is not a finite nonnegative number raise ``InvalidArgument``, before
    anything is drawn.
    """
    budget, seed = _integer(budget, "budget"), _integer(seed, "seed")
    if budget <= 0:
        raise InvalidArgument("budget must be positive")
    if budget > MAX_BUDGET:
        raise InvalidArgument(f"budget {budget} exceeds MAX_BUDGET = {MAX_BUDGET}")
    if seed < 0:
        raise InvalidArgument(f"seed must be nonnegative, got {seed}")
    if (s0 := _finite(s0, 0.0)) is None:  # outside the ranges rng.uniform(0, s0) takes
        raise InvalidArgument("s0 must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    # Samples stay a difference step inside the domain, where jacobian_fd steps.
    recs, dom, tries = _draw(obstacle, phase, rng, obstacle.radius - FD_STEP, s0, budget)
    n = len(dom)
    lit = recs.label == "illuminated"
    fd = lit & (recs.margin >= FD_MARGIN_FLOOR)
    # The Jacobians as one batch each, NaN where a sample is not compared.
    j_an, j_fd = np.full((2, n), np.nan)
    if lit.any():
        j_an[lit] = np.linalg.det(_spatial_block(obstacle, phase, dom[lit, 0],
                                                 _gather([(recs, lit)])))
    if fd.any():
        j_fd[fd] = _fd_det(obstacle, phase, dom[fd])

    # NaN entries compare false, so a sample fails only the checks it was given.
    bound = 2.0 * recs.margin
    gap = j_an - bound
    rel = np.abs(j_an - j_fd) / np.maximum(np.abs(j_an), np.abs(j_fd))
    bound_fail = gap < -BOUND_SLACK
    fd_fail = rel > FD_REL_TOL
    ok = ~(bound_fail | fd_fail)
    rows = list(zip(dom[:, 0].tolist(), dom[:, 1:-1], dom[:, -1].tolist(), recs.margin.tolist(),
                    j_an.tolist(), j_fd.tolist(), bound.tolist(), ok.tolist()))
    bound_failures = [rows[k][:5] for k in np.flatnonzero(bound_fail)]
    fd_failures = [rows[k][:6] for k in np.flatnonzero(fd_fail)]
    n_illum = int(lit.sum())

    injectivity_failures = []
    if n >= 2:
        idx = rng.integers(0, n, size=(min(10000, 5 * n), 2))
        idx = idx[idx[:, 0] != idx[:, 1]]
        # One image per sample, from its record.
        img_pts = np.column_stack((recs.image(dom[:, :1]), dom[:, -1] + 2 * dom[:, 0]))
        dom_dist = np.linalg.norm(dom[idx[:, 0]] - dom[idx[:, 1]], axis=1)
        img_dist = np.linalg.norm(img_pts[idx[:, 0]] - img_pts[idx[:, 1]], axis=1)
        hit = (img_dist < 1e-9) & (dom_dist > 1e-6)
        injectivity_failures = [(rows[i][:3], rows[j][:3], a, b) for (i, j), a, b
                                in zip(idx[hit].tolist(), dom_dist[hit].tolist(),
                                       img_dist[hit].tolist())]

    passed = n_illum > 0 and not (bound_failures or fd_failures or injectivity_failures)
    return RfmVerdict(passed=passed, n_samples=n, n_illuminated=n_illum, tries=tries,
                      # fmin/fmax skip NaN: a NaN Jacobian never becomes the worst value.
                      worst_bound_gap=float(np.fmin.reduce(gap[lit], initial=np.inf)),
                      worst_fd_rel_error=float(np.fmax.reduce(rel[fd], initial=0.0)),
                      injectivity_failures=injectivity_failures,
                      bound_failures=bound_failures, fd_failures=fd_failures, rows=rows)
