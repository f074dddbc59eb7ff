"""Reference computations for the benchmark's checks, written apart from grazemap.

Nothing here imports grazemap.  Obstacles and phases are the benchmark's own
descriptions (the same ones it writes out as spec files), F and grad F are
evaluated straight from the polynomial terms, and derivatives of the flow map
come from the complex step ``Im f(x + ih) / h``, which involves no real
differencing and so shares no approximation with the program's central
differences.  Every function accepts complex input where a complex step needs
it, and works on stacked points of shape (..., 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CSTEP = 1e-30


# ---------------------------------------------------------------------------
# Obstacles and phases, as the benchmark describes them
# ---------------------------------------------------------------------------

def _derive(terms: dict, var: int) -> dict:
    out: dict = {}
    for expo, coeff in terms.items():
        if expo[var] == 0:
            continue
        new = list(expo)
        new[var] -= 1
        out[tuple(new)] = out.get(tuple(new), 0.0) + coeff * expo[var]
    return out


def _eval(terms: dict, x):
    x = np.asarray(x)
    total = np.zeros(x.shape[:-1], dtype=x.dtype)
    for (e2, e3), c in terms.items():
        total = total + c * x[..., 0] ** e2 * x[..., 1] ** e3
    return total


@dataclass(frozen=True)
class ObstacleSpec:
    """F = sum of ``terms`` {(e2, e3): coeff} on |xbar| <= radius.

    ``kind`` selects how the spec file is written: 'polynomial', 'sphere'
    (the builtin F = 1 - |xbar|^2) or 'flat' (1 - exp(-1/|xbar|^4), which has
    no terms: every Taylor coefficient at the apex vanishes).
    """

    name: str
    kind: str
    radius: float
    terms: dict = field(default_factory=dict)

    def text(self) -> str:
        head = f"# {self.name}\ndim = 3\n"
        if self.kind == "sphere":
            return head + f"kind = builtin\nname = sphere\nradius = {self.radius!r}\n"
        if self.kind == "flat":
            return head + f"kind = symmetric-h\nh = exp-flat\nradius = {self.radius!r}\n"
        lines = [f"term = {float(c)!r} {e2} {e3}" for (e2, e3), c in self.terms.items()]
        return head + f"kind = polynomial\nradius = {self.radius!r}\n" + "\n".join(lines) + "\n"

    def value(self, x):
        return _eval(self.terms, x)

    def gradient(self, x):
        return np.stack([_eval(_derive(self.terms, 0), x), _eval(_derive(self.terms, 1), x)],
                        axis=-1)

    def hessian(self, x):
        d0, d1 = _derive(self.terms, 0), _derive(self.terms, 1)
        h00, h01, h11 = (_eval(_derive(d0, 0), x), _eval(_derive(d0, 1), x),
                         _eval(_derive(d1, 1), x))
        return np.stack([np.stack([h00, h01], axis=-1), np.stack([h01, h11], axis=-1)], axis=-2)


def sphere_spec(radius: float) -> ObstacleSpec:
    return ObstacleSpec("sphere", "sphere", radius, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})


@dataclass(frozen=True)
class PhaseSpec:
    """Plane (``vec`` = theta), spherical (``vec`` = source b) or
    convex-distance (``vec`` = center, distance to a sphere of ``radius``)."""

    name: str
    kind: str
    vec: tuple
    radius: float = 0.0

    def text(self) -> str:
        v = " ".join(repr(float(c)) for c in self.vec)
        if self.kind == "plane":
            return f"# {self.name}\nkind = plane\ntheta = {v}\n"
        if self.kind == "spherical":
            return f"# {self.name}\nkind = spherical\nb = {v}\n"
        return f"# {self.name}\nkind = convex-distance\ncenter = {v}\nradius = {self.radius!r}\n"

    def grad(self, p):
        """Spatial gradient of psi at full points p of shape (..., 3)."""
        p = np.asarray(p)
        c = np.asarray(self.vec, dtype=float)
        if self.kind == "plane":
            return np.broadcast_to(c, p.shape).astype(p.dtype)
        d = p - c
        return d / np.sqrt(np.sum(d * d, axis=-1))[..., None]

    def psi(self, p):
        p = np.asarray(p)
        c = np.asarray(self.vec, dtype=float)
        if self.kind == "plane":
            return p @ c
        d = p - c
        r = np.sqrt(np.sum(d * d, axis=-1))
        return r - self.radius if self.kind == "convex-distance" else r


# ---------------------------------------------------------------------------
# Boundary covectors, reflection and the flow map
# ---------------------------------------------------------------------------

def boundary_point(ob: ObstacleSpec, xb):
    xb = np.asarray(xb)
    return np.concatenate((ob.value(xb)[..., None], xb), axis=-1)


def incoming(ob: ObstacleSpec, ph: PhaseSpec, xb):
    """Incoming unit covector (xi1, xibar...) stacked as (..., 3)."""
    return ph.grad(boundary_point(ob, xb))


def margin(ob: ObstacleSpec, ph: PhaseSpec, xb):
    """Tangency margin <grad F, xibar> - xi1."""
    xi = incoming(ob, ph, xb)
    return np.sum(ob.gradient(xb) * xi[..., 1:], axis=-1) - xi[..., 0]


def reflected(ob: ObstacleSpec, ph: PhaseSpec, xb):
    """Mirror image of the incoming covector in the tangent plane: xi - 2 (xi.nu) nu."""
    xi = incoming(ob, ph, xb)
    g = ob.gradient(xb)
    nu = np.concatenate((np.ones(g.shape[:-1] + (1,), dtype=g.dtype), -g), axis=-1)
    nu = nu / np.sqrt(np.sum(nu * nu, axis=-1))[..., None]
    return xi - 2.0 * np.sum(xi * nu, axis=-1)[..., None] * nu


def forward(ob: ObstacleSpec, ph: PhaseSpec, s, xb):
    """Spatial flow map (F(xbar), xbar) + 2 s xi_r(xbar)."""
    s = np.asarray(s)
    return boundary_point(ob, xb) + 2.0 * s[..., None] * reflected(ob, ph, xb)


def flow_jacobian(ob: ObstacleSpec, ph: PhaseSpec, s, xb) -> np.ndarray:
    """d(y1, ybar)/d(s, xbar) by complex steps, shape (..., 3, 3).

    The time row adds a unit column and leaves the determinant unchanged.
    """
    s = np.asarray(s, dtype=float)
    xb = np.asarray(xb, dtype=float)
    cols = [np.imag(forward(ob, ph, s + 1j * CSTEP, xb.astype(complex))) / CSTEP]
    for k in range(xb.shape[-1]):
        step = np.zeros(xb.shape[-1], dtype=complex)
        step[k] = 1j * CSTEP
        cols.append(np.imag(forward(ob, ph, s.astype(complex), xb + step)) / CSTEP)
    return np.stack(cols, axis=-1)


def flow_jacobian_det(ob: ObstacleSpec, ph: PhaseSpec, s, xb) -> np.ndarray:
    return np.linalg.det(flow_jacobian(ob, ph, s, xb))


def invert(ob: ObstacleSpec, ph: PhaseSpec, y_space, start, max_iter: int = 60):
    """Newton on the complex-step Jacobian from a start point (s, xbar) nearby."""
    v = np.array([float(start[0]), *np.asarray(start[1], dtype=float)])
    y_space = np.asarray(y_space, dtype=float)
    for _ in range(max_iter):
        r = forward(ob, ph, v[0], v[1:]) - y_space
        if float(np.max(np.abs(r))) <= 4e-16 * max(1.0, float(np.max(np.abs(y_space)))):
            break
        v = v - np.linalg.solve(flow_jacobian(ob, ph, v[0], v[1:]), r)
    return float(v[0]), v[1:].copy()


# ---------------------------------------------------------------------------
# Grazing sets
# ---------------------------------------------------------------------------

def grazing_h(ob: ObstacleSpec, bbar, xb):
    """H = F - 1 - grad F . (xbar - bbar) for a source at (1, bbar)."""
    xb = np.asarray(xb, dtype=float)
    return ob.value(xb) - 1.0 - np.sum(ob.gradient(xb) * (xb - np.asarray(bbar)), axis=-1)


def tangency_order(ob: ObstacleSpec, direction, j_max: int = 16) -> tuple[int, float | None]:
    """Index of the first nonzero directional Taylor coefficient of F at the apex.

    Returns (order, leading coefficient), or (j_max, None) when every
    coefficient up to j_max vanishes.
    """
    d = np.asarray(direction, dtype=float)
    coeffs = [0.0] * (j_max + 1)
    for (e2, e3), c in ob.terms.items():
        deg = e2 + e3
        if 1 <= deg <= j_max:
            coeffs[deg] += c * d[0] ** e2 * d[1] ** e3
    for j in range(2, j_max + 1):
        if coeffs[j] != 0.0:
            return j, coeffs[j]
    return j_max, None


def leading_hessian_min_eig(ob: ObstacleSpec, n_angles: int = 3600) -> float:
    """Smallest Hessian eigenvalue of the leading homogeneous part of 1 - F on the unit circle."""
    degs = sorted({e2 + e3 for (e2, e3) in ob.terms if e2 + e3 >= 2})
    lead = ObstacleSpec("lead", "polynomial", 1.0,
                        {e: -c for e, c in ob.terms.items() if sum(e) == degs[0]})
    ang = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return float(np.min(np.linalg.eigvalsh(lead.hessian(pts))))
