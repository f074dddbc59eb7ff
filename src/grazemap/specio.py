"""Plain-text spec files for obstacles and phases.

Both formats are key = value lines; ``#`` starts a comment.  Parse errors are
line-anchored: every diagnostic names the file and 1-based line number.  Each
kind accepts only the keys listed for it below (``dim`` and ``radius`` for all
obstacles); any other key is an error.

Obstacle::

    dim = 3
    kind = polynomial | symmetric-h | builtin
    radius = 1.0                    # optional, default 1.0
    term = <coeff> <e2> ... <en>    # polynomial: one monomial per line
    hcoeffs = c1 c2 ...             # symmetric-h: Taylor coefficients of h
    h = exp-flat                    # symmetric-h alternative: flat profile
    lambda = a11 a12 ... (row-major)
    name = sphere                   # builtin

Phase::

    kind = plane | spherical | convex-distance
    theta = ...      # plane
    b = ...          # spherical; must lie outside the obstacle, when one is given
    center = ...     # convex-distance; must lie outside the obstacle, likewise
    radius = ...     # convex-distance
"""

from __future__ import annotations

import math

import numpy as np

from .diffgeo import (GrazemapError, InvalidArgument, NotNormalized, Obstacle,
                      PolynomialSurface, SymmetricH, sphere_obstacle)
from .phases import ConvexPhase, Phase, PlanePhase, SphericalPhase


class SpecError(GrazemapError, ValueError):
    """Line-anchored spec-file error."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _read_entries(path: str) -> list[tuple[int, str, str]]:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise SpecError(path, lineno, f"expected 'key = value', got {text!r}")
            key, value = text.split("=", 1)
            entries.append((lineno, key.strip().lower(), value.strip()))
    return entries


def _floats(path, lineno, value, expect=None) -> list[float]:
    try:
        out = [float(tok) for tok in value.split()]
    except ValueError as exc:
        raise SpecError(path, lineno, f"expected numbers, got {value!r}") from exc
    if not all(math.isfinite(x) for x in out):
        raise SpecError(path, lineno, f"expected finite numbers, got {value!r}")
    if expect is not None and len(out) != expect:
        raise SpecError(path, lineno, f"expected {expect} numbers, got {len(out)}")
    return out


_OBSTACLE_KEYS = {"polynomial": {"kind", "dim", "radius", "term"},
                  "symmetric-h": {"kind", "dim", "radius", "hcoeffs", "h", "lambda"},
                  "builtin": {"kind", "dim", "radius", "name"}}
_PHASE_KEYS = {"plane": {"kind", "theta"}, "spherical": {"kind", "b"},
               "convex-distance": {"kind", "center", "radius"}}


def _reject_unknown_keys(path: str, entries, kind: str, accepted: dict, what: str) -> None:
    """Spec error on the first key a known kind does not accept; an unknown
    kind is left to the caller, which reports the kind line."""
    for lineno, key, _ in entries:
        if kind in accepted and key not in accepted[kind]:
            raise SpecError(path, lineno, f"unknown key {key!r} for a {kind} {what}")


def parse_obstacle(path: str) -> Obstacle:
    entries = _read_entries(path)
    values = {}
    terms = []
    for lineno, key, value in entries:
        if key == "term":
            terms.append((lineno, value))
        elif key in values:
            raise SpecError(path, lineno, f"duplicate key {key!r}")
        else:
            values[key] = (lineno, value)

    def get(key, default=None):
        return values.get(key, (0, default))

    kind_line, kind = get("kind")
    if kind is None:
        raise SpecError(path, 1, "missing required key 'kind'")
    dim_line, dim_raw = get("dim", "3")
    try:
        dim = int(dim_raw)
    except ValueError as exc:
        raise SpecError(path, dim_line or 1, f"dim must be an integer, got {dim_raw!r}") from exc
    if dim < 2:
        raise SpecError(path, dim_line or 1, f"dim must be >= 2, got {dim}")
    d = dim - 1
    rad_line, rad_raw = get("radius", "1.0")
    try:
        radius = float(rad_raw)
    except ValueError as exc:
        raise SpecError(path, rad_line or 1, f"radius must be a number, got {rad_raw!r}") from exc
    if not (radius > 0.0 and math.isfinite(radius)):
        raise SpecError(path, rad_line or 1, "radius must be positive and finite")
    _reject_unknown_keys(path, entries, kind, _OBSTACLE_KEYS, "obstacle")

    if kind == "polynomial":
        if not terms:
            raise SpecError(path, kind_line, "polynomial obstacle needs at least one 'term' line")
        poly_terms: dict[tuple[int, ...], float] = {}
        for lineno, value in terms:
            nums = value.split()
            if len(nums) != 1 + d:
                raise SpecError(path, lineno,
                                f"term needs coefficient plus {d} exponents, got {len(nums)} fields")
            try:
                coeff = float(nums[0])
                expo = tuple(int(tok) for tok in nums[1:])
            except ValueError as exc:
                raise SpecError(path, lineno, f"bad term {value!r}") from exc
            if not math.isfinite(coeff):
                raise SpecError(path, lineno, f"term coefficient must be finite, got {nums[0]!r}")
            if any(e < 0 for e in expo):
                raise SpecError(path, lineno, "exponents must be nonnegative")
            if expo in poly_terms:
                raise SpecError(path, lineno, f"duplicate multi-index {expo}")
            poly_terms[expo] = coeff
        try:
            surface = PolynomialSurface.from_terms(d, poly_terms)
        except NotNormalized as exc:
            raise SpecError(path, terms[0][0], f"unnormalized surface: {exc}") from exc
        return Obstacle(surface, radius=radius)

    if kind == "symmetric-h":
        lam_line, lam_raw = get("lambda")
        lam = None
        if lam_raw is not None:
            nums = _floats(path, lam_line, lam_raw, expect=d * d)
            lam = np.array(nums).reshape(d, d)
        h_line, h_tag = get("h")
        hc_line, hc_raw = get("hcoeffs")
        if h_tag is not None and hc_raw is not None:
            raise SpecError(path, hc_line, "give either 'h = exp-flat' or 'hcoeffs', not both")
        try:
            if h_tag is not None:
                if h_tag != "exp-flat":
                    raise SpecError(path, h_line, f"unknown profile tag {h_tag!r}")
                surface = SymmetricH.exp_flat(d, lam=lam)
            elif hc_raw is not None:
                surface = SymmetricH.from_hcoeffs(d, _floats(path, hc_line, hc_raw), lam=lam)
            else:
                raise SpecError(path, kind_line, "symmetric-h needs 'hcoeffs' or 'h = exp-flat'")
        except NotNormalized as exc:
            raise SpecError(path, hc_line or h_line or kind_line, str(exc)) from exc
        except InvalidArgument as exc:  # a singular lambda, the one argument left unchecked
            raise SpecError(path, lam_line, str(exc)) from exc
        return Obstacle(surface, radius=radius)

    if kind == "builtin":
        name_line, name = get("name")
        if name is None:
            raise SpecError(path, kind_line, "builtin obstacle needs a 'name' line")
        if name == "sphere":
            return sphere_obstacle(dim_tangential=d, radius=radius)
        raise SpecError(path, name_line, f"unknown builtin obstacle {name!r}")

    raise SpecError(path, kind_line, f"unknown obstacle kind {kind!r}")


def _require_outside(path: str, line: int, raw: str, point, obstacle: Obstacle,
                     what: str, sym: str) -> None:
    """Spec error unless ``point`` lies outside the obstacle: not both
    |pbar| <= radius and p1 <= F(pbar)."""
    if np.linalg.norm(point[1:]) <= obstacle.radius:
        p1, f_p = float(point[0]), float(obstacle.value(point[1:]))
        if p1 <= f_p:
            raise SpecError(path, line, f"{what} {raw!r} is not outside the obstacle: "
                            f"{sym}1 = {p1!r} <= F({sym}bar) = {f_p!r}")


def parse_phase(path: str, dim: int = 3, obstacle: Obstacle | None = None) -> Phase:
    """Parse a phase spec; with ``obstacle``, a spherical source or a
    convex-distance center p on or inside it (|pbar| <= radius and
    p1 <= F(pbar)) is a spec error, since its rays cannot light the boundary
    from outside."""
    entries = _read_entries(path)
    values = {}
    for lineno, key, value in entries:
        if key in values:
            raise SpecError(path, lineno, f"duplicate key {key!r}")
        values[key] = (lineno, value)

    kind_line, kind = values.get("kind", (0, None))
    if kind is None:
        raise SpecError(path, 1, "missing required key 'kind'")
    _reject_unknown_keys(path, entries, kind, _PHASE_KEYS, "phase")

    if kind == "plane":
        line, raw = values.get("theta", (0, None))
        if raw is None:
            raise SpecError(path, kind_line, "plane phase needs 'theta'")
        theta = np.array(_floats(path, line, raw, expect=dim))
        n = float(np.linalg.norm(theta))
        if abs(n - 1.0) > 1e-9:
            raise SpecError(path, line, f"|theta| = {n}, expected a unit vector")
        return PlanePhase(theta=theta / n)

    if kind == "spherical":
        line, raw = values.get("b", (0, None))
        if raw is None:
            raise SpecError(path, kind_line, "spherical phase needs 'b'")
        source = np.array(_floats(path, line, raw, expect=dim))
        if obstacle is not None:
            _require_outside(path, line, raw, source, obstacle, "source", "b")
        return SphericalPhase(source=source)

    if kind == "convex-distance":
        cline, craw = values.get("center", (0, None))
        rline, rraw = values.get("radius", (0, None))
        if craw is None or rraw is None:
            raise SpecError(path, kind_line, "convex-distance needs 'center' and 'radius'")
        center = np.array(_floats(path, cline, craw, expect=dim))
        try:
            radius = float(rraw)
        except ValueError as exc:
            raise SpecError(path, rline, f"radius must be a number, got {rraw!r}") from exc
        if not (radius > 0.0 and math.isfinite(radius)):
            raise SpecError(path, rline, "radius must be positive and finite")
        if obstacle is not None:
            _require_outside(path, cline, craw, center, obstacle, "center", "c")
        return ConvexPhase.distance_to_sphere(center, radius)

    raise SpecError(path, kind_line, f"unknown phase kind {kind!r}")


def check_flags(tol: float, window: float, s0: float, budget: int) -> None:
    """Reject command-line overrides no computation can use, as ``<flags>``
    spec errors: tol, window and s0 must be finite, tol and s0 positive,
    window nonnegative and budget positive."""
    if not all(math.isfinite(x) for x in (tol, window, s0)):
        raise SpecError("<flags>", 0, "tolerance, window, and s0 overrides must be finite")
    if tol <= 0 or window < 0 or s0 <= 0:
        raise SpecError("<flags>", 0, "tolerance, window, and s0 overrides must be positive")
    if budget <= 0:
        raise SpecError("<flags>", 0, "InvalidBudget: --budget must be positive")
