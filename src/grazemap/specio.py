"""Plain-text spec files for obstacles and phases.

Both formats are key = value lines; ``#`` starts a comment.  README's "Spec
files" section shows every kind: an obstacle's ``dim`` defaults to 3 and its
``radius`` to 1.0, a ``term`` line holds a coefficient and one exponent per
tangential variable, and ``lambda`` is row-major.  Each kind accepts only its
keys in ``_ACCEPTED_KEYS``, the table README repeats; any other key is an
error.  Parse errors are line-anchored: every diagnostic names the file and
1-based line number.
"""

from __future__ import annotations

import math

import numpy as np

from .diffgeo import (GrazemapError, InvalidArgument, NotNormalized, Obstacle,
                      PolynomialSurface, SymmetricH, sphere_obstacle)
from .phases import ConvexPhase, Phase, PlanePhase, SphericalPhase
from .reflection import MAX_BUDGET


class SpecError(GrazemapError, ValueError):
    """Line-anchored spec-file error."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


# The keys each kind accepts; README's "accepted keys" table lists the same.
_ACCEPTED_KEYS = {
    "obstacle": {"polynomial": {"kind", "dim", "radius", "term"},
                 "symmetric-h": {"kind", "dim", "radius", "hcoeffs", "h", "lambda"},
                 "builtin": {"kind", "dim", "radius", "name"}},
    "phase": {"plane": {"kind", "theta"}, "spherical": {"kind", "b"},
              "convex-distance": {"kind", "center", "radius"}},
}


def _read_spec(path: str, what: str) -> tuple[dict[str, tuple[int, str]], list[tuple[int, str]]]:
    """``{key: (line, value)}`` of a ``what`` ('obstacle' or 'phase') spec, and
    the ``(line, value)`` of each ``term``, the one key that may repeat (the
    dict keeps its first).  Every check common to all kinds is made here:
    UTF-8, the ``key = value`` form, repeated keys, the kind, accepted keys."""
    with open(path, "rb") as fh:
        # Universal newlines; no byte of a multibyte UTF-8 character is \n or \r.
        # A leading byte-order mark, as some editors write, is not part of the text.
        lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    values, terms = {}, []
    for lineno, raw in enumerate(lines, start=1):
        try:
            entry = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise SpecError(path, lineno, f"byte {raw[exc.start]:#04x} is not valid UTF-8") from exc
        if not entry:
            continue
        if "=" not in entry:
            raise SpecError(path, lineno, f"expected 'key = value', got {entry!r}")
        key, value = entry.split("=", 1)
        key, value = key.strip().lower(), value.strip()
        if key == "term":
            terms.append((lineno, value))
        elif key in values:
            raise SpecError(path, lineno, f"duplicate key {key!r}")
        values.setdefault(key, (lineno, value))
    if "kind" not in values:
        raise SpecError(path, 1, "missing required key 'kind'")
    kind_line, kind = values["kind"]
    if kind not in _ACCEPTED_KEYS[what]:
        raise SpecError(path, kind_line, f"unknown {what} kind {kind!r}")
    for key, (lineno, _) in values.items():
        if key not in _ACCEPTED_KEYS[what][kind]:
            raise SpecError(path, lineno, f"unknown key {key!r} for a {kind} {what}")
    return values, terms


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


def _radius(path: str, line: int, raw: str) -> float:
    """A positive finite radius, the obstacle's or a convex-distance phase's."""
    try:
        radius = float(raw)
    except ValueError as exc:
        raise SpecError(path, line, f"radius must be a number, got {raw!r}") from exc
    if not (radius > 0.0 and math.isfinite(radius)):
        raise SpecError(path, line, "radius must be positive and finite")
    return radius


# Largest obstacle dimension: the samplers keep the draws from a cube that land
# in its inscribed ball, 0.64 % at dim = 10 and 0.25 % at dim = 11 (see README).
MAX_DIM = 10


def parse_obstacle(path: str) -> Obstacle:
    values, terms = _read_spec(path, "obstacle")
    kind_line, kind = values["kind"]
    dim_line, dim_raw = values.get("dim", (1, "3"))
    try:
        dim = int(dim_raw)
    except ValueError as exc:
        raise SpecError(path, dim_line, f"dim must be an integer, got {dim_raw!r}") from exc
    if dim < 2:
        raise SpecError(path, dim_line, f"dim must be >= 2, got {dim}")
    if dim > MAX_DIM:
        raise SpecError(path, dim_line, f"dim must be <= {MAX_DIM}, got {dim}")
    d = dim - 1
    radius_line, radius_raw = values.get("radius", (1, "1.0"))
    radius = _radius(path, radius_line, radius_raw)
    if not math.isfinite(d * radius * radius):  # the samplers compare squared norms with it
        raise SpecError(path, radius_line,
                        f"radius must keep (dim - 1) * radius^2 finite, got {radius_raw!r}")

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
        lam_line, lam_raw = values.get("lambda", (0, None))
        lam = None
        if lam_raw is not None:
            nums = _floats(path, lam_line, lam_raw, expect=d * d)
            lam = np.array(nums).reshape(d, d)
        h_line, h_tag = values.get("h", (0, None))
        hc_line, hc_raw = values.get("hcoeffs", (0, None))
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

    # builtin, the one kind left
    name_line, name = values.get("name", (0, None))
    if name is None:
        raise SpecError(path, kind_line, "builtin obstacle needs a 'name' line")
    if name == "sphere":
        return sphere_obstacle(dim_tangential=d, radius=radius)
    raise SpecError(path, name_line, f"unknown builtin obstacle {name!r}")


def _require_outside(path: str, line: int, raw: str, point, obstacle: Obstacle,
                     what: str, sym: str) -> None:
    """Spec error unless ``point`` lies outside the obstacle: not both
    |pbar| <= radius and p1 <= F(pbar).  F is read as a one-row batch, bit
    for bit the single-point value: a polynomial surface's first
    single-point call generates its jet kernel, which this one check would
    not repay, so parsing builds none."""
    if np.linalg.norm(point[1:]) <= obstacle.radius:
        p1, f_p = float(point[0]), float(obstacle.value(point[None, 1:])[0])
        if p1 <= f_p:
            raise SpecError(path, line, f"{what} {raw!r} is not outside the obstacle: "
                            f"{sym}1 = {p1!r} <= F({sym}bar) = {f_p!r}")


def parse_phase(path: str, dim: int = 3, obstacle: Obstacle | None = None) -> Phase:
    """Parse a phase spec; with ``obstacle``, a spherical source or a
    convex-distance center p on or inside it (|pbar| <= radius and
    p1 <= F(pbar)) is a spec error, since its rays cannot light the boundary
    from outside."""
    values, _ = _read_spec(path, "phase")
    kind_line, kind = values["kind"]

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

    # convex-distance, the one kind left
    cline, craw = values.get("center", (0, None))
    rline, rraw = values.get("radius", (0, None))
    if craw is None or rraw is None:
        raise SpecError(path, kind_line, "convex-distance needs 'center' and 'radius'")
    center = np.array(_floats(path, cline, craw, expect=dim))
    radius = _radius(path, rline, rraw)
    if obstacle is not None:
        _require_outside(path, cline, craw, center, obstacle, "center", "c")
    return ConvexPhase.distance_to_sphere(center, radius)


def check_flags(tol: float, window: float, s0: float, budget: int) -> None:
    """Reject command-line overrides no computation can use, as ``<flags>``
    spec errors: tol, window and s0 must be finite, tol and s0 positive,
    window nonnegative and budget in 1..MAX_BUDGET."""
    if not all(math.isfinite(x) for x in (tol, window, s0)):
        raise SpecError("<flags>", 0, "tolerance, window, and s0 overrides must be finite")
    if tol <= 0 or window < 0 or s0 <= 0:
        raise SpecError("<flags>", 0, "tolerance, window, and s0 overrides must be positive")
    if budget <= 0:
        raise SpecError("<flags>", 0, "InvalidBudget: --budget must be positive")
    if budget > MAX_BUDGET:
        raise SpecError("<flags>", 0, f"InvalidBudget: --budget must be at most {MAX_BUDGET}")
