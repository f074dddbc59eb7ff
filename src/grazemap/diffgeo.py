"""Obstacle geometry: boundary graphs x1 = F(xbar) and their calculus.

The obstacle boundary is the graph of a concave function F of the tangential
variables xbar = (x2, ..., xn), normalized so F(0) = 1 and grad F(0) = 0
(apex at height 1, horizontal tangent plane).  Normalization is validated at
construction, never performed silently; the one sanctioned coordinate change
is ``rotate_coordinates``.

Three surface families:

* ``PolynomialSurface``  -- multi-index polynomials, every derivative exact;
* ``SymmetricH``         -- radial profiles F = 1 - h(|L xbar|^2) with h given
                            by Taylor coefficients or the built-in flat bump
                            exp(-1/s^2);
* ``GenericSmooth``      -- plain callables, gradient and Hessian by central
                            differences; no directional Taylor data, so the
                            apex order classification refuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS = np.finfo(float).eps


class GrazemapError(Exception):
    """Base of every exception the library raises.

    ``exit_code`` is the command-line exit code the error ends a command
    with: 1 for a usage or spec error (the default), 3 for a definite
    numerical failure.  Each subclass also keeps its ``ValueError``,
    ``RuntimeError`` or ``TypeError`` base, so handlers written against
    those still catch it.
    """

    exit_code = 1


class InvalidArgument(GrazemapError, ValueError):
    """Argument outside what the operation accepts (shape, sign or size)."""


def _real(v):
    """v as a Python float, or None: ``float`` of a real number or a 0-d real
    array, the scalar rule of every argument check.  A string, a complex
    number or an array with an axis gives None, which ``float`` would not."""
    if isinstance(v, (str, bytes, complex, np.complexfloating)) or (
            isinstance(v, np.ndarray) and (v.ndim or v.dtype.kind not in "biuf")):
        return None
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return None


def _reals(values):
    """values as a list of Python floats, one per entry as ``np.atleast_1d``
    reads them (one number is one entry), or None unless they are real
    numbers (``_real``) along at most one axis."""
    try:
        a = values if isinstance(values, np.ndarray) else np.asarray(values)
    except (TypeError, ValueError):  # a ragged nesting
        return None
    if a.ndim > 1 or a.dtype.kind == "c":
        return None
    xs = [v if type(v) is float else _real(v) for v in (a.tolist() if a.ndim else [a.item()])]
    return None if None in xs else xs


def _finite(v, low: float = -math.inf):
    """``_real`` of v if it is finite and at least low, else None."""
    x = _real(v)
    return x if x is not None and math.isfinite(x) and x >= low else None


def _vector(values, name: str, n: int | None = None) -> np.ndarray:
    """values as a float array of finite real numbers along one axis
    (``_reals``), n of them if n is given, or ``InvalidArgument`` naming them."""
    xs = _reals(values)
    if xs is None or not all(map(math.isfinite, xs)) or n not in (None, len(xs)):
        count = "" if n is None else f"{n} "
        raise InvalidArgument(f"{name} must be {count}finite real numbers, got {values!r}")
    return np.array(xs)


def _as_points(x) -> np.ndarray:
    """x as a float array with at least one axis; complex and string entries,
    which the cast would change or parse, and ragged nesting raise
    ``InvalidArgument``."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise InvalidArgument("point must be a regular array, got a ragged sequence") from None
    if a.dtype.kind in "cSU":
        raise InvalidArgument(f"point must be real numbers, got dtype {a.dtype}")
    return np.atleast_1d(np.asarray(a, dtype=float))


class DomainExceeded(GrazemapError, ValueError):
    """Query point lies outside the obstacle's declared tangential radius."""


class OrderTooHigh(GrazemapError, ValueError):
    """Derivative order above the supported maximum J_MAX_DEFAULT."""


class ZeroVector(GrazemapError, ValueError):
    """A direction argument was (numerically) zero."""


class NotNormalized(GrazemapError, ValueError):
    """Surface violates the apex normalization F(0)=1, grad F(0)=0."""


class UnsupportedSurface(GrazemapError, TypeError):
    """Operation not available for this surface family."""


J_MAX_DEFAULT = 16  # highest directional Taylor order the apex classification reads
_SUM_CHUNK = 256  # terms per statement of a sum in a MultiPoly jet kernel
_GENERATED_MAX = 64  # distinct generated sources kept compiled; one more starts the cache over
_generated: dict = {}  # generated source text -> its code object


def _generate(source: str, names: dict) -> dict:
    """Run generated source in the namespace ``names`` and return it: the one
    place text becomes code.  The source holds names and int constants only,
    every value is bound in ``names``.  Each distinct text compiles once per
    process, kept by the text alone, so a spec parsed again reuses it."""
    code = _generated.get(source)
    if code is None:  # threads that race here each compile; either code object serves
        code = compile(source, "<grazemap generated>", "exec")
        if len(_generated) >= _GENERATED_MAX:
            _generated.clear()
        _generated[source] = code
    exec(code, names)
    return names


def _central_difference(f, x, h) -> np.ndarray:
    """Jacobian of f at x whose column k is (f(x + h e_k) - f(x - h e_k)) / 2h.

    A scalar-valued f gives its gradient vector.  For one point x (n,), f is
    called on one point at a time.  For a batch x (m, n), with one step per
    row (m,) or one for all, f is called once on all 2 n m difference points
    (m * 2n, n) and the result has a leading m axis; each row equals the
    single-point Jacobian bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)
                         for e in h * np.eye(x.size)], axis=-1)
    m, n = x.shape
    h = np.asarray(h, dtype=float).reshape(-1, 1, 1)
    steps = h * np.eye(n)  # row k of block i is h_i e_k, as in the loop above
    pts = np.concatenate((x[:, None, :] + steps, x[:, None, :] - steps), axis=1)
    vals = np.asarray(f(pts.reshape(-1, n)))
    vals = vals.reshape((m, 2, n) + vals.shape[1:])
    diff = (vals[:, 0] - vals[:, 1]) / (2.0 * h).reshape((-1,) + (1,) * (vals.ndim - 2))
    # Contiguous, so a later matmul takes the BLAS path a single point's
    # Jacobian takes and rounds as it does.
    return np.ascontiguousarray(np.moveaxis(diff, 1, -1))


def _richardson(f, x, h) -> np.ndarray:
    """Richardson-extrapolated central differences (O(h^4) truncation):
    (4 cd(f, x, h/2) - cd(f, x, h)) / 3 with cd = ``_central_difference``."""
    return (4.0 * _central_difference(f, x, 0.5 * h) - _central_difference(f, x, h)) / 3.0


def _rowdot(a, b):
    """Dot products a[k] @ b[k] of the rows of a (..., d) with those of b, or
    with one vector b (d,); two vectors (d,) give one scalar.

    The stacked matmul runs the same dot routine as a single ``a[k] @ b[k]``,
    so each entry equals the per-point product bit for bit (a sum over the
    product array need not: BLAS dots may fuse the multiply-adds).
    """
    if a.ndim == 1:
        return a @ b  # the same routine, without the unit axes' overhead
    return np.matmul(a[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def _norm(v) -> float:
    """|v| of one vector (d,): np.linalg.norm's arithmetic, without its overhead."""
    return math.sqrt(v @ v)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for one vector x (d,), or a @ x[k] for each row of a batch (m, d).

    The stacked matmul runs the same routine as a single ``a @ x[k]``, so each
    row equals the per-point product bit for bit (``x @ a.T`` need not).
    """
    if x.ndim == 1:
        return a @ x
    return (a @ x[..., None])[..., 0]


def _per_row(v) -> np.ndarray:
    """v with a trailing unit axis: one value per row (m,) scales the rows of
    an (m, d) array, and a scalar scales a vector, elementwise either way."""
    return np.asarray(v)[..., None]


def _outer(a, b) -> np.ndarray:
    """Outer products of the rows of a and b: np.outer's products, row by row."""
    return a[..., :, None] * b[..., None, :]


# ---------------------------------------------------------------------------
# Multivariate polynomials over the tangential variables
# ---------------------------------------------------------------------------

class MultiPoly:
    """Polynomial in ``dim`` variables stored as {exponent tuple: coefficient}.

    All evaluations are plain floating point combinations of the stored
    coefficients; no approximation enters anywhere.  Construction compiles
    the terms once: per term, the coefficient and the (variable, exponent)
    pairs with a nonzero exponent.  The first and second derivative
    polynomials are built on the first ``gradient``/``hessian`` call and
    kept.

    One point is evaluated by the jet kernel (``_kernel``), a straight-line
    function generated on the first single-point call and kept; a batch by
    ``_eval_batch``, one array pass per term.

    ``value``, ``gradient`` and ``hessian`` take one point (dim,) and return
    a float, (dim,) and (dim, dim), or a batch (m, dim) and return (m,),
    (m, dim) and (m, dim, dim); a single point of another length or a batch
    of another width raises ``InvalidArgument``.  A batch entry equals the
    single-point result bit for bit: both raise each coordinate to its
    exponent with the C library's ``pow`` and multiply and add in the same
    order, and a single point whose power overflows reads its batch row.

    Two polynomials are equal, and hash alike, when their dim and terms are.
    """

    __slots__ = ("dim", "terms", "_compiled", "_derivs", "_jet")

    def __init__(self, dim: int, terms):
        self.dim = int(dim)
        clean: dict[tuple[int, ...], float] = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.dim:
                raise InvalidArgument(f"exponent {expo} has wrong length for dim {self.dim}")
            if any(e < 0 for e in expo):
                raise InvalidArgument(f"negative exponent in {expo}")
            if coeff != 0.0:
                clean[expo] = clean.get(expo, 0.0) + float(coeff)
        self.terms = {e: c for e, c in clean.items() if c != 0.0}
        self._compiled = tuple((c, tuple((i, e) for i, e in enumerate(expo) if e))
                               for expo, c in self.terms.items())
        self._derivs = None
        self._jet = None

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def _eval_batch(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.dim:
            raise InvalidArgument(f"batch has shape {x.shape}, expected (m, {self.dim})")
        total = np.zeros(len(x))
        for coeff, powers in self._compiled:
            prod = coeff
            for i, e in powers:
                # float_power calls pow() per entry, as ``float ** int`` does;
                # ``np.power`` may take a vectorized path that differs in the
                # last bit.
                prod = prod * np.float_power(x[:, i], e)
            total = total + prod
        return total

    def _derivatives(self):
        # Built in locals and published in one assignment, so a thread that
        # reads the cache sees either nothing or both derivative sets.
        if self._derivs is None:
            grad = tuple(self.derivative(i) for i in range(self.dim))
            hess = {(i, j): grad[i].derivative(j)
                    for i in range(self.dim) for j in range(i, self.dim)}
            self._derivs = (grad, hess)
        return self._derivs

    def _kernel(self):
        """The jet kernel ``kernel(x0, ..., x_{dim-1}, order)``: F for order
        0, (F, [dF/dx_i]) for order 1 and (F, [dF/dx_i], [[d2F/dx_i dx_j]])
        for order 2, as Python floats.

        Generated from the term lists of F and its cached derivative
        polynomials and run by ``_generate``.  Each power is computed once,
        just before the first polynomial that reads it, so a lower order
        computes none it does not use.  Each polynomial is 0 + c * p * ... +
        ... in ``_compiled`` order, the order ``_eval_batch`` multiplies and
        adds in, so every entry equals the batch row bit for bit; the leading
        0 turns a lone -0.0 product into 0.0 as the batch's zero start does,
        and an empty sum adds a bound 0.0, so it is a float.  Coefficients are
        names (``_generate``); exponents are ints.  A sum is split into
        statements of _SUM_CHUNK terms, within the compiler's nesting limit.
        Built in locals and published in one assignment, as the derivative
        cache is.
        """
        if self._jet is None:
            grad, hess = self._derivatives()
            dims = range(self.dim)
            g = "[" + ", ".join(f"g{i}" for i in dims) + "]"
            h = "[" + ", ".join("[" + ", ".join(f"h{min(i, j)}_{max(i, j)}" for j in dims) + "]"
                                for i in dims) + "]"
            orders = [([("f", self)], "f"),
                      ([(f"g{i}", grad[i]) for i in dims], f"f, {g}"),
                      ([(f"h{i}_{j}", p) for (i, j), p in hess.items()], f"f, {g}, {h}")]
            names = {}  # the namespace the source runs in: coefficient name -> float
            powers = set()  # the (variable, exponent) pairs computed so far
            lines = [f"def kernel({''.join(f'x{i}, ' for i in dims)}order):"]
            for order, (polys, returned) in enumerate(orders):
                for name, poly in polys:
                    terms = []
                    for coeff, factors in poly._compiled or ((0.0, ()),):
                        k = f"c{len(names)}"
                        names[k] = coeff
                        for i, e in factors:
                            if (i, e) not in powers:
                                powers.add((i, e))
                                lines.append(f"    p{i}_{e} = x{i} ** {e}")
                        terms.append(" * ".join([k] + [f"p{i}_{e}" for i, e in factors]))
                    head = "0"
                    for at in range(0, len(terms), _SUM_CHUNK):
                        chunk = terms[at:at + _SUM_CHUNK]
                        lines.append(f"    {name} = {' + '.join([head] + chunk)}")
                        head = name
                lines.append(f"    if order == {order}:\n        return {returned}")
            self._jet = _generate("\n".join(lines), names)["kernel"]
        return self._jet

    def _at_point(self, x: np.ndarray, order: int):
        """Entry ``order`` of the jet kernel at one point x (dim,): F, grad F
        or hess F, as a float or lists.  Where a power overflows, on which
        ``float ** int`` raises, the entry of the one-row batch, which reads
        inf for it."""
        if x.shape != (self.dim,):
            raise InvalidArgument(f"point has shape {x.shape}, expected ({self.dim},)")
        try:
            jet = self._kernel()(*x.tolist(), order)
        except OverflowError:
            return (self.value, self.gradient, self.hessian)[order](x[None])[0].tolist()
        return jet if order == 0 else jet[order]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            return self._at_point(x, 0)
        return self._eval_batch(x)

    def derivative(self, var: int) -> "MultiPoly":
        out: dict[tuple[int, ...], float] = {}
        for expo, coeff in self.terms.items():
            e = expo[var]
            if e == 0:
                continue
            new = list(expo)
            new[var] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + coeff * e
        return MultiPoly(self.dim, out)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            return np.array(self._at_point(x, 1))
        grad, _ = self._derivatives()
        return np.column_stack([g._eval_batch(x) for g in grad])

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            return np.array(self._at_point(x, 2))
        _, hess = self._derivatives()
        h = np.zeros((len(x), self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                h[:, i, j] = h[:, j, i] = hess[i, j]._eval_batch(x)
        return h

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, j: int) -> "MultiPoly":
        return MultiPoly(self.dim, {e: c for e, c in self.terms.items() if sum(e) == j})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly(self.dim, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return MultiPoly(self.dim, out)

    def scale(self, s: float) -> "MultiPoly":
        return MultiPoly(self.dim, {e: s * c for e, c in self.terms.items()})

    def compose_linear(self, mat: np.ndarray) -> "MultiPoly":
        """Return q(x) = p(M x), expanded exactly over the new variables."""
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.dim, self.dim):
            raise InvalidArgument("matrix shape does not match polynomial dimension")
        rows = [MultiPoly(self.dim, {tuple(int(k == j) for k in range(self.dim)): mat[i, j]
                                     for j in range(self.dim)})
                for i in range(self.dim)]
        result = MultiPoly(self.dim, {})
        one = MultiPoly(self.dim, {(0,) * self.dim: 1.0})
        for expo, coeff in self.terms.items():
            term = one.scale(coeff)
            for i, e in enumerate(expo):
                for _ in range(e):
                    term = term * rows[i]
            result = result + term
        return result


# ---------------------------------------------------------------------------
# Surface families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialSurface:
    """F given exactly by a multi-index polynomial over xbar."""

    dim: int
    poly: MultiPoly

    @classmethod
    def from_terms(cls, dim: int, terms) -> "PolynomialSurface":
        poly = MultiPoly(dim, terms)
        surf = cls(dim=dim, poly=poly)
        surf._validate()
        return surf

    def _validate(self) -> None:
        zero = (0,) * self.dim
        const = self.poly.terms.get(zero, 0.0)
        if const != 1.0:
            raise NotNormalized(f"constant term is {const!r}, expected exactly 1")
        for expo, coeff in self.poly.terms.items():
            if sum(expo) == 1 and coeff != 0.0:
                raise NotNormalized(f"degree-1 term {expo} present: gradient at 0 is nonzero")

    def value(self, x) -> float:
        return self.poly.value(x)

    def gradient(self, x) -> np.ndarray:
        return self.poly.gradient(x)

    def hessian(self, x) -> np.ndarray:
        return self.poly.hessian(x)

    def directional_taylor(self, direction, order: int) -> list[float]:
        coeffs = [0.0] * order
        for expo, coeff in self.poly.terms.items():
            deg = sum(expo)
            if deg == 0 or deg > order:
                continue
            prod = coeff
            for i, e in enumerate(expo):
                if e:
                    prod *= direction[i] ** e
            coeffs[deg - 1] += prod
        return coeffs


def _h_poly_eval(coeffs, s, deriv: int = 0):
    """Evaluate the k-th derivative of h(s) = sum_j coeffs[j-1] s^j at a float
    s, or at each entry of an array s.  ``np.float_power`` calls pow() per
    entry, as ``float ** int`` does, so each entry equals the float's value
    bit for bit."""
    batch = isinstance(s, np.ndarray)
    total = np.zeros(s.shape) if batch else 0.0
    power = np.float_power if batch else pow
    for j, a in enumerate(coeffs, start=1):
        if j < deriv:
            continue
        fac = 1.0
        for m in range(deriv):
            fac *= j - m
        try:
            total += a * fac * power(s, j - deriv)
        except OverflowError:  # pow raises where float_power gives inf
            return _h_poly_eval(coeffs, np.array([s]), deriv)[0].tolist()
    return total


@dataclass(frozen=True)
class SymmetricH:
    """F(xbar) = 1 - h(|L xbar|^2) with nonsingular L.

    ``hcoeffs`` are the Taylor coefficients (a1, a2, ...) of h at 0, in which
    case h is taken to be exactly that polynomial; ``flat=True`` selects the
    built-in h(s) = exp(-1/s^2), flat to infinite order at 0.

    ``value``, ``gradient`` and ``hessian`` take one point (dim,) or a batch
    (m, dim); ``h`` and ``h_ratio`` take a float s or an array.  Each batch
    entry equals the single-point result bit for bit.  Two profiles are
    equal when dim, L (by value), hcoeffs and flat are.
    """

    dim: int
    lam: np.ndarray
    hcoeffs: tuple[float, ...] | None = None
    flat: bool = False

    def __eq__(self, other):  # lam by value: an array has no truth value
        if type(other) is not SymmetricH:
            return NotImplemented
        return ((self.dim, self.hcoeffs, self.flat) == (other.dim, other.hcoeffs, other.flat)
                and np.array_equal(self.lam, other.lam))

    def __hash__(self):
        return hash((self.dim, tuple(np.ravel(self.lam).tolist()), self.hcoeffs, self.flat))

    @classmethod
    def from_hcoeffs(cls, dim: int, hcoeffs, lam=None) -> "SymmetricH":
        lam = np.eye(dim) if lam is None else np.asarray(lam, dtype=float)
        surf = cls(dim=dim, lam=lam, hcoeffs=tuple(float(c) for c in hcoeffs), flat=False)
        surf._validate()
        return surf

    @classmethod
    def exp_flat(cls, dim: int, lam=None) -> "SymmetricH":
        lam = np.eye(dim) if lam is None else np.asarray(lam, dtype=float)
        surf = cls(dim=dim, lam=lam, hcoeffs=None, flat=True)
        surf._validate()
        return surf

    def _validate(self) -> None:
        if self.lam.shape != (self.dim, self.dim):
            raise InvalidArgument("lambda matrix shape does not match dim")
        if abs(np.linalg.det(self.lam)) < 1e-12:
            raise InvalidArgument("lambda matrix is singular")
        if not self.flat:
            nonzero = [c for c in self.hcoeffs if c != 0.0]
            if nonzero and nonzero[0] <= 0.0:
                raise NotNormalized("first nonzero Taylor coefficient of h must be positive")
            # h' > 0 is a sampled certificate on (0, 1].
            for s in np.linspace(1.0 / 64.0, 1.0, 64):
                if self.h(s, deriv=1) <= 0.0:
                    raise NotNormalized(f"h'({s}) <= 0: profile not increasing")

    def h(self, s, deriv: int = 0):
        if self.flat and isinstance(s, np.ndarray):
            # math.exp per entry: np.exp may round differently in the last bit.
            return np.array([self.h(v, deriv) for v in s.tolist()])
        if self.flat:
            if s <= 0.0:
                return 0.0
            if deriv > 2:
                raise OrderTooHigh("flat profile derivatives supported up to order 2")
            try:
                e = math.exp(-1.0 / s**2)
                return (e if deriv == 0 else 2.0 * e / s**3 if deriv == 1
                        else (4.0 / s**6 - 6.0 / s**4) * e)
            except OverflowError:  # a power of a huge s: the limits h -> 1, h' and h'' -> 0
                return 1.0 if deriv == 0 else 0.0
        return _h_poly_eval(self.hcoeffs, s, deriv)

    def h_ratio(self, s):
        """h(s)/h'(s), with the flat case simplified to s^3/2 to avoid underflow."""
        if self.flat:
            try:
                return 0.5 * (np.float_power(s, 3) if isinstance(s, np.ndarray) else s**3)
            except OverflowError:  # pow raises where float_power gives inf
                return math.copysign(math.inf, s)
        hp = self.h(s, deriv=1)
        if np.any(hp == 0.0):
            raise InvalidArgument("h'(s) = 0 away from the apex")
        return self.h(s) / hp

    def h_ratio_prime(self, s: float) -> float:
        if self.flat:
            try:
                return 1.5 * s**2
            except OverflowError:  # as in h_ratio: the batch reads inf
                return math.inf
        hp = self.h(s, deriv=1)
        return (hp * hp - self.h(s) * self.h(s, deriv=2)) / (hp * hp)

    def _s(self, x: np.ndarray):
        """|L x|^2: a float for one point, (m,) for a batch."""
        y = _matvec(self.lam, x)
        return _rowdot(y, y) if y.ndim == 2 else float(y @ y)

    def value(self, x):
        return 1.0 - self.h(self._s(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ltl_x = _matvec(self.lam.T, _matvec(self.lam, x))
        return _per_row(-2.0 * self.h(self._s(x), deriv=1)) * ltl_x

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = self._s(x)
        ltl = self.lam.T @ self.lam
        ltl_x = _matvec(ltl, x)
        h = (_per_row(_per_row(-2.0 * self.h(s, deriv=1))) * ltl
             - _per_row(_per_row(4.0 * self.h(s, deriv=2))) * _outer(ltl_x, ltl_x))
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    def directional_taylor(self, direction, order: int) -> list[float]:
        coeffs = [0.0] * order
        if self.flat:
            return coeffs
        q = float(np.dot(self.lam @ np.asarray(direction, dtype=float),
                         self.lam @ np.asarray(direction, dtype=float)))
        for k, a in enumerate(self.hcoeffs, start=1):
            if 2 * k > order:
                break
            coeffs[2 * k - 1] += -a * q**k
        return coeffs


@dataclass(frozen=True)
class GenericSmooth:
    """F given by a plain callable; derivatives by central differences.

    The step for a k-th derivative is eps^(1/(k+2)), balancing truncation
    against rounding for smooth inputs.
    """

    dim: int
    func: object = field(compare=False)
    grad: object | None = field(default=None, compare=False)
    name: str = ""

    def value(self, x) -> float:
        return float(self.func(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        h = EPS ** (1.0 / 3.0) * max(1.0, float(np.max(np.abs(x))))
        return _central_difference(self.value, x, h)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = EPS ** 0.25 * max(1.0, float(np.max(np.abs(x))))
        out = _central_difference(self.gradient, x, h)
        return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# Obstacle wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstacle:
    """Convex obstacle {x1 < F(xbar)} restricted to |xbar| <= radius."""

    surface: PolynomialSurface | SymmetricH | GenericSmooth
    radius: float = 1.0

    @property
    def dim(self) -> int:
        """Ambient spatial dimension n."""
        return self.surface.dim + 1

    @property
    def dim_tangential(self) -> int:
        return self.surface.dim

    def _check_radius(self, r: float) -> None:
        """Raise ``DomainExceeded``, naming r, if |xbar| = r is beyond the radius."""
        if r > self.radius * (1.0 + 1e-12):
            raise DomainExceeded(f"|xbar| = {r} exceeds declared radius {self.radius}")

    def _check_domain(self, x) -> np.ndarray:
        """x as a float array (``_as_points``), one point (d,) or a batch (m, d),
        after one radius check that names the largest |xbar| when it fails;
        a NaN entry (a None casts to one) makes that |xbar| NaN and raises
        ``InvalidArgument``."""
        x = _as_points(x)
        d = self.surface.dim
        if x.shape == (d,):
            r = _norm(x)
        elif x.ndim == 2 and x.shape[1] == d:
            r = float(np.sqrt(_rowdot(x, x)).max(initial=0.0))
        else:
            raise InvalidArgument(f"point has shape {x.shape}, expected ({d},) or (m, {d})")
        if r != r:
            raise InvalidArgument("point has a NaN or None entry")
        self._check_radius(r)
        return x

    def _on_surface(self, fn, x: np.ndarray, shape: tuple):
        """Surface method fn at a checked point or batch; per point for the
        surfaces without a batch path."""
        if x.ndim == 1 or not isinstance(self.surface, GenericSmooth):
            return fn(x)
        return np.array([fn(p) for p in x], dtype=float).reshape((len(x),) + shape)

    def _check_at(self, xs: list) -> None:
        """The radius check of one point given as a list of floats."""
        self._check_radius(math.hypot(*xs))

    def _jet_at(self, xs: list, order: int):
        """The jet of F to ``order`` at one point given as a list of floats,
        after one ``_check_at``: F for order 0, (F, grad F) for order 1 and
        (F, grad F, hess F) for order 2, as a float, a list and a list of
        rows, each entry bit for bit what ``value``, ``gradient`` and
        ``hessian`` return there.  A polynomial surface runs its jet kernel
        to ``order``; the other surfaces, and a polynomial point whose powers
        overflow, run the array methods the order needs."""
        self._check_at(xs)
        if isinstance(self.surface, PolynomialSurface):
            try:
                return self.surface.poly._kernel()(*xs, order)
            except OverflowError:
                pass
        x = np.array(xs)
        f = self.surface.value(x)
        if order == 0:
            return f
        g = self.surface.gradient(x).tolist()
        return (f, g) if order == 1 else (f, g, self.surface.hessian(x).tolist())

    def value(self, x):
        """F at one point (d,) -> float, or at each row of a batch (m, d) -> (m,)."""
        return self._on_surface(self.surface.value, self._check_domain(x), ())

    def gradient(self, x) -> np.ndarray:
        """grad F at one point (d,) -> (d,), or per row of a batch (m, d) -> (m, d)."""
        return self._gradient(self._check_domain(x))

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """``gradient`` at a point or batch that ``_check_domain`` has passed."""
        return self._on_surface(self.surface.gradient, x, (self.surface.dim,))

    def hessian(self, x) -> np.ndarray:
        """hess F at one point (d,) -> (d, d), or per row of a batch (m, d) -> (m, d, d)."""
        return self._on_surface(self.surface.hessian, self._check_domain(x),
                                (self.surface.dim,) * 2)

    def boundary_point(self, x) -> np.ndarray:
        """Full spatial point (F(xbar), xbar); (m, d + 1) for a batch (m, d)."""
        x = self._check_domain(x)
        f = np.asarray(self._on_surface(self.surface.value, x, ()))
        return np.concatenate((f[..., None], x), axis=-1)

    def directional_taylor(self, direction, order: int) -> list[float]:
        """Exact coefficients c_1..c_order of F(s*direction) = 1 + sum_j c_j s^j;
        a ``GenericSmooth`` surface has none and raises ``UnsupportedSurface``."""
        if isinstance(self.surface, GenericSmooth):
            raise UnsupportedSurface("directional Taylor data requires a polynomial or "
                                     "symmetric surface")
        if order > J_MAX_DEFAULT:
            raise OrderTooHigh(f"order {order} exceeds maximum {J_MAX_DEFAULT}")
        d = np.asarray(direction, dtype=float)
        if np.linalg.norm(d) == 0.0:
            raise ZeroVector("direction must be nonzero")
        return self.surface.directional_taylor(d, order)


def sphere_obstacle(dim_tangential: int = 2, radius: float = 0.5) -> Obstacle:
    """F = 1 - |xbar|^2, the standard round cap used throughout the tests."""
    terms = {(0,) * dim_tangential: 1.0}
    for i in range(dim_tangential):
        e = [0] * dim_tangential
        e[i] = 2
        terms[tuple(e)] = -1.0
    return Obstacle(PolynomialSurface.from_terms(dim_tangential, terms), radius=radius)


def polynomial_obstacle(dim_tangential: int, terms, radius: float = 1.0) -> Obstacle:
    return Obstacle(PolynomialSurface.from_terms(dim_tangential, terms), radius=radius)


# ---------------------------------------------------------------------------
# Concavity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    """Sampled certificate of strict concavity; never a proof.

    ``min_eigs[i]`` is the smallest eigenvalue of -hess F at ``grid[i]``.
    Verdicts: 'strictly-concave-on-grid' when every sampled eigenvalue is
    positive; 'degenerate-at' when some directions degenerate but others do
    not (isolated flat directions, e.g. the axes of a quartic); 'fails-at'
    when a negative eigenvalue appears or every sampled direction carries a
    degeneracy (the surface is ruled, so the curvature zero is not isolated).
    """

    grid: np.ndarray
    min_eigs: np.ndarray
    verdict: str
    points: np.ndarray

    @property
    def passed(self) -> bool:
        return self.verdict == "strictly-concave-on-grid"


CONCAVITY_ANGLES = 64  # directions of the concavity certificate's polar grid
CONCAVITY_RADII = 32   # radii per direction of that grid
CONCAVITY_TOL = 1e-9   # an eigenvalue of -hess F within this of 0 is degenerate


def check_strict_concavity(obstacle: Obstacle, radius: float | None = None) -> ConcavityReport:
    """Evaluate -hess F eigenvalues on a polar grid excluding the origin."""
    d = obstacle.dim_tangential
    r_max = obstacle.radius if radius is None else radius
    if r_max > obstacle.radius:
        raise DomainExceeded("certificate radius exceeds obstacle domain")
    radii = np.linspace(r_max / CONCAVITY_RADII, r_max, CONCAVITY_RADII)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, CONCAVITY_ANGLES, endpoint=False)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(CONCAVITY_ANGLES, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # Row k * CONCAVITY_RADII + j is radii[j] * dirs[k].
    grid = (radii[None, :, None] * dirs[:, None, :]).reshape(-1, d)
    min_eigs = np.linalg.eigvalsh(-obstacle.hessian(grid))[:, 0]
    degenerate_angle = (min_eigs <= CONCAVITY_TOL).reshape(len(dirs), -1).any(axis=1)

    bad = grid[min_eigs < -CONCAVITY_TOL]
    deg = grid[np.abs(min_eigs) <= CONCAVITY_TOL]
    if len(bad):
        return ConcavityReport(grid, min_eigs, "fails-at", bad)
    if degenerate_angle.all():
        return ConcavityReport(grid, min_eigs, "fails-at", deg)
    if len(deg):
        return ConcavityReport(grid, min_eigs, "degenerate-at", deg)
    return ConcavityReport(grid, min_eigs, "strictly-concave-on-grid", grid[:0])


# ---------------------------------------------------------------------------
# Coordinate rotation
# ---------------------------------------------------------------------------

def rotation_to_negative_axis(b) -> np.ndarray:
    """Proper rotation Q with Q b = (-|b|, 0, ..., 0)."""
    b = np.asarray(b, dtype=float)
    d = b.size
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise ZeroVector("cannot rotate the zero vector")
    u = b / nb
    t = np.zeros(d)
    t[0] = -1.0
    c = float(u @ t)
    if c > 1.0 - 1e-14:
        return np.eye(d)
    if c < -1.0 + 1e-14:
        # u = +e1: rotate by pi in the (e1, e2) plane.
        p = np.zeros(d)
        p[1 % d] = 1.0
        q = np.eye(d) - 2.0 * (np.outer(u, u) + np.outer(p, p))
        return q
    p = t - c * u
    p /= np.linalg.norm(p)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    return (np.eye(d)
            + s * (np.outer(p, u) - np.outer(u, p))
            + (c - 1.0) * (np.outer(u, u) + np.outer(p, p)))


def rotate_coordinates(obstacle: Obstacle, bbar) -> tuple[Obstacle, np.ndarray]:
    """Re-express the obstacle in coordinates where bbar maps to (-|bbar|, 0, ...).

    Returns (rotated obstacle, Q); the identity F_rot(Q x) = F(x) holds for
    the returned rotation.  Exact (up to rounding) for polynomial and
    symmetric surfaces.
    """
    q = rotation_to_negative_axis(bbar)
    surf = obstacle.surface
    if isinstance(surf, PolynomialSurface):
        # F_rot(y) = F(Q^T y): compose with Q^T.
        new_poly = surf.poly.compose_linear(q.T)
        new_surf = PolynomialSurface.from_terms(surf.dim, new_poly.terms)
        return Obstacle(new_surf, radius=obstacle.radius), q
    if isinstance(surf, SymmetricH):
        new_surf = SymmetricH(dim=surf.dim, lam=surf.lam @ q.T, hcoeffs=surf.hcoeffs,
                              flat=surf.flat)
        return Obstacle(new_surf, radius=obstacle.radius), q
    raise UnsupportedSurface("rotation requires a polynomial or symmetric surface")
