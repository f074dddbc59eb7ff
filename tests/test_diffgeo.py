import math
from pathlib import Path

import numpy as np
import pytest

import grazemap as gm
from grazemap.diffgeo import CONCAVITY_ANGLES, CONCAVITY_RADII, MultiPoly

from conftest import quartic_quartic, quartic_vsq, rounded_quartic, sample_disk, surface_zoo


def fd_gradient(f, x, h=1e-5):
    out = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def test_eval_examples():
    obs = quartic_vsq()
    assert obs.value([0.0, 0.0]) == 1.0
    assert abs(obs.value([-0.1, 0.06]) - 0.9963) < 1e-15
    sym = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0]), radius=0.6)
    assert abs(sym.value([0.2, 0.0]) - 0.96) < 1e-15


def test_grad_examples():
    obs = quartic_vsq()
    assert np.allclose(obs.gradient([0.0, 0.0]), 0.0)
    assert np.allclose(obs.gradient([-0.1, 0.06]), [0.004, -0.12], atol=1e-15)
    sym = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [0.0, 1.0]), radius=0.8)
    assert np.allclose(sym.gradient([0.5, 0.0]), [-0.5, 0.0], atol=1e-15)


def test_grad_matches_central_differences():
    rng = np.random.default_rng(3)
    for obs in (quartic_vsq(), rounded_quartic(), gm.sphere_obstacle(2, radius=0.5)):
        for x in sample_disk(rng, obs.radius * 0.8, 1000):
            fd = fd_gradient(obs.value, x)
            assert np.max(np.abs(obs.gradient(x) - fd)) < 1e-7


def test_hess_examples():
    sph = gm.sphere_obstacle(2, radius=0.5)
    assert np.allclose(sph.hessian([0.1, -0.2]), -2.0 * np.eye(2), atol=1e-15)
    obs = quartic_quartic()
    assert np.allclose(obs.hessian([1.0, 0.0]), np.diag([-12.0, 0.0]), atol=1e-15)
    flat = gm.GenericSmooth(2, func=lambda x: 1.0 - math.exp(-1.0 / max(float(x @ x), 1e-300) ** 2)
                            if (x @ x) > 0 else 1.0)
    h = gm.Obstacle(flat, radius=0.5).hessian([0.0, 0.0])
    assert np.max(np.abs(h)) < 1e-6


def test_hess_symmetric_and_fd():
    rng = np.random.default_rng(4)
    obs = rounded_quartic()
    for x in sample_disk(rng, 0.8, 50):
        h = obs.hessian(x)
        assert np.array_equal(h, h.T)
        fd = np.column_stack([fd_gradient(lambda y, i=i: obs.gradient(y)[i], x)
                              for i in range(2)]).T
        assert np.max(np.abs(h - fd)) < 1e-6


def test_directional_taylor_examples():
    obs = quartic_vsq()
    assert obs.directional_taylor([1.0, 0.0], 4) == [0.0, 0.0, 0.0, -1.0]
    assert obs.directional_taylor([0.0, 1.0], 2) == [0.0, -1.0]
    sph = gm.sphere_obstacle(2, radius=0.5)
    d = np.array([0.6, 0.8])
    assert np.allclose(sph.directional_taylor(d, 2), [0.0, -1.0], atol=1e-15)


def test_directional_taylor_against_polyfit_oracle():
    # Oracle: interpolate F(s d) on distinct nodes; exact for polynomials.
    rng = np.random.default_rng(5)
    obs = gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -2.0,
                                     (1, 2): -1.0, (0, 2): -1.0, (6, 2): -0.5})
    for _ in range(20):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        order = 8
        s = np.linspace(-0.5, 0.5, order + 1)
        vals = [obs.value(si * d) for si in s]
        coeffs = np.polynomial.polynomial.polyfit(s, vals, order)
        got = obs.directional_taylor(d, order)
        assert abs(coeffs[0] - 1.0) < 1e-12
        assert np.max(np.abs(np.array(got) - coeffs[1:])) < 1e-9


def test_directional_taylor_symmetric_and_flat():
    lam = np.array([[2.0, 0.0], [1.0, 1.0]])
    sym = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, -0.25], lam=lam), radius=0.3)
    d = np.array([0.8, -0.6])
    q = float((lam @ d) @ (lam @ d))
    got = sym.directional_taylor(d, 4)
    assert np.allclose(got, [0.0, -q, 0.0, 0.25 * q**2], atol=1e-14)
    flat = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.5)
    assert flat.directional_taylor(d, 16) == [0.0] * 16


def test_order_too_high_and_domain():
    obs = quartic_vsq()
    with pytest.raises(gm.OrderTooHigh):
        obs.directional_taylor([1.0, 0.0], 17)
    with pytest.raises(gm.DomainExceeded):
        obs.value([2.0, 0.0])


def test_normalization_rejected():
    with pytest.raises(gm.NotNormalized):
        gm.polynomial_obstacle(2, {(0, 0): 0.5, (0, 2): -1.0})
    with pytest.raises(gm.NotNormalized):
        gm.polynomial_obstacle(2, {(0, 0): 1.0, (1, 0): 0.3, (0, 2): -1.0})
    with pytest.raises(gm.NotNormalized):
        gm.SymmetricH.from_hcoeffs(2, [-1.0])


def test_concavity_verdicts():
    strict = gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -1.0, (0, 4): -1.0})
    assert gm.check_strict_concavity(strict, radius=0.8).verdict == "strictly-concave-on-grid"
    degen = quartic_quartic()
    rep = gm.check_strict_concavity(degen, radius=0.8)
    assert rep.verdict == "degenerate-at"
    # every reported degeneracy sits on a coordinate axis
    assert all(min(abs(p[0]), abs(p[1])) < 1e-12 for p in rep.points)
    cylinder = gm.polynomial_obstacle(2, {(0, 0): 1.0, (0, 2): -1.0})
    assert gm.check_strict_concavity(cylinder, radius=0.8).verdict == "fails-at"
    convex_bump = gm.polynomial_obstacle(2, {(0, 0): 1.0, (2, 0): 1.0, (0, 2): -1.0})
    assert gm.check_strict_concavity(convex_bump, radius=0.8).verdict == "fails-at"


def test_concavity_negated_hessian_psd_where_certified():
    obs = rounded_quartic()
    rep = gm.check_strict_concavity(obs, radius=0.8)
    assert rep.passed
    rng = np.random.default_rng(6)
    for x in sample_disk(rng, 0.8, 200):
        w = np.linalg.eigvalsh(obs.hessian(x))
        assert w[-1] <= 1e-12


def test_rotation_examples():
    obs = quartic_vsq()
    _, q = gm.rotate_coordinates(obs, [-1.0, 0.0])
    assert np.allclose(q, np.eye(2), atol=1e-15)
    _, q = gm.rotate_coordinates(obs, [3.0, 4.0])
    assert np.allclose(q @ [3.0, 4.0], [-5.0, 0.0], atol=1e-12)
    rot, q = gm.rotate_coordinates(obs, [0.0, -1.0])
    # u^4 + v^2 swaps into v'^4 + u'^2
    assert abs(rot.value([0.3, 0.1]) - (1.0 - (0.1**4 + 0.3**2))) < 1e-12


def test_rotation_preserves_values():
    rng = np.random.default_rng(7)
    for obs in (quartic_vsq(), rounded_quartic(),
                gm.Obstacle(gm.SymmetricH.from_hcoeffs(
                    2, [1.0, 0.5], lam=np.array([[1.5, 0.2], [0.0, 1.0]])), radius=0.5)):
        b = rng.normal(size=2)
        rot, q = gm.rotate_coordinates(obs, b)
        assert abs(np.linalg.det(q) - 1.0) < 1e-12
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-13)
        for x in sample_disk(rng, obs.radius * 0.7, 100):
            assert abs(rot.value(q @ x) - obs.value(x)) < 1e-12
    with pytest.raises(gm.ZeroVector):
        gm.rotate_coordinates(quartic_vsq(), [0.0, 0.0])


def test_multipoly_compose_and_parts():
    p = MultiPoly(2, {(4, 0): 1.0, (2, 2): 2.0, (0, 2): 1.0})
    assert p.degree() == 4
    assert not p.is_homogeneous()
    assert p.homogeneous_part(2).terms == {(0, 2): 1.0}
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = p.compose_linear(m)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.normal(size=2)
        assert abs(q.value(x) - p.value(m @ x)) < 1e-12


def _batch_surfaces():
    return [quartic_vsq(), rounded_quartic(), gm.sphere_obstacle(2, radius=0.5),
            gm.rotate_coordinates(rounded_quartic(), [0.3, -0.8])[0]]


@pytest.mark.parametrize("obs", _batch_surfaces(), ids=["cusp", "rounded", "sphere", "rotated"])
def test_polynomial_batch_equals_per_point_exactly(obs):
    pts = sample_disk(np.random.default_rng(5), obs.radius, 300)
    for method in ("value", "gradient", "hessian", "boundary_point"):
        batch = getattr(obs, method)(pts)
        single = np.array([getattr(obs, method)(p) for p in pts])
        assert batch.shape == single.shape
        assert np.array_equal(batch, single), method
    assert obs.value(pts[:0]).shape == (0,)
    assert obs.hessian(pts[:0]).shape == (0, 2, 2)


@pytest.mark.parametrize("surface", [
    gm.SymmetricH.from_hcoeffs(2, [1.0, 0.5]),
    gm.SymmetricH.exp_flat(2),
    gm.GenericSmooth(2, lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4),
], ids=["symmetric-h", "exp-flat", "generic"])
def test_batch_fallback_equals_per_point(surface):
    obs = gm.Obstacle(surface, radius=0.5)
    pts = sample_disk(np.random.default_rng(6), 0.5, 40)
    for method, shape in (("value", (40,)), ("gradient", (40, 2)), ("hessian", (40, 2, 2))):
        batch = getattr(obs, method)(pts)
        assert batch.shape == shape
        assert np.array_equal(batch, np.array([getattr(obs, method)(p) for p in pts])), method


@pytest.mark.parametrize("surface", [
    gm.SymmetricH.from_hcoeffs(2, [1.0, 0.7, -0.1], lam=[[1.2, 0.3], [0.0, 0.8]]),
    gm.SymmetricH.from_hcoeffs(2, [0.0, 1.0]),
    gm.SymmetricH.exp_flat(2, lam=[[1.0, 0.0], [0.2, 0.9]]),
    gm.SymmetricH.from_hcoeffs(3, [1.0, 0.5], lam=[[1.0, 0.1, 0.0], [0.0, 0.9, 0.2], [0.3, 0.0, 1.1]]),
], ids=["hcoeffs", "quartic-h", "exp-flat", "3d"])
def test_symmetric_batch_paths_equal_per_point(surface):
    # The closed-form (m, d) paths: stacked L x, |L x|^2 by row dots, h's
    # powers by float_power and the flat bump's exp per entry.
    d = surface.dim
    pts = np.random.default_rng(9).uniform(-0.35, 0.35, (300, d))
    pts[7] = 0.0  # the apex, where the flat bump takes its s = 0 branch
    for method in ("value", "gradient", "hessian"):
        batch = getattr(surface, method)(pts)
        assert np.array_equal(batch, np.array([getattr(surface, method)(p) for p in pts])), method
    s = np.array([surface._s(p) for p in pts])
    s = s[s != 0.0]
    assert np.array_equal(surface.h_ratio(s), np.array([surface.h_ratio(v) for v in s]))


@pytest.mark.parametrize("obs", surface_zoo().values(), ids=surface_zoo().keys())
def test_jet_equals_value_gradient_and_hessian(obs):
    # The float jet: plain Python floats, each bit for bit the array methods'.
    pts = sample_disk(np.random.default_rng(10), 0.9 * obs.radius, 60)
    for p in np.vstack([np.zeros((1, 2)), pts]):
        f, g, h = obs._jet_at(p.tolist(), 2)
        assert all(type(v) is float for v in [f, *g, *h[0], *h[1]])
        assert f == obs.value(p)
        assert g == obs.gradient(p).tolist()
        assert h == obs.hessian(p).tolist()
        assert obs._jet_at(p.tolist(), 0) == obs.value(p)
        assert obs._jet_at(p.tolist(), 1) == (f, g)  # the jet without its Hessian
    outside = [0.0, 1.25 * obs.radius]
    for order in (2, 0, 1):
        with pytest.raises(gm.DomainExceeded, match="exceeds declared radius"):
            obs._jet_at(outside, order)


def test_batch_domain_check_names_the_point_outside():
    obs = quartic_vsq()
    pts = np.array([[0.1, 0.2], [0.0, -1.25], [0.3, 0.0]])
    for method in ("value", "gradient", "hessian", "boundary_point"):
        with pytest.raises(gm.DomainExceeded, match=r"\|xbar\| = 1\.25 exceeds declared radius 1\.0"):
            getattr(obs, method)(pts)
    with pytest.raises(ValueError, match="expected"):
        obs.value(np.zeros((4, 3)))


def test_derivative_cache_is_complete_for_every_thread():
    # Threads that share a fresh MultiPoly race to fill its derivative cache
    # and to build its jet kernel; each must see either no cache or a
    # complete one, through the array methods and through the float jet.
    import sys
    import threading
    import time

    terms = {(i, j, k): 1.0 / (1 + i + j + k) for i in range(5) for j in range(5) for k in range(5)}
    x = np.array([0.1, -0.2, 0.3])
    expected = MultiPoly(3, terms).hessian(x)
    # The same terms less the degree-1 ones, so that they make a surface.
    surface = {**terms, (1, 0, 0): 0.0, (0, 1, 0): 0.0, (0, 0, 1): 0.0}
    expected_jet = gm.polynomial_obstacle(3, surface)._jet_at(x.tolist(), 2)

    def race(first_call, pause):
        # Thread k starts k * pause after the others, so that the later ones
        # also arrive while the first is building.
        barrier = threading.Barrier(4)
        results, errors = [], []

        def work(k):
            barrier.wait(timeout=60)
            time.sleep(k * pause)
            try:
                results.append(first_call())
            except Exception as exc:  # noqa: BLE001 - any failure is the finding
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert len(results) == 4
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(20):
            pause = (0.0, 1e-4, 1e-3, 4e-3)[i % 4]
            poly = MultiPoly(3, terms)
            assert all(np.array_equal(r, expected) for r in race(lambda: poly.hessian(x), pause))
            obs = gm.polynomial_obstacle(3, surface)
            assert obs.surface.poly._jet is None
            assert all(r == expected_jet for r in race(lambda: obs._jet_at(x.tolist(), 2), pause))
    finally:
        sys.setswitchinterval(interval)


SPECIAL_VALUES = (-0.0, math.nan, math.inf, -math.inf)


def _generated_polys(rng, d):
    """Polynomials in d variables with exponents 0..6: dense finite ones, one
    with -0.0, nan and inf coefficients, the zero polynomial, a quadratic,
    whose Hessian entries are constants, and one-term polynomials, whose
    value or gradient entries are a lone product that is -0.0 at a zero."""
    def terms(n, special):
        out = {}
        for _ in range(n):
            expo = tuple(rng.integers(0, 7, d).tolist())
            out[expo] = (SPECIAL_VALUES[rng.integers(len(SPECIAL_VALUES))]
                         if special and rng.random() < 0.3 else float(rng.normal()))
        return out

    quadratic = {e: float(rng.normal()) for e in np.ndindex((3,) * d) if sum(e) <= 2}
    return ([MultiPoly(d, terms(24, False)) for _ in range(3)]
            + [MultiPoly(d, terms(12, True)), MultiPoly(d, {}), MultiPoly(d, {(0,) * d: -0.0}),
               MultiPoly(d, quadratic), MultiPoly(d, {(1,) * d: -1.5}),
               MultiPoly(d, {(3,) + (2,) * (d - 1): 0.5})])


def _generated_points(rng, d):
    pts = rng.uniform(-1.5, 1.5, (40, d))
    pts[:8] = np.array(SPECIAL_VALUES + (0.0, 1.0, -1.0, 0.5))[rng.integers(8, size=(8, d))]
    pts[8], pts[9] = 0.0, -0.0
    return pts


def _term_loop(poly, xs):
    """poly at one point by the term loop single points ran before the jet
    kernel: per term, coefficient times each float power in turn, added to
    0.0 in term order."""
    total = 0.0
    for coeff, powers in poly._compiled:
        prod = coeff
        for i, e in powers:
            prod *= xs[i] ** e
        total += prod
    return total


def _bits(a):
    """The bytes of a float array with each nan's sign cleared.  Adding two
    nans returns one of them, and which one is not fixed: CPython's generic
    float add and its specialized one (after a few calls) pick different
    operands, and so may numpy's array add.  Every other bit is compared."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_jet_kernel_equals_the_batch_term_loop_byte_for_byte(d):
    # The batch methods run _eval_batch, one array pass per term; the
    # single-point methods and the float jet run the generated kernel.  Bytes,
    # not ==, so that the sign of a zero and the place of each nan count too.
    rng = np.random.default_rng(11 + d)
    for poly in _generated_polys(rng, d):
        pts = _generated_points(rng, d)
        obs = gm.Obstacle(gm.PolynomialSurface(d, poly), radius=math.inf)
        grad, hess = poly._derivatives()
        hess = [[hess[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]
        loop = [[_term_loop(poly, p.tolist()) for p in pts],
                [[_term_loop(g, p.tolist()) for g in grad] for p in pts],
                [[[_term_loop(h, p.tolist()) for h in row] for row in hess] for p in pts]]
        with np.errstate(all="ignore"):  # inf - inf in the batch sums
            batches = [poly.value(pts), poly.gradient(pts), poly.hessian(pts)]
        got = {"value": [[poly.value(p) for p in pts]],
               "gradient": [None, [poly.gradient(p) for p in pts]],
               "hessian": [None, None, [poly.hessian(p) for p in pts]],
               "_jet_at": list(zip(*(obs._jet_at(p.tolist(), 2) for p in pts))),
               "_jet_at order 1": list(zip(*(obs._jet_at(p.tolist(), 1) for p in pts))),
               "_jet_at order 0": [[obs._jet_at(p.tolist(), 0) for p in pts]]}
        for method, parts in got.items():
            for part, ref, batch in zip(parts, loop, batches):
                if part is not None:
                    assert _bits(part) == _bits(ref), (poly.terms, method)
                    assert _bits(part) == _bits(batch), (poly.terms, method)


def test_jet_kernel_splits_a_long_sum_and_keeps_its_order():
    # 3150 terms: as one expression they would pass the compiler's nesting limit.
    rng = np.random.default_rng(12)
    poly = MultiPoly(3, {e: float(rng.normal()) for e in np.ndindex(15, 15, 14)})
    assert len(poly.terms) == 3150
    pts = rng.uniform(-1.0, 1.0, (5, 3))
    assert np.array([poly.value(p) for p in pts]).tobytes() == poly.value(pts).tobytes()
    assert np.array([poly.hessian(p) for p in pts]).tobytes() == poly.hessian(pts).tobytes()


@pytest.mark.parametrize("x", [[0.1], [0.1, 0.2, 0.3], 0.5], ids=["short", "long", "scalar"])
def test_multipoly_refuses_a_single_point_of_the_wrong_length(x):
    # The term loop read only the variables a term names, so a short or long
    # point gave a number; the kernel takes one argument per variable.
    p = MultiPoly(2, {(2, 0): 1.0, (0, 0): 1.0})
    for method in (p.value, p.gradient, p.hessian):
        with pytest.raises(gm.InvalidArgument, match=r"^point has shape \(\d?,?\), expected \(2,\)$"):
            method(x)


@pytest.mark.parametrize("shape", [(3, 5), (3, 1)], ids=["wide", "narrow"])
def test_multipoly_refuses_a_batch_of_the_wrong_width(shape):
    # The batch pass indexes columns by variable, so a wide batch read its
    # first columns and a narrow one raised IndexError.
    p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    for method in (p.value, p.gradient, p.hessian):
        with pytest.raises(gm.InvalidArgument,
                           match=rf"^batch has shape \(3, {shape[1]}\), expected \(m, 2\)$"):
            method(np.ones(shape))


def test_a_single_point_whose_power_overflows_reads_its_batch_row():
    # float ** int raises OverflowError where the batch's float_power gives
    # inf; F overflows at this point, grad F and hess F do not, and the
    # polynomial kernel computes F first at every order.
    obstacles = {"polynomial": gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (0, 2): -1.0},
                                                      radius=1e100),
                 "symmetric-h": gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, 0.5]),
                                            radius=1e100)}
    p = [1e80, 0.0]
    with np.errstate(over="ignore"):
        for name, obs in obstacles.items():
            rows = [obs.value([p])[0], obs.gradient([p])[0], obs.hessian([p])[0]]
            assert rows[0] == -math.inf and np.isfinite(rows[1]).all(), name
            points = [obs.value(p), obs.gradient(p), obs.hessian(p)]
            assert type(points[0]) is float, name
            jets = [obs._jet_at(p, 0), *obs._jet_at(p, 1)[1:], *obs._jet_at(p, 2)[2:]]
            assert obs._jet_at(p, 2)[:2] == obs._jet_at(p, 1), name
            for got in (points, jets, [obs.surface.value(p), obs.surface.gradient(p),
                                       obs.surface.hessian(p)]):
                assert [np.array(v).tobytes() for v in got] == [r.tobytes() for r in rows], name


def test_the_flat_profile_reads_its_limits_where_a_power_overflows():
    # s**2, s**3 or s**6 of a huge s = |x|^2 overflows a float: h reads 1 and
    # h', h'' read 0 there, at a point and in a one-row batch alike.  At
    # [1e30, 0] only h'' overflows.
    obs = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=1e100)
    for p in ([1e80, 0.0], [1e30, 0.0]):
        rows = [obs.value([p])[0], obs.gradient([p])[0], obs.hessian([p])[0]]
        points = [obs.value(p), obs.gradient(p), obs.hessian(p)]
        assert [np.array(v).tobytes() for v in points] == [r.tobytes() for r in rows], p
        assert [np.array(v).tobytes() for v in obs._jet_at(p, 2)] == [r.tobytes() for r in rows]
        assert rows[0] == 0.0 and np.allclose(rows[1], [-4.0 * p[0] ** -5, 0.0], rtol=1e-15)
    assert np.all(obs.hessian([1e80, 0.0]) == 0.0)
    assert obs.surface.h(1e200) == 1.0 and obs.surface.h(1e200, 1) == obs.surface.h(1e100, 2) == 0.0
    with pytest.raises(gm.OrderTooHigh):
        obs.surface.h(1e200, 3)


def test_the_flat_profile_ratios_read_inf_where_a_power_overflows():
    # h/h' = s^3/2 and its derivative 3 s^2/2 at a float s whose power
    # overflows read the inf of their one-row batch, and an ordinary s keeps
    # its batch bytes.
    surf = gm.SymmetricH.exp_flat(2)
    for method in (surf.h_ratio, surf.h_ratio_prime):
        for s in (1e200, 0.3):
            with np.errstate(over="ignore"):
                row = method(np.array([s]))
            assert np.array(method(s)).tobytes() == row.tobytes(), (method.__name__, s)
    assert surf.h_ratio(1e200) == surf.h_ratio_prime(1e200) == math.inf


def test_parsing_and_batch_evaluation_build_no_jet_kernel():
    # The kernel is built on the first single-point call, not by parsing
    # (the phase's outside check included) or by the batch paths, which
    # never need it.
    specs = Path(__file__).resolve().parents[1] / "specs"
    obs = gm.parse_obstacle(str(specs / "rounded_quartic.obstacle"))
    gm.parse_phase(str(specs / "top_source.phase"), obstacle=obs)
    gm.parse_phase(str(specs / "convex_distance.phase"), obstacle=obs)
    poly = obs.surface.poly
    pts = sample_disk(np.random.default_rng(13), obs.radius, 20)
    obs.value(pts), obs.gradient(pts), obs.boundary_point(pts), obs.hessian(pts)
    assert poly._jet is None
    assert obs.value(pts[0]) == obs.value(pts)[0]
    assert poly._jet is not None


@pytest.mark.parametrize("obs", [gm.sphere_obstacle(2, radius=0.5), quartic_vsq(),
                                 rounded_quartic(), quartic_quartic(),
                                 gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, 0.5]),
                                             radius=0.5)],
                         ids=["sphere", "cusp", "rounded", "quartic-quartic", "symmetric-h"])
def test_concavity_certificate_equals_per_point_loop(obs):
    rep = gm.check_strict_concavity(obs)
    radii = np.linspace(obs.radius / CONCAVITY_RADII, obs.radius, CONCAVITY_RADII)
    ang = np.linspace(0.0, 2.0 * np.pi, CONCAVITY_ANGLES, endpoint=False)
    grid, min_eigs = [], []
    for u in np.column_stack([np.cos(ang), np.sin(ang)]):
        for r in radii:
            grid.append(r * u)
            min_eigs.append(np.linalg.eigvalsh(-obs.hessian(r * u))[0])
    assert np.array_equal(rep.grid, np.array(grid))
    assert np.array_equal(rep.min_eigs, np.array(min_eigs))
