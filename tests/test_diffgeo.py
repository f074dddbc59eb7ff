import math

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
        f, g, h = obs._jet_at(p.tolist())
        assert all(type(v) is float for v in [f, *g, *h[0], *h[1]])
        assert f == obs.value(p)
        assert g == obs.gradient(p).tolist()
        assert h == obs.hessian(p).tolist()
        assert obs._value_at(p.tolist()) == obs.value(p)
        assert obs._value_grad_at(p.tolist()) == (f, g)  # the jet without its Hessian
    outside = [0.0, 1.25 * obs.radius]
    for check in (obs._jet_at, obs._value_at, obs._value_grad_at):
        with pytest.raises(gm.DomainExceeded, match="exceeds declared radius"):
            check(outside)


def test_batch_domain_check_names_the_point_outside():
    obs = quartic_vsq()
    pts = np.array([[0.1, 0.2], [0.0, -1.25], [0.3, 0.0]])
    for method in ("value", "gradient", "hessian", "boundary_point"):
        with pytest.raises(gm.DomainExceeded, match=r"\|xbar\| = 1\.25 exceeds declared radius 1\.0"):
            getattr(obs, method)(pts)
    with pytest.raises(ValueError, match="expected"):
        obs.value(np.zeros((4, 3)))


def test_derivative_cache_is_complete_for_every_thread():
    # Threads that share a fresh MultiPoly race to fill its derivative cache;
    # each must see either no cache or a complete one.
    import sys
    import threading

    terms = {(i, j, k): 1.0 / (1 + i + j + k) for i in range(5) for j in range(5) for k in range(5)}
    x = np.array([0.1, -0.2, 0.3])
    expected = MultiPoly(3, terms).hessian(x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            poly = MultiPoly(3, terms)
            barrier = threading.Barrier(4)
            results, errors = [], []

            def work():
                barrier.wait()
                try:
                    results.append(poly.hessian(x))
                except Exception as exc:  # noqa: BLE001 - any failure is the finding
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert all(np.array_equal(r, expected) for r in results)
    finally:
        sys.setswitchinterval(interval)


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
