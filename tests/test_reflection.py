import numpy as np
import pytest

import grazemap as gm
from grazemap import reflection
from grazemap.cli import main
from grazemap.phases import boundary_trace_hessian
from grazemap.reflection import (FD_STEP, GRAZING_FLOOR, GRID_N_S, GRID_N_X, S_RANGE,
                                 _grid_seed, _reflected_field_derivative, factor_matrices)

from conftest import illuminated_samples, nan_above_phase, quartic_vsq, sample_disk


def specular(obstacle, x, v):
    """Mirror reflection oracle: v - 2 <v, n> n with n the unit conormal."""
    g = obstacle.gradient(x)
    n = np.concatenate(([1.0], -g)) / np.sqrt(1.0 + g @ g)
    return v - 2.0 * float(v @ n) * n


def test_reflect_examples(sphere):
    # flat-top grazing: the covector is unchanged
    xi = gm.BoundaryCovector(np.zeros(2), 0.0, np.array([0.0, 1.0]))
    xr = gm.reflect_direction(sphere, [0.0, 0.0], xi)
    assert xr.xi1 == 0.0 and np.array_equal(xr.xibar, xi.xibar)
    # flat-top head-on: mirror
    xi = gm.BoundaryCovector(np.zeros(2), -1.0, np.zeros(2))
    xr = gm.reflect_direction(sphere, [0.0, 0.0], xi)
    assert (xr.xi1, *xr.xibar) == (1.0, 0.0, 0.0)
    # tilted wall from the oracle
    obs = gm.Obstacle(gm.GenericSmooth(2, func=lambda x: 1.0 + x[0],
                                       grad=lambda x: np.array([1.0, 0.0])), radius=1.0)
    xi = gm.BoundaryCovector(np.zeros(2), -1.0, np.zeros(2))
    xr = gm.reflect_direction(obs, [0.0, 0.0], xi)
    assert np.allclose(xr.vector, [0.0, -1.0, 0.0], atol=1e-15)


def test_reflection_against_specular_oracle(sphere, side_source):
    rng = np.random.default_rng(21)
    for x in sample_disk(rng, 0.45, 500):
        xi = gm.xi_incoming(side_source, sphere, x)
        xr = gm.reflect_direction(sphere, x, xi)
        assert np.max(np.abs(xr.vector - specular(sphere, x, xi.vector))) < 1e-14


def test_reflection_identities_and_involution(side_source):
    rng = np.random.default_rng(22)
    for obs in (gm.sphere_obstacle(2, radius=0.5), quartic_vsq()):
        for x in sample_disk(rng, obs.radius * 0.9, 300):
            g = obs.gradient(x)
            xi = gm.xi_incoming(side_source, obs, x)
            xr = gm.reflect_direction(obs, x, xi)
            assert abs(xr.norm - 1.0) < 1e-12
            assert np.max(np.abs((xi.xi1 * g + xi.xibar) - (xr.xi1 * g + xr.xibar))) < 1e-12
            assert abs((xr.xi1 - g @ xr.xibar) + (xi.xi1 - g @ xi.xibar)) < 1e-12
            back = gm.reflect_direction(obs, x, xr)
            assert np.max(np.abs(back.vector - xi.vector)) < 1e-12


def test_classification(sphere, side_source):
    assert gm.classify_boundary_point(sphere, side_source, [0.0, 0.0]).label == "grazing"
    assert gm.classify_boundary_point(sphere, side_source, [-0.3, 0.0]).label == "illuminated"
    assert gm.classify_boundary_point(sphere, side_source, [0.3, 0.0]).label == "shadow"


def test_flow_map(sphere, side_source):
    s0 = gm.flow_map(sphere, side_source, 0.0, [-0.3, 0.0], t=0.7)
    assert np.allclose(s0.y, [*sphere.boundary_point([-0.3, 0.0]), 0.7], atol=0)
    apex = gm.flow_map(sphere, side_source, 0.4, [0.0, 0.0], t=0.1)
    assert np.allclose(apex.y, [1.0, 0.8, 0.0, 0.9], atol=1e-15)
    fs = gm.flow_map(sphere, side_source, 0.25, [-0.3, 0.0], t=0.0)
    xi = gm.xi_incoming(side_source, sphere, [-0.3, 0.0])
    expected = np.concatenate((sphere.boundary_point([-0.3, 0.0]), [0.0]))
    expected[:3] += 0.5 * specular(sphere, np.array([-0.3, 0.0]), xi.vector)
    expected[3] += 0.5
    assert np.max(np.abs(fs.y - expected)) < 1e-14
    assert fs.y[3] == fs.t + 2 * fs.s
    with pytest.raises(gm.ShadowPoint):
        gm.flow_map(sphere, side_source, 0.1, [0.3, 0.0])


def test_jacobian_at_zero_is_twice_margin(sphere, side_source):
    rng = np.random.default_rng(24)
    for x, mu in illuminated_samples(sphere, side_source, rng, 50):
        rep = gm.jacobian_analytic(sphere, side_source, 0.0, x)
        assert abs(rep.j_analytic - 2.0 * mu) < 1e-12
        assert rep.lower_bound == 2.0 * mu


def test_jacobian_bound_and_fd_agreement(sphere, side_source):
    rng = np.random.default_rng(25)
    for x, mu in illuminated_samples(sphere, side_source, rng, 120):
        s = rng.uniform(0.0, 1.0)
        rep = gm.jacobian_analytic(sphere, side_source, s, x)
        jf = gm.jacobian_fd(sphere, side_source, s, x, t=0.3)
        assert abs(rep.j_analytic - jf) / max(abs(rep.j_analytic), abs(jf)) < 1e-6
        assert rep.j_analytic >= 2.0 * mu - 1e-9


def test_jacobian_factor_identities(sphere, side_source):
    rng = np.random.default_rng(26)
    for x, mu in illuminated_samples(sphere, side_source, rng, 80):
        b_mat, _, k_mat, l_mat = factor_matrices(sphere, side_source, x)
        btk = b_mat.T @ k_mat
        assert np.max(np.abs(btk - btk.T)) < 1e-9
        xi = gm.xi_incoming(side_source, sphere, x)
        xr = gm.xi_reflected(sphere, side_source, x)
        assert np.max(np.abs(b_mat.T @ l_mat - (xi.xi1 - xr.xi1) * sphere.hessian(x))) < 1e-9
        # spherical closed form for B^T K
        pt = sphere.boundary_point(x)
        rel = pt - side_source.source
        rho = np.linalg.norm(rel)
        w = (rel[0] / rho) * sphere.gradient(x) + rel[1:] / rho
        g = sphere.gradient(x)
        closed = (np.eye(2) + np.outer(g, g) - np.outer(w, w)) / rho
        assert np.max(np.abs(btk - closed)) < 1e-10


def _fd_reflected_field(obstacle, phase, x, h=1e-6):
    """(grad xi1_r, d xibar_r / d xbar) by central differences of xi_reflected."""
    cols = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        hi = gm.xi_reflected(obstacle, phase, x + e).vector
        lo = gm.xi_reflected(obstacle, phase, x - e).vector
        cols.append((hi - lo) / (2.0 * h))
    jac = np.column_stack(cols)
    return jac[0], jac[1:]


@pytest.mark.parametrize("phase", [
    gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
    gm.PlanePhase(theta=[0.0, 1.0, 0.0]),
    gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0),
], ids=["spherical", "plane", "convex-distance"])
@pytest.mark.parametrize("obstacle", [gm.sphere_obstacle(2, radius=0.5), quartic_vsq()],
                         ids=["sphere", "quartic_vsq"])
def test_reflected_field_derivative_matches_differences(obstacle, phase):
    # The closed-form chain rule against central differences of the
    # reflected covector itself, which share none of its algebra.
    rng = np.random.default_rng(29)
    for x, mu in illuminated_samples(obstacle, phase, rng, 40):
        xr, d_xi1r, k_mat, l_mat = _reflected_field_derivative(
            obstacle, phase, gm.classify_boundary_point(obstacle, phase, x))
        fd_xi1r, fd_xibar_r = _fd_reflected_field(obstacle, phase, x)
        assert np.array_equal(xr.vector, gm.xi_reflected(obstacle, phase, x).vector)
        assert np.max(np.abs(d_xi1r - fd_xi1r)) < 1e-6
        assert np.max(np.abs(k_mat + l_mat - fd_xibar_r)) < 1e-6


def test_jacobian_regular_where_reflected_xi1_vanishes(sphere, side_source):
    # Bisect xi1_r along a segment of the illuminated region on which it
    # changes sign; the factor matrices divide by xi1_r there, the closed
    # spatial block does not.
    a, b = np.array([-0.3, 0.0]), np.array([-0.108381, 0.390274])

    def xi1r(u):
        return gm.xi_reflected(sphere, side_source, a + u * (b - a)).xi1

    lo, hi = 0.0, 1.0
    assert xi1r(lo) * xi1r(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if xi1r(mid) * xi1r(lo) > 0.0:
            lo = mid
        else:
            hi = mid
    u = min((lo, hi), key=lambda v: abs(xi1r(v)))
    x = a + u * (b - a)
    assert abs(xi1r(u)) < 1e-13
    assert np.max(np.abs(x - [-0.12605, 0.35429])) < 1e-4
    mu = gm.tangency_margin(sphere, side_source, x)
    assert abs(mu - 0.116) < 1e-3
    with pytest.raises(gm.GrazingSingular):
        factor_matrices(sphere, side_source, x)
    for s in (0.0, 0.3, 1.0):
        rep = gm.jacobian_analytic(sphere, side_source, s, x)
        assert rep.j_analytic >= 2.0 * mu - 1e-9
        jf = gm.jacobian_fd(sphere, side_source, s, x)
        assert abs(rep.j_analytic - jf) / abs(jf) < 1e-6


def test_general_phase_btk_identity(sphere):
    conv = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)
    rng = np.random.default_rng(27)
    checked = 0
    for x, mu in illuminated_samples(sphere, conv, rng, 200):
        if abs(gm.xi_reflected(sphere, conv, x).xi1) < 0.05:
            continue  # factor matrices are near-singular there
        b_mat, _, k_mat, _ = factor_matrices(sphere, conv, x)
        xi = gm.xi_incoming(conv, sphere, x)
        rhs = boundary_trace_hessian(conv, sphere, x) - xi.xi1 * sphere.hessian(x)
        assert np.max(np.abs(b_mat.T @ k_mat - rhs)) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (rhs + rhs.T))[0] >= -1e-8
        checked += 1
    assert checked > 100


def test_flat_limit_drops_curvature_term():
    # Zero-Hessian boundary (tilted plane): L vanishes and the Jacobian
    # reduces to the curvature-free factorization 2 xi1_r det(B + 2s C K).
    plane = gm.Obstacle(gm.GenericSmooth(2, func=lambda x: 1.0 + 0.3 * x[0],
                                         grad=lambda x: np.array([0.3, 0.0])), radius=1.0)
    src = gm.SphericalPhase(source=[2.0, -1.0, 0.0])
    x = np.array([0.1, -0.2])
    mu = gm.tangency_margin(plane, src, x)
    assert mu > 0.5
    s = 0.5
    b_mat, c_mat, k_mat, l_mat = factor_matrices(plane, src, x)
    assert np.max(np.abs(l_mat)) < 1e-12
    j_without_l = 2.0 * gm.xi_reflected(plane, src, x).xi1 * np.linalg.det(
        b_mat + 2.0 * s * c_mat @ k_mat)
    assert abs(gm.jacobian_analytic(plane, src, s, x).j_analytic - j_without_l) < 1e-6


def test_jacobian_errors(sphere, side_source):
    with pytest.raises(gm.GrazingSingular):
        gm.jacobian_analytic(sphere, side_source, 0.1, [0.0, 0.0])
    with pytest.raises(gm.ShadowPoint):
        gm.jacobian_analytic(sphere, side_source, 0.1, [0.3, 0.0])


def test_invert_round_trip(sphere, side_source):
    rng = np.random.default_rng(28)
    for x, mu in illuminated_samples(sphere, side_source, rng, 60, margin_floor=0.05):
        s = rng.uniform(0.01, 1.0)
        t = rng.uniform(-1.0, 1.0)
        y = gm.flow_map(sphere, side_source, s, x, t).y
        s2, x2, t2 = gm.invert_flow(sphere, side_source, y,
                                    seed=(s * 1.1 + 0.01, x + 0.003))
        assert abs(s2 - s) < 1e-8
        assert np.max(np.abs(x2 - x)) < 1e-8
        assert abs(t2 - t) < 1e-8


def test_invert_grid_seed_and_boundary(sphere, side_source):
    y = gm.flow_map(sphere, side_source, 0.35, [-0.28, 0.12], t=0.4).y
    s, x, t = gm.invert_flow(sphere, side_source, y)
    assert abs(s - 0.35) < 1e-8 and np.max(np.abs(x - [-0.28, 0.12])) < 1e-8
    y0 = gm.flow_map(sphere, side_source, 0.0, [-0.3, 0.0], t=0.0).y
    s, _, _ = gm.invert_flow(sphere, side_source, y0, seed=(0.05, [-0.31, 0.01]))
    assert abs(s) < 1e-10


def test_invert_errors(sphere, side_source):
    inside = np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(gm.OutsideRange):
        gm.invert_flow(sphere, side_source, inside)
    y = gm.flow_map(sphere, side_source, 0.3, [-0.3, 0.0], t=0.0).y
    with pytest.raises(gm.GrazingSingular):
        gm.invert_flow(sphere, side_source, y, seed=(0.3, [0.0, 0.0]))


def test_reflected_phase(sphere, side_source):
    x = np.array([-0.25, 0.1])
    t = 0.2
    y1 = gm.flow_map(sphere, side_source, 0.3, x, t).y
    y2 = gm.flow_map(sphere, side_source, 0.7, x, t).y
    v1, g1 = gm.reflected_phase_at(sphere, side_source, y1)
    v2, g2 = gm.reflected_phase_at(sphere, side_source, y2)
    assert np.max(np.abs(g1 - g2)) < 1e-10
    assert abs(v1 - (-t + gm.boundary_trace(side_source, sphere, x))) < 1e-10
    assert abs(v1 - v2) < 1e-10  # constant along the ray
    # characteristic: |spatial gradient|^2 - |time derivative|^2 = 0
    assert abs(g1[:3] @ g1[:3] - g1[3] ** 2) < 1e-9
    y0 = gm.flow_map(sphere, side_source, 0.0, x, t).y
    v0, _ = gm.reflected_phase_at(sphere, side_source, y0, seed=(0.02, x + 0.01))
    assert abs(v0 - (-t + gm.boundary_trace(side_source, sphere, x))) < 1e-9


def test_verify_rfm_passes(sphere, side_source):
    verdict = gm.verify_rfm(sphere, side_source, s0=1.0, budget=400, seed=42)
    assert verdict.passed
    assert verdict.worst_fd_rel_error < 1e-6
    assert verdict.worst_bound_gap > -1e-9
    conv = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)
    assert gm.verify_rfm(sphere, conv, s0=1.0, budget=200, seed=42).passed


def test_verify_rfm_catches_focusing_field(sphere):
    # Adversarial non-convex phase: rays converging toward a virtual point
    # within the mirror's focal depth refocus after reflection, so the flow
    # folds and the Jacobian changes sign.  The verifier must record it.
    c = np.array([0.8, 0.0, 0.0])
    focusing = gm.ConvexPhase(
        value_fn=lambda x: -np.linalg.norm(x - c),
        grad_fn=lambda x: -(x - c) / np.linalg.norm(x - c), name="focusing")
    assert not gm.convexity_check(
        focusing, [(np.array([1.5, 0.1, 0.0]), np.array([1.2, -0.3, 0.2]))]).passed
    verdict = gm.verify_rfm(sphere, focusing, s0=1.0, budget=300, seed=1)
    assert not verdict.passed
    assert verdict.bound_failures
    assert any(row[4] < 0.0 for row in verdict.rows if not np.isnan(row[4]))


def test_nan_margin_is_a_numerical_failure_not_a_grazing_point(sphere):
    # A NaN margin fails both comparisons with the grazing tolerance; it was
    # labelled grazing, so verify_rfm gave such samples no check and read PASS
    # with 127 NaN rows of 300.
    phase = nan_above_phase()
    first = r"^tangency margin is nan at xbar=\[0\.011821388267762745, 0\.4504546870520088\]$"
    with pytest.raises(gm.NonFiniteMargin, match=first):
        gm.verify_rfm(sphere, phase, s0=1.0, budget=300, seed=1)
    pts = np.array([[-0.1, 0.0], [0.1, -0.1], [0.0, 0.3], [0.0, 0.25]])
    with pytest.raises(gm.NonFiniteMargin, match=r"at xbar=\[0\.0, 0\.3\]$"):
        gm.classify_boundary_point(sphere, phase, pts)  # the first NaN row is named
    with pytest.raises(gm.NonFiniteMargin, match=r"at xbar=\[0\.0, 0\.25\]$"):
        gm.classify_boundary_point(sphere, phase, pts[3])
    # Lit and shadow points below the cut keep their labels, batched or not.
    assert gm.classify_boundary_point(sphere, phase, pts[:2]).label.tolist() == [
        "illuminated", "shadow"]
    assert [gm.classify_boundary_point(sphere, phase, p).label for p in pts[:2]] == [
        "illuminated", "shadow"]
    assert gm.NonFiniteMargin.exit_code == 3


def test_verify_rfm_injectivity_pass_fires(sphere, side_source, monkeypatch):
    # A collapsing map: every sample gets s = 0 and t = lo = -1, and the
    # spatial flow point is constant, so all images coincide while the
    # boundary points differ.  The pass must record the pairs.
    import grazemap.reflection as refl
    real_draw = refl._draw

    def draw_at_low(*args):
        recs, dom, tries = real_draw(*args)
        dom[:, 0], dom[:, -1] = 0.0, -1.0
        return recs, dom, tries

    monkeypatch.setattr(refl, "_draw", draw_at_low)
    monkeypatch.setattr(refl.BoundaryClassification, "image",
                        lambda self, s: np.zeros(np.shape(s)[:-1] + (3,)))
    verdict = gm.verify_rfm(sphere, side_source, s0=1.0, budget=50, seed=3)
    assert not verdict.passed
    assert len(verdict.injectivity_failures) > 200
    for (s1, x1, t1), (s2, x2, t2), dom, img in verdict.injectivity_failures:
        assert (s1, t1, s2, t2) == (0.0, -1.0, 0.0, -1.0)
        assert img == 0.0 and abs(dom - np.linalg.norm(x1 - x2)) < 1e-15


def test_verify_rfm_keeps_difference_steps_inside_domain(sphere, side_source):
    # This seed draws a sample within two difference steps of the domain edge:
    # drawn from the full disk, it made jacobian_fd raise DomainExceeded.
    verdict = gm.verify_rfm(sphere, side_source, s0=1.0, budget=100, seed=726285599)
    assert verdict.passed
    assert max(np.linalg.norm(row[1]) for row in verdict.rows) > sphere.radius - 2 * FD_STEP


def test_verify_rfm_rejects_zero_budget(sphere, side_source):
    with pytest.raises(ValueError):
        gm.verify_rfm(sphere, side_source, budget=0)


@pytest.mark.parametrize("budget", [2.5, np.float64(3.0), "5", None],
                         ids=["float", "numpy-float", "str", "none"])
def test_verify_rfm_rejects_a_budget_that_is_not_an_integer(sphere, side_source, budget):
    # These raised numpy's or the comparison's builtin TypeError.
    with pytest.raises(gm.InvalidArgument, match="^budget must be an integer, got "):
        gm.verify_rfm(sphere, side_source, budget=budget)
    # Python and numpy integers still pass.
    assert gm.verify_rfm(sphere, side_source, budget=np.int64(3)).n_samples == 3


@pytest.mark.parametrize("seed", [2.5, np.float64(7.0), "7", None],
                         ids=["float", "numpy-float", "str", "none"])
def test_verify_rfm_rejects_a_seed_that_is_not_an_integer(sphere, side_source, seed):
    # np.random.default_rng raised its builtin TypeError for the first three
    # and drew a fresh, unrepeatable stream for None.
    with pytest.raises(gm.InvalidArgument, match="^seed must be an integer, got "):
        gm.verify_rfm(sphere, side_source, budget=3, seed=seed)
    assert gm.verify_rfm(sphere, side_source, budget=3, seed=np.uint32(7)).n_samples == 3


def test_verify_rfm_rejects_a_negative_seed(sphere, side_source):
    # np.random.default_rng raised its builtin ValueError.
    with pytest.raises(gm.InvalidArgument, match="^seed must be nonnegative, got -1$"):
        gm.verify_rfm(sphere, side_source, budget=3, seed=-1)


@pytest.mark.parametrize("s0", ["1", None], ids=["str", "none"])
def test_verify_rfm_rejects_an_s0_that_is_not_a_number(sphere, side_source, s0):
    # The range test raised the comparison's builtin TypeError.
    with pytest.raises(gm.InvalidArgument, match="^s0 must be finite and nonnegative$"):
        gm.verify_rfm(sphere, side_source, s0=s0, budget=3)


def test_verify_rfm_refuses_a_budget_above_max_budget_before_drawing(sphere, side_source,
                                                                     monkeypatch):
    # A draw keeps a record per sample; budget=10**12 ran until the process
    # was killed.  MAX_BUDGET itself reaches the draw, here a stand-in.
    class Drew(Exception):
        pass

    def draw(*args):
        raise Drew

    monkeypatch.setattr(reflection, "_draw", draw)
    with pytest.raises(gm.InvalidArgument, match=r"^budget 1000001 exceeds MAX_BUDGET = 1000000$"):
        gm.verify_rfm(sphere, side_source, budget=gm.MAX_BUDGET + 1)
    with pytest.raises(Drew):
        gm.verify_rfm(sphere, side_source, budget=gm.MAX_BUDGET)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_flow_map_rejects_a_time_that_is_not_finite(sphere, side_source, t):
    # A NaN t gave a flow point whose time coordinate was NaN, with no error.
    with pytest.raises(gm.InvalidArgument, match="^time t must be finite$"):
        gm.flow_map(sphere, side_source, 0.3, [-0.2, 0.1], t=t)
    assert gm.flow_map(sphere, side_source, 0.3, [-0.2, 0.1], t=-2.5).y[-1] == -2.5 + 0.6


@pytest.mark.parametrize("s", [-0.5, np.nan, np.inf])
def test_flow_map_rejects_a_ray_parameter_off_the_ray(sphere, side_source, s):
    # A NaN s passed the old `s < 0` guard and gave a flow point of NaNs.
    with pytest.raises(gm.InvalidArgument,
                       match="^ray parameter s must be finite and nonnegative$"):
        gm.flow_map(sphere, side_source, s, [-0.2, 0.1])


@pytest.mark.parametrize("s0", [-0.5, np.nan, np.inf])
def test_verify_rfm_rejects_a_ray_range_it_cannot_draw_from(sphere, side_source, s0):
    # rng.uniform(0, s0) refuses these ranges; the draw is checked up front,
    # whether or not a sample is ever kept.
    with pytest.raises(gm.InvalidArgument, match="^s0 must be finite and nonnegative$"):
        gm.verify_rfm(sphere, side_source, s0=s0, budget=5)


def test_jacobian_fd_accepts_the_grazing_points_flow_map_accepts(sphere, side_source):
    # Margin -5e-11: below zero, but within GRAZING_TOL of it.
    xbar = [2.5e-11, 0.0]
    cls = gm.classify_boundary_point(sphere, side_source, xbar)
    assert cls.label == "grazing" and cls.margin < 0.0
    gm.flow_map(sphere, side_source, 0.3, xbar)
    assert np.isfinite(gm.jacobian_fd(sphere, side_source, 0.3, xbar))
    with pytest.raises(gm.ShadowPoint):
        gm.jacobian_fd(sphere, side_source, 0.3, [0.3, 0.0])


_LIT = [-0.2, 0.1]  # an illuminated sphere/side point
_S_RANGE = r"^ray parameter s must be finite and nonnegative$"
_S_REALS = r"^ray parameter s must be finite real numbers, got "
_COMPLEX = r"^point must be real numbers, got "
_RAGGED = [[0.1, 0.2], [0.3]]
_RAGGED_MSG = r"^point must be a regular array, got a ragged sequence$"
_BAD_FLOW_ARGUMENTS = {
    "flow-s-array": (lambda o, p: gm.flow_map(o, p, np.array([0.3]), _LIT), _S_RANGE),
    "flow-s-huge-int": (lambda o, p: gm.flow_map(o, p, 10**400, _LIT), _S_RANGE),
    "flow-s-str": (lambda o, p: gm.flow_map(o, p, "0.3", _LIT), _S_RANGE),
    "flow-t-str": (lambda o, p: gm.flow_map(o, p, 0.3, _LIT, t="1"), r"^time t must be finite$"),
    "flow-xbar-complex": (lambda o, p: gm.flow_map(o, p, 0.3, np.array(_LIT) + 0j), _COMPLEX),
    "classify-xbar-complex": (lambda o, p: gm.classify_boundary_point(o, p, [-0.2 + 1j, 0.1]),
                              _COMPLEX),
    "classify-xbar-str": (lambda o, p: gm.classify_boundary_point(o, p, ["-0.2", "0.1"]),
                          _COMPLEX),
    "analytic-s-str": (lambda o, p: gm.jacobian_analytic(o, p, "0.3", _LIT), _S_REALS + "'0.3'$"),
    "analytic-s-nan": (lambda o, p: gm.jacobian_analytic(o, p, np.nan, _LIT), _S_REALS + "nan$"),
    "analytic-s-batch-inf": (lambda o, p: gm.jacobian_analytic(o, p, [0.3, np.inf], [_LIT] * 2),
                             _S_REALS),
    "analytic-xbar-complex": (lambda o, p: gm.jacobian_analytic(o, p, 0.3, [np.array(_LIT) + 1j]),
                              _COMPLEX),
    "fd-s-str": (lambda o, p: gm.jacobian_fd(o, p, "0.3", _LIT), _S_REALS + "'0.3'$"),
    "fd-t-str": (lambda o, p: gm.jacobian_fd(o, p, 0.3, _LIT, t="0"),
                 r"^time t must be finite real numbers, got '0'$"),
    # An s or t with an axis has one entry per point.
    "analytic-s-length": (lambda o, p: gm.jacobian_analytic(o, p, [0.3, 0.4, 0.5], [_LIT] * 2),
                          r"^ray parameter s has 3 entries for 2 points$"),
    "analytic-s-length-one-point": (lambda o, p: gm.jacobian_analytic(o, p, [0.3, 0.4], _LIT),
                                    r"^ray parameter s has 2 entries for 1 points$"),
    "fd-s-length": (lambda o, p: gm.jacobian_fd(o, p, [0.3, 0.4, 0.5], [_LIT] * 2),
                    r"^ray parameter s has 3 entries for 2 points$"),
    "fd-t-length": (lambda o, p: gm.jacobian_fd(o, p, 0.3, [_LIT] * 2, t=[0.0, 0.1, 0.2]),
                    r"^time t has 3 entries for 2 points$"),
    # A ragged xbar, which numpy refuses with its own ValueError.
    "classify-xbar-ragged": (lambda o, p: gm.classify_boundary_point(o, p, _RAGGED), _RAGGED_MSG),
    "margin-xbar-ragged": (lambda o, p: gm.tangency_margin(o, p, _RAGGED), _RAGGED_MSG),
    "analytic-xbar-ragged": (lambda o, p: gm.jacobian_analytic(o, p, 0.3, _RAGGED), _RAGGED_MSG),
    "fd-xbar-ragged": (lambda o, p: gm.jacobian_fd(o, p, 0.3, _RAGGED), _RAGGED_MSG),
}


@pytest.mark.parametrize("case", list(_BAD_FLOW_ARGUMENTS))
def test_bad_flow_arguments_are_refused_before_any_evaluation(sphere, side_source, monkeypatch,
                                                              case):
    # These raised numpy's ValueError or UFuncTypeError or a builtin
    # OverflowError or TypeError, returned NaN after a RuntimeWarning, read
    # "0.3" as 0.3, or dropped an imaginary part after a ComplexWarning.
    call, match = _BAD_FLOW_ARGUMENTS[case]

    def refuse(*args):
        raise AssertionError("evaluated before the arguments were checked")

    for name in ("_check_domain", "_jet_at"):
        monkeypatch.setattr(gm.Obstacle, name, refuse)
    with pytest.raises(gm.InvalidArgument, match=match):
        call(sphere, side_source)


def reference_grid_seed(obstacle, phase, y_space):
    """The grid seed as a double loop over mesh points and ray parameters,
    keeping the first strict minimum of |flow point - y_space|."""
    axis = np.linspace(-obstacle.radius, obstacle.radius, GRID_N_X)
    mesh = np.array([[x2, x3] for x2 in axis for x3 in axis])
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= obstacle.radius]
    best, best_err = None, np.inf
    for xb in mesh:
        if gm.tangency_margin(obstacle, phase, xb) < GRAZING_FLOOR:
            continue
        xr = gm.xi_reflected(obstacle, phase, xb)
        base = obstacle.boundary_point(xb)
        for s in np.linspace(S_RANGE[0], S_RANGE[1], GRID_N_S):
            err = float(np.linalg.norm(base + 2.0 * s * xr.vector - y_space))
            if err < best_err:
                best, best_err = (s, xb), err
    return best


@pytest.mark.parametrize("obstacle, phase", [
    (gm.sphere_obstacle(2, radius=0.5), gm.SphericalPhase(source=[1.0, -1.0, 0.0])),
    (gm.sphere_obstacle(2, radius=0.5), gm.PlanePhase(theta=[0.0, 1.0, 0.0])),
    (quartic_vsq(), gm.SphericalPhase(source=[1.0, 0.0, 1.0])),
], ids=["sphere-side", "sphere-plane", "cusp-top"])
def test_grid_seed_equals_reference_double_loop(obstacle, phase):
    rng = np.random.default_rng(31)
    targets = [gm.flow_map(obstacle, phase, 0.4, x, 0.0).y[:-1]
               for x, _ in illuminated_samples(obstacle, phase, rng, 2)]
    targets += [np.concatenate((rng.uniform(1.0, 2.0, 1), rng.uniform(-0.6, 0.6, 2)))
                for _ in range(2)]
    for y_space in targets:
        s, xb = _grid_seed(obstacle, phase, y_space)
        s_ref, xb_ref = reference_grid_seed(obstacle, phase, y_space)
        assert s == s_ref and np.array_equal(xb, xb_ref)


# grad F is counted at ``Obstacle._gradient``, which ``gradient`` calls after
# its domain check and ``classify_boundary_point`` calls directly.
COUNTED = ((gm.Obstacle, "boundary_point"), (gm.SphericalPhase, "grad_psi"),
           (gm.Obstacle, "_gradient"))


@pytest.fixture
def evaluations(monkeypatch):
    """Points evaluated by each COUNTED method so far, in COUNTED order: one
    per single-point call, m per batch (m, d); reset by slice assignment."""
    counts = [0] * len(COUNTED)

    def counting(k, real):
        def counted(self, x):
            counts[k] += len(x) if np.ndim(x) == 2 else 1
            return real(self, x)
        return counted

    for k, (owner, name) in enumerate(COUNTED):
        monkeypatch.setattr(owner, name, counting(k, getattr(owner, name)))
    return counts


def test_each_boundary_point_is_assembled_once(sphere, side_source, evaluations, tmp_path):
    xbar = np.array([-0.2, 0.1])
    cls = gm.classify_boundary_point(sphere, side_source, xbar)
    assert evaluations == [1, 1, 1]
    assert np.array_equal(cls.image(0.7), gm.flow_map(sphere, side_source, 0.7, xbar).y[:-1])
    assert evaluations == [2, 2, 2]

    (tmp_path / "sphere.obstacle").write_text("kind = builtin\nname = sphere\nradius = 0.5\n",
                                              encoding="utf-8")
    (tmp_path / "side.phase").write_text("kind = spherical\nb = 1 -1 0\n", encoding="utf-8")
    evaluations[:] = [0, 0, 0]
    assert main(["reflect", "--obstacle", str(tmp_path / "sphere.obstacle"),
                 "--phase", str(tmp_path / "side.phase"), "--budget", "100",
                 "--out", str(tmp_path / "o")]) == 0
    assert evaluations == [100, 100, 100]


@pytest.mark.parametrize("xbar", [[-0.2, 0.1], [[-0.2, 0.1], [0.3, -0.1], [0.0, 0.0]]],
                         ids=["point", "batch"])
def test_classification_checks_the_domain_once(sphere, side_source, monkeypatch, xbar):
    # The boundary point and grad F are evaluated at the same xbar, so one
    # radius check serves both.
    checks = [0]
    real = gm.Obstacle._check_domain

    def counted(self, x):
        checks[0] += 1
        return real(self, x)

    monkeypatch.setattr(gm.Obstacle, "_check_domain", counted)
    cls = gm.classify_boundary_point(sphere, side_source, xbar)
    assert checks[0] == 1
    monkeypatch.setattr(gm.Obstacle, "_check_domain", real)
    assert np.array_equal(cls.grad_f, sphere.gradient(xbar))
    with pytest.raises(gm.DomainExceeded):
        gm.classify_boundary_point(sphere, side_source, [0.4, 0.31])


def test_inversion_and_sampler_do_not_re_derive_points(sphere, side_source, evaluations):
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1])).y
    evaluations[:] = [0, 0, 0]
    gm.invert_flow(sphere, side_source, y, seed=(0.6, np.array([-0.18, 0.12])))
    # Upper bounds on (boundary_point, grad_psi, gradient): the cost when each
    # trial or sampled point is assembled once for its margin and again for
    # its flow point.
    assert all(n <= bound for n, bound in zip(evaluations, (23, 14, 26)))
    evaluations[:] = [0, 0, 0]
    verdict = gm.verify_rfm(sphere, side_source, budget=300, seed=1)
    # The draw's first chunk holds 4 * budget = 1200 rows of 4 raw doubles and
    # this draw tries fewer, so it classifies each in-disk candidate of that
    # chunk once.  Add the 8 difference points of each FD-compared sample;
    # the analytic Jacobians and the images read the draw's records.
    assert verdict.tries <= 1200
    r = sphere.radius - FD_STEP
    candidates = -r + 2.0 * r * np.random.default_rng(1).random((1200, 4))[:, :2]
    n_classified = int(np.count_nonzero(np.linalg.norm(candidates, axis=1) <= r))
    n_fd = sum(1 for row in verdict.rows if not np.isnan(row[5]))
    assert n_fd == 300
    assert evaluations == [n_classified + 8 * n_fd] * 3


def test_batched_jacobian_assembles_each_point_once(sphere, side_source, evaluations):
    pts = np.array([[-0.3, 0.0], [-0.2, 0.1], [-0.25, -0.2], [-0.1, 0.3], [-0.4, 0.05]])
    gm.jacobian_analytic(sphere, side_source, np.linspace(0.0, 1.0, 5), pts)
    assert evaluations == [5, 5, 5]
    evaluations[:] = [0, 0, 0]
    gm.jacobian_analytic(sphere, side_source, 0.4, pts[0])
    assert evaluations == [1, 1, 1]


def test_reflected_phase_assembles_the_converged_point_once(sphere, side_source, evaluations):
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1]), 0.3).y
    seed = (0.6, np.array([-0.18, 0.12]))
    evaluations[:] = [0, 0, 0]
    gm.invert_flow(sphere, side_source, y, seed=seed)
    inversion = list(evaluations)
    evaluations[:] = [0, 0, 0]
    gm.reflected_phase_at(sphere, side_source, y, seed=seed)
    # The converged point is read from the inversion's float record, not assembled again.
    assert evaluations == inversion
