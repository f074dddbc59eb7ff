import numpy as np
import pytest

import grazemap as gm
from grazemap.diffgeo import MultiPoly
from grazemap.grazing import leading_homogeneous_part

from conftest import (planar_c1_obstacle, planar_cusp_obstacle, quartic_mixed_vsq,
                      quartic_quartic, quartic_vsq, rounded_quartic)


def test_residual_examples():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    assert gm.grazing_residual(gf, obs, [0.0, 0.0]) == 0.0
    assert abs(gm.grazing_residual(gf, obs, [-0.1, 0.06]) - (-1.0e-4)) < 1e-16
    gfp = gm.PlanarGrazing(thetabar=[1.0, 0.0])
    obs2 = planar_cusp_obstacle()
    assert abs(gm.grazing_residual(gfp, obs2, [0.0, 0.1]) - 0.01) < 1e-17


def test_spherical_form_identity():
    # For F = 1 - G with G homogeneous of degree 2k, the defining function
    # collapses to (2k-1) G - grad G . bbar.
    rng = np.random.default_rng(31)
    g = MultiPoly(2, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0})
    obs = rounded_quartic()
    b = np.array([-1.0, 0.0])
    gf = gm.SphericalGrazing(bbar=b)
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5, 2)
        reduced = 3.0 * g.value(x) - float(g.gradient(x) @ b)
        assert abs(gm.grazing_residual(gf, obs, x) - reduced) < 1e-12


def test_margin_consistency(sphere, side_source):
    # Spherical defining function equals -(distance to source) * margin.
    rng = np.random.default_rng(32)
    gf = gm.SphericalGrazing(bbar=side_source.source[1:])
    for _ in range(100):
        x = rng.uniform(-0.3, 0.3, 2)
        rho = np.linalg.norm(sphere.boundary_point(x) - side_source.source)
        assert abs(gm.grazing_residual(gf, sphere, x)
                   + rho * gm.tangency_margin(sphere, side_source, x)) < 1e-13


ORDER_CASES = [
    (quartic_vsq, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), 4),
    (quartic_mixed_vsq, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), 4),
    (quartic_quartic, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), 4),
    (planar_cusp_obstacle, gm.PlanePhase(theta=[0.0, 1.0, 0.0]), 4),
    (planar_c1_obstacle, gm.PlanePhase(theta=[0.0, 1.0, 0.0]), 4),
]


@pytest.mark.parametrize("make_obs,phase,order", ORDER_CASES)
def test_classify_order_examples(make_obs, phase, order):
    oc = gm.classify_order(make_obs(), phase)
    assert (oc.kind, oc.order, oc.diffractive) == ("even", order, True)
    # exact-polynomial path: sub-leading coefficients vanish exactly
    assert all(c == 0.0 for c in oc.coefficients[:order - 1])


def test_classify_order_more():
    obs = quartic_vsq()
    oc = gm.classify_order(obs, gm.SphericalPhase(source=[1.0, 0.0, 1.0]))
    assert (oc.kind, oc.order, oc.diffractive) == ("even", 2, True)
    oc = gm.classify_order(gm.sphere_obstacle(2), gm.SphericalPhase(source=[1.0, -1.0, 0.0]))
    assert (oc.kind, oc.order) == ("even", 2)
    flat = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.6)
    oc = gm.classify_order(flat, gm.SphericalPhase(source=[1.0, -0.7, 0.2]))
    assert (oc.kind, oc.order) == ("at-least", 16)
    with pytest.raises(gm.NotNormalized):
        gm.classify_order(obs, gm.SphericalPhase(source=[1.5, -1.0, 0.0]))


def test_classify_order_gliding_and_odd():
    from grazemap.grazing import order_from_direction
    bump = gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): 1.0, (0, 2): -1.0})
    oc = order_from_direction(bump, [1.0, 0.0])
    assert (oc.kind, oc.order, oc.diffractive) == ("even", 4, False)
    inflect = gm.polynomial_obstacle(2, {(0, 0): 1.0, (3, 0): -1.0, (0, 2): -1.0})
    oc = order_from_direction(inflect, [1.0, 0.0])
    assert (oc.kind, oc.order) == ("odd", 3)


def test_classify_order_invariances():
    from grazemap.grazing import order_from_direction
    obs = quartic_mixed_vsq()
    a = order_from_direction(obs, [1.0, 0.0])
    b = order_from_direction(obs, [2.5, 0.0])  # positive rescaling
    assert (a.kind, a.order, a.diffractive) == (b.kind, b.order, b.diffractive)
    rot, q = gm.rotate_coordinates(obs, [0.6, -0.8])
    c = order_from_direction(rot, q @ [1.0, 0.0])
    assert (a.kind, a.order, a.diffractive) == (c.kind, c.order, c.diffractive)


def test_check_u1ww():
    assert gm.check_u1ww(MultiPoly(2, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0})).passed
    assert gm.check_u1ww(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})).passed
    v = gm.check_u1ww(MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0}))
    assert not v.passed
    assert min(abs(v.argmin[0]), abs(v.argmin[1])) < 1e-12  # degenerate on an axis
    with pytest.raises(gm.grazing.NotHomogeneous):
        gm.check_u1ww(MultiPoly(2, {(4, 0): 1.0, (0, 2): 1.0}))


def test_leading_part():
    lead = leading_homogeneous_part(quartic_vsq().surface)
    assert lead.terms == {(0, 2): 1.0}
    lead = leading_homogeneous_part(quartic_quartic().surface)
    assert lead.terms == {(4, 0): 1.0, (0, 4): 1.0}


def test_trace_cusp_curve():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    curve = gm.trace_grazing_curve(gf, obs, window=0.3)
    assert len(curve.branches) == 2
    assert {b.side for b in curve.branches} == {1, -1}
    for b in curve.branches:
        assert np.max(b.residuals) <= 1e-10
        # vertices satisfy the reduced equation 3u^4 + 4u^3 + v^2 = 0
        u, v = b.vertices[:, 0], b.vertices[:, 1]
        assert np.max(np.abs(3 * u**4 + 4 * u**3 + v**2)) < 1e-10
        # arc parameters increase
        assert np.all(np.diff(b.arc_params) > 0)


def test_trace_top_source_curve_to_rounding():
    # Source straight above the x3 axis: the grazing curve is the graph
    # x3 = 1 - sqrt(1 - 3 x2^4), written cancellation-free.  The seed vertex
    # is polished like every other vertex, so none is left at bisection
    # accuracy.
    gf = gm.SphericalGrazing(bbar=[0.0, 1.0])
    curve = gm.trace_grazing_curve(gf, quartic_vsq(), window=0.3)
    t, u = curve.all_vertices().T
    assert np.max(np.abs(u - 3.0 * t**4 / (1.0 + np.sqrt(1.0 - 3.0 * t**4)))) < 1e-15


def test_trace_circle_curve(sphere):
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    curve = gm.trace_grazing_curve(gf, sphere, window=0.3)
    for b in curve.branches:
        u, v = b.vertices[:, 0], b.vertices[:, 1]
        assert np.max(np.abs(u**2 + v**2 + 2 * u)) < 1e-8


def test_trace_smooth_relocated_source():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[0.0, 1.0])
    curve = gm.trace_grazing_curve(gf, obs, window=0.25)
    assert curve.transverse_axis == 0  # graph v = v(u) here
    for b in curve.branches:
        u = b.vertices[:, 0]
        v = b.vertices[:, 1]
        mask = np.abs(u) <= 0.2
        expected = (2.0 - np.sqrt(4.0 - 12.0 * u[mask] ** 4)) / 2.0
        assert np.max(np.abs(v[mask] - expected)) < 1e-8


def test_trace_seed_not_found():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    with pytest.raises(gm.grazing.SeedNotFound):
        gm.trace_grazing_curve(gf, obs, window=1e-5)
    # non-grazing apex
    shifted = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    tilted = gm.Obstacle(gm.GenericSmooth(2, func=lambda x: 1.0 - x[0] ** 2 - x[1] ** 2 - 0.05),
                         radius=0.6)
    with pytest.raises(gm.grazing.SeedNotFound):
        gm.trace_grazing_curve(shifted, tilted, window=0.3)


REGULARITY_CASES = [
    (quartic_vsq, gm.SphericalGrazing(bbar=[-1.0, 0.0]), "cusp", 2 / 3, -4.0 ** (-1 / 3)),
    (quartic_quartic, gm.SphericalGrazing(bbar=[-1.0, 0.0]), "c1-not-c2", 4 / 3,
     -(3.0 / 4.0) ** (1 / 3)),
    (quartic_mixed_vsq, gm.SphericalGrazing(bbar=[-1.0, 0.0]), "cusp", 2 / 3, -4.0 ** (-1 / 3)),
    (planar_cusp_obstacle, gm.PlanarGrazing(thetabar=[1.0, 0.0]), "cusp", 2 / 3, None),
    (planar_c1_obstacle, gm.PlanarGrazing(thetabar=[1.0, 0.0]), "c1-not-c2", 4 / 3,
     -4.0 ** (-1 / 3)),
]


@pytest.mark.parametrize("make_obs,gf,verdict,exponent,coefficient", REGULARITY_CASES)
def test_estimate_regularity(make_obs, gf, verdict, exponent, coefficient):
    curve = gm.trace_grazing_curve(gf, make_obs(), window=0.3)
    est = gm.estimate_regularity(curve)
    assert est.verdict == verdict
    assert abs(est.exponent - exponent) < 0.08
    if coefficient is not None:
        assert abs(est.coefficient - coefficient) <= 0.05 * abs(coefficient)


def test_estimate_regularity_insufficient():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    curve = gm.trace_grazing_curve(gf, obs, window=0.3)
    with pytest.raises(gm.grazing.InsufficientPoints):
        gm.estimate_regularity(curve, fit_window=(1e-8, 1e-7))


def test_slice_counts():
    obs = rounded_quartic()
    for x2s in (-0.1, -0.05, -0.02, -0.01):
        sc = gm.slice_grazing_count(obs, [-1.0, 0.0], x2s)
        assert (sc.count_pos, sc.count_neg) == (1, 1)
    with pytest.raises(gm.grazing.SliceMiss):
        gm.slice_grazing_count(obs, [-1.0, 0.0], 0.05)


def test_slice_counts_rotated_source():
    obs = rounded_quartic()
    sc0 = gm.slice_grazing_count(obs, [-1.0, 0.0], -0.05)
    sc1 = gm.slice_grazing_count(obs, [0.0, -1.0], -0.05)
    assert (sc1.count_pos, sc1.count_neg) == (1, 1)
    # rotated points come back in original coordinates, on the grazing set
    gf = gm.SphericalGrazing(bbar=[0.0, -1.0])
    for p in sc1.points:
        assert abs(gm.grazing_residual(gf, obs, p)) < 1e-8
    assert sc0.points.shape == sc1.points.shape


def test_grazing_scan_1d():
    for terms in ({(0,): 1.0, (4,): -1.0}, {(0,): 1.0, (2,): -1.0}):
        obs = gm.polynomial_obstacle(1, terms)
        gf = gm.SphericalGrazing(bbar=[-1.0])
        count, zeros = gm.grazing_zero_scan_1d(gf, obs, window=0.3)
        assert count == 1
        assert abs(zeros[0]) < 1e-9


def test_symmetric_zeta():
    obs = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [0.0, 1.0]), radius=0.6)
    assert gm.symmetric_zeta(obs, [-1.0, 0.0], [0.0, 0.0]) == 0.0
    assert abs(gm.symmetric_zeta(obs, [-1.0, 0.0], [0.1, 0.0]) - 0.215) < 1e-14
    # gradient at the apex: -2 L^T L bbar, by differencing
    lam = np.array([[1.2, 0.3], [0.0, 0.8]])
    obs2 = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, 0.5], lam=lam), radius=0.5)
    b = np.array([-0.5, 0.4])
    fd = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1e-6
        fd[i] = (gm.symmetric_zeta(obs2, b, e) - gm.symmetric_zeta(obs2, b, -e)) / 2e-6
    assert np.max(np.abs(fd - (-2.0 * lam.T @ lam @ b))) < 1e-6


def test_symmetric_zeta_domain_and_surface_guard():
    obs = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0], sdomain=0.01), radius=0.6)
    with pytest.raises(gm.grazing.HDomainExceeded):
        gm.symmetric_zeta(obs, [-1.0, 0.0], [0.3, 0.0])
    with pytest.raises(gm.UnsupportedSurface):
        gm.symmetric_zeta(quartic_vsq(), [-1.0, 0.0], [0.1, 0.0])


def test_zeta_zero_set_matches_spherical_form():
    # Same sign changes along radial scans for both defining functions.
    lam = np.array([[1.0, 0.0], [0.2, 0.9]])
    obs = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, 0.7], lam=lam), radius=0.7)
    b = np.array([-0.8, 0.1])
    zeta = gm.SymmetricZeta(bbar=b)
    sph = gm.SphericalGrazing(bbar=b)
    rng = np.random.default_rng(33)
    agree = 0
    for _ in range(1000):
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        r = np.linspace(0.01, 0.6, 121)
        sz = np.sign([zeta.value(obs, ri * u) for ri in r])
        sh = np.sign([sph.value(obs, ri * u) for ri in r])
        assert np.array_equal(sz, sh)
        agree += 1
    assert agree == 1000


def test_flowout(sphere, side_source):
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    curve = gm.trace_grazing_curve(gf, sphere, window=0.25)
    sheet = gm.shadow_boundary_flowout(sphere, side_source, curve, s_range=(0.0, 0.5), n_s=5)
    assert sheet.shape == (len(curve.all_vertices()), 5, 4)
    # all flowout segments are straight: collinearity of consecutive deltas
    d1 = sheet[:, 1, :] - sheet[:, 0, :]
    d2 = sheet[:, -1, :] - sheet[:, 0, :]
    assert np.max(np.abs(d2 - 4.0 * d1)) < 1e-12
    # the apex ray: spatial direction 2*(0, xi_bar), time speed 2
    apex_sheet = gm.shadow_boundary_flowout(
        sphere, side_source,
        gm.GrazingCurve(branches=(gm.grazing.CurveBranch(
            side=1, vertices=np.zeros((1, 2)), residuals=np.zeros(1),
            arc_params=np.zeros(1)),), transverse_axis=1, graph_axis=0,
            window=0.25, trace_tol=1e-10),
        s_range=(0.0, 1.0), n_s=3)
    assert np.allclose(apex_sheet[0, -1], [1.0, 2.0, 0.0, 2.0], atol=1e-14)
    # illuminated points are rejected
    bad = gm.GrazingCurve(branches=(gm.grazing.CurveBranch(
        side=1, vertices=np.array([[-0.3, 0.0]]), residuals=np.zeros(1),
        arc_params=np.zeros(1)),), transverse_axis=1, graph_axis=0,
        window=0.25, trace_tol=1e-10)
    with pytest.raises(ValueError):
        gm.shadow_boundary_flowout(sphere, side_source, bad)


GS_CASES = [
    (rounded_quartic, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), "GS-HOLDS-SMOOTH"),
    (quartic_vsq, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), "GS-FAILS-CUSP-EVIDENCE"),
    (quartic_quartic, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), "GS-HOLDS-C1-EVIDENCE"),
    (planar_cusp_obstacle, gm.PlanePhase(theta=[0.0, 1.0, 0.0]), "GS-FAILS-CUSP-EVIDENCE"),
]


@pytest.mark.parametrize("make_obs,phase,verdict", GS_CASES)
def test_gs_reports(make_obs, phase, verdict):
    report = gm.gs_assumption_report(make_obs(), phase)
    assert report.verdict == verdict


def test_gs_report_sphere_and_symmetric(sphere, side_source):
    assert gm.gs_assumption_report(sphere, side_source).verdict == "GS-HOLDS-SMOOTH"
    flat = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.6)
    rep = gm.gs_assumption_report(flat, gm.SphericalPhase(source=[1.0, -0.5, 0.0]))
    assert rep.verdict == "GS-HOLDS-SMOOTH"
    assert rep.order.kind == "at-least"
