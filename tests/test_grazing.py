import hashlib
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import grazemap as gm
from grazemap.diffgeo import MultiPoly, rotation_to_negative_axis
from grazemap.cli import main
from grazemap.specio import parse_obstacle
from grazemap import grazing
from grazemap.grazing import (LINE_ROOT_TOL, LINE_SCAN_N, SEED_OFFSET, SLICE_N_PHI, _correct,
                              _SliceCurve, leading_homogeneous_part)

from conftest import (planar_c1_obstacle, planar_cusp_obstacle, quartic_mixed_vsq,
                      quartic_quartic, quartic_vsq, rounded_quartic, sample_disk, surface_zoo)

SPECS = Path(__file__).resolve().parents[1] / "specs"


def test_residual_examples():
    obs = quartic_vsq()
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    assert gf.value(obs, [0.0, 0.0]) == 0.0
    assert abs(gf.value(obs, [-0.1, 0.06]) - (-1.0e-4)) < 1e-16
    gfp = gm.PlanarGrazing(thetabar=[1.0, 0.0])
    obs2 = planar_cusp_obstacle()
    assert abs(gfp.value(obs2, [0.0, 0.1]) - 0.01) < 1e-17


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
        assert abs(gf.value(obs, x) - reduced) < 1e-12


def test_margin_consistency(sphere, side_source):
    # Spherical defining function equals -(distance to source) * margin.
    rng = np.random.default_rng(32)
    gf = gm.SphericalGrazing(bbar=side_source.source[1:])
    for _ in range(100):
        x = rng.uniform(-0.3, 0.3, 2)
        rho = np.linalg.norm(sphere.boundary_point(x) - side_source.source)
        assert abs(gf.value(sphere, x)
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
    # is polished like every other vertex, so none is left at the seed
    # root's bracket accuracy.
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


@pytest.mark.parametrize("obs, bbar, x2_star, message", [
    (gm.sphere_obstacle(2, radius=0.5), [-1.0, 0.0], -0.7,
     "slice parameter outside the obstacle domain"),
    (rounded_quartic(), [-1.0, 0.0], -0.9,
     "slice plane does not re-enter the window on the far side"),
    (rounded_quartic(), [-1.0, 0.0], -1e-6, "slice curve is degenerate at this parameter"),
    (gm.Obstacle(rounded_quartic().surface, radius=0.2), [-0.5, 0.0], -0.16,
     "slice curve leaves the obstacle domain"),
], ids=["outside-domain", "no-re-entry", "degenerate", "leaves-domain"])
def test_each_slice_miss_fires(obs, bbar, x2_star, message):
    with pytest.raises(gm.grazing.SliceMiss) as err:
        gm.slice_grazing_count(obs, bbar, x2_star)
    assert str(err.value) == message


def test_slice_without_crossing_counts_none(monkeypatch):
    # One angular interval from 0 to 2 pi: both ends are the same point, so
    # the scan sees no sign change.
    monkeypatch.setattr(gm.grazing, "SLICE_N_PHI", 1)
    sc = gm.slice_grazing_count(rounded_quartic(), [-1.0, 0.0], -0.05)
    assert (sc.count_pos, sc.count_neg) == (0, 0)
    assert sc.points.shape == (0, 2)


def test_slice_points_rotate_back_per_point():
    obs = rounded_quartic()
    b = np.array([0.3, -1.0])
    sc = gm.slice_grazing_count(obs, b, -0.05)
    obst_r, q = gm.rotate_coordinates(obs, b)
    rotated = gm.slice_grazing_count(obst_r, q @ b, -0.05)
    assert (rotated.count_pos, rotated.count_neg) == (sc.count_pos, sc.count_neg) == (1, 1)
    assert np.array_equal(sc.points, np.array([q.T @ p for p in rotated.points]))


def test_slice_counts_rotated_source():
    obs = rounded_quartic()
    sc0 = gm.slice_grazing_count(obs, [-1.0, 0.0], -0.05)
    sc1 = gm.slice_grazing_count(obs, [0.0, -1.0], -0.05)
    assert (sc1.count_pos, sc1.count_neg) == (1, 1)
    # rotated points come back in original coordinates, on the grazing set
    gf = gm.SphericalGrazing(bbar=[0.0, -1.0])
    for p in sc1.points:
        assert abs(gf.value(obs, p)) < 1e-8
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


def test_symmetric_zeta_surface_guard():
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
    r = np.linspace(0.01, 0.6, 121)
    agree = 0
    for _ in range(1000):
        ang = rng.uniform(0, 2 * np.pi)
        pts = r[:, None] * np.array([np.cos(ang), np.sin(ang)])  # one batch per angle
        assert np.array_equal(np.sign(zeta.value(obs, pts)), np.sign(sph.value(obs, pts)))
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


def test_flowout_rows_equal_per_vertex_rays(sphere, side_source):
    gf = gm.SphericalGrazing(bbar=[-1.0, 0.0])
    curve = gm.trace_grazing_curve(gf, sphere, window=0.25)
    sheet = gm.shadow_boundary_flowout(sphere, side_source, curve, s_range=(0.0, 0.5), n_s=5)
    ss = np.linspace(0.0, 0.5, 5)
    for row, xb in zip(sheet, curve.all_vertices()):
        xi = gm.classify_boundary_point(sphere, side_source, xb).incoming
        base, direction = np.append(xi.point, 0.0), np.append(xi.vector, 1.0)
        assert np.array_equal(row, base + 2.0 * ss[:, None] * direction)
    # The first vertex that does not graze is the one named.
    verts = np.array([[0.0, 0.0], [-0.3, 0.0], [-0.2, 0.1]])
    bad = gm.GrazingCurve(branches=(gm.grazing.CurveBranch(
        side=1, vertices=verts, residuals=np.zeros(3), arc_params=np.zeros(3)),),
        transverse_axis=1, graph_axis=0, window=0.25, trace_tol=1e-10)
    margin = gm.tangency_margin(sphere, side_source, verts[1])
    with pytest.raises(gm.InvalidArgument) as err:
        gm.shadow_boundary_flowout(sphere, side_source, bad)
    assert str(err.value) == f"vertex {verts[1]} has margin {margin}: not a grazing point"


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


def _sextic():
    return gm.polynomial_obstacle(2, {(0, 0): 1.0, (6, 0): -1.0, (0, 2): -1.0})


def _miscounted_slices(monkeypatch):
    monkeypatch.setattr(grazing, "slice_grazing_count", lambda obstacle, bbar, x2s:
                        gm.SliceCount(2, 1, x2s, lambda: np.zeros((3, 2))))
    return quartic_vsq()


SIDE = gm.SphericalPhase(source=[1.0, -1.0, 0.0])
# Every way gs_assumption_report can come out INCONCLUSIVE, with the start of
# the note that says why.
INCONCLUSIVE_CASES = [
    ("inflection", lambda mp: gm.polynomial_obstacle(2, {(0, 0): 1.0, (3, 0): -1.0, (0, 2): -1.0}),
     gm.SphericalPhase(source=[1.0, 1.0, 0.0]), {}, "inflection contact"),
    ("slice-counts", _miscounted_slices, SIDE, {}, "slice counts differ from (1,1)"),
    ("tracing-failed", lambda mp: quartic_vsq(), SIDE, {"window": 1e-4}, "tracing failed: "),
    ("fit-failed", lambda mp: quartic_vsq(), gm.PlanePhase(theta=[0.0, 1.0, 0.0]), {},
     "regularity fit failed: "),
    ("fit-inconclusive", lambda mp: _sextic(), SIDE, {},
     "regularity fit inconclusive: exponent 0.4039 is in neither"),
    ("dim-2", lambda mp: gm.sphere_obstacle(1, 0.5), gm.SphericalPhase(source=[1.0, -1.0]), {},
     "dim = 2: tracing, the regularity fit and slice counts cover dim 3 only"),
    ("dim-4", lambda mp: gm.sphere_obstacle(3, 0.5),
     gm.SphericalPhase(source=[1.0, -1.0, 0.0, 0.0]), {}, "dim = 4: tracing"),
]


@pytest.mark.parametrize("make_obs,phase,kwargs,cause", [case[1:] for case in INCONCLUSIVE_CASES],
                         ids=[case[0] for case in INCONCLUSIVE_CASES])
def test_every_inconclusive_report_says_why(monkeypatch, make_obs, phase, kwargs, cause):
    report = gm.gs_assumption_report(make_obs(monkeypatch), phase, **kwargs)
    assert report.verdict == gm.grazing.VERDICT_INCONCLUSIVE
    boilerplate = ("curve verdicts are numerical evidence, not proofs",
                   "diffractive type of nearby grazing points is sampled, not exhaustive")
    assert report.notes[:2] == boilerplate
    causes = [note for note in report.notes[2:]
              if note != "slice counts apply to spherical sources only"]
    assert any(note.startswith(cause) for note in causes), report.notes


def test_gs_report_sphere_and_symmetric(sphere, side_source):
    assert gm.gs_assumption_report(sphere, side_source).verdict == "GS-HOLDS-SMOOTH"
    flat = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.6)
    rep = gm.gs_assumption_report(flat, gm.SphericalPhase(source=[1.0, -0.5, 0.0]))
    assert rep.verdict == "GS-HOLDS-SMOOTH"
    assert rep.order.kind == "at-least"


@pytest.mark.parametrize("make_obs,gf", [
    (quartic_vsq, gm.SphericalGrazing(bbar=[-1.0, 0.0])),
    (rounded_quartic, gm.SphericalGrazing(bbar=[0.3, -1.0])),
    (rounded_quartic, gm.PlanarGrazing(thetabar=[0.6, 0.8])),
], ids=["cusp-spherical", "rounded-spherical", "rounded-planar"])
def test_grazing_function_batch_equals_per_point(make_obs, gf):
    obs = make_obs()
    pts = np.random.default_rng(7).uniform(-0.6, 0.6, (500, 2))
    assert np.array_equal(gf.value(obs, pts), np.array([gf.value(obs, p) for p in pts]))


@pytest.mark.parametrize("obs", [
    gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [0.0, 1.0]), radius=0.6),
    surface_zoo()["symmetric-h"],
    surface_zoo()["exp-flat"],
], ids=["quartic-h", "symmetric-h", "exp-flat"])
def test_symmetric_zeta_batch_equals_per_point(obs):
    gf = gm.SymmetricZeta(bbar=[-1.0, 0.3])
    pts = np.random.default_rng(8).uniform(-0.4, 0.4, (300, 2))
    pts[3] = 0.0  # the apex row, where zeta is 0 without h/h'
    assert np.array_equal(gf.value(obs, pts), np.array([gf.value(obs, p) for p in pts]))


_ZETA_OUTSIDE = {
    # Zeta read no obstacle check: [5, 0] gave 35.0, a NaN or None entry nan.
    "value-far": (lambda gf, obs: gf.value(obs, [5.0, 0.0]), gm.DomainExceeded,
                  r"^\|xbar\| = 5\.0 exceeds declared radius 0\.5$"),
    "gradient-far": (lambda gf, obs: gf.gradient(obs, [[0.1, 0.0], [0.0, 0.6]]),
                     gm.DomainExceeded, r"^\|xbar\| = 0\.6 exceeds declared radius 0\.5$"),
    "value-nan": (lambda gf, obs: gf.value(obs, [np.nan, 0.0]), gm.InvalidArgument,
                  r"^point has a NaN or None entry$"),
    "value-none-row": (lambda gf, obs: gf.value(obs, [[0.1, 0.1], [None, 0.0]]),
                       gm.InvalidArgument, r"^point has a NaN or None entry$"),
    "gradient-nan": (lambda gf, obs: gf.gradient(obs, [np.nan, 0.0]), gm.InvalidArgument,
                     r"^point has a NaN or None entry$"),
    "float-far": (lambda gf, obs: gf._value_grad(obs, 0.0, -0.7), gm.DomainExceeded,
                  r"^\|xbar\| = 0\.7 exceeds declared radius 0\.5$"),
}


@pytest.mark.parametrize("case", list(_ZETA_OUTSIDE))
def test_symmetric_zeta_checks_the_obstacle_domain_before_evaluating(monkeypatch, case):
    obs = gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0]), radius=0.5)
    gf = gm.SymmetricZeta(bbar=[-1.0, 0.0])
    call, error, match = _ZETA_OUTSIDE[case]

    def refuse(*args, **kwargs):
        raise AssertionError("the profile was evaluated before the domain check")

    for name in ("h", "h_ratio", "h_ratio_prime"):
        monkeypatch.setattr(gm.SymmetricH, name, refuse)
    with pytest.raises(error, match=match):
        call(gf, obs)


# Zeta is defined on symmetric profiles only.
_ZOO_GRAZING = ([(name, gf) for name in surface_zoo()
                 for gf in (gm.SphericalGrazing(bbar=[-1.0, 0.2]),
                            gm.PlanarGrazing(thetabar=[0.6, 0.8]))]
                + [(name, gm.SymmetricZeta(bbar=[-1.0, 0.2])) for name in ("symmetric-h", "exp-flat")])


def _term_scales(gf, obs, p):
    """For each output of ``gf._value_grad`` at p, a bound on the magnitudes
    of the terms its float formula adds: rounding moves it a few ulps of that."""
    if isinstance(gf, gm.SphericalGrazing):
        d = np.abs(p - gf.bbar)
        return np.concatenate(([abs(obs.value(p)) + 1.0 + np.abs(obs.gradient(p)) @ d],
                               np.abs(obs.hessian(p)) @ d))
    if isinstance(gf, gm.PlanarGrazing):
        t = np.abs(gf.thetabar)
        return np.concatenate(([np.abs(obs.gradient(p)) @ t], np.abs(obs.hessian(p)) @ t))
    surf = obs.surface
    lam, s = np.abs(surf.lam), surf._s(p)
    y, z = lam @ np.abs(p), lam @ np.abs(gf.bbar)
    c = abs(2.0 - surf.h_ratio_prime(s)) if s else 0.0
    value = abs(surf.h_ratio(s)) + 2.0 * s + 2.0 * y @ z if s else 0.0
    return np.concatenate(([value], lam.T @ (2.0 * c * y + 2.0 * z)))


@pytest.mark.parametrize("name,gf", _ZOO_GRAZING,
                         ids=[f"{name}-{type(gf).__name__}" for name, gf in _ZOO_GRAZING])
def test_value_and_gradient_equals_value_and_gradient(name, gf):
    # The float (value, gradient) of the corrector against the array paths:
    # the batched ``value`` and the single-point ``gradient``, within four
    # ulps of the term scale (the float sums need not round as numpy's dots).
    # Zeta's float door reads its array ``value`` and ``gradient``: bit for bit.
    obs = surface_zoo()[name]
    pts = np.vstack([np.zeros((1, 2)), sample_disk(np.random.default_rng(12), 0.4, 60)])
    values = gf.value(obs, pts)
    for p, value in zip(pts, values):
        got = gf._value_grad(obs, *p.tolist())
        assert all(type(v) is float for v in got)
        want = np.concatenate(([value], gf.gradient(obs, p)))
        if isinstance(gf, gm.SymmetricZeta):
            assert np.array(got).tobytes() == want.tobytes()
        else:
            bound = 4.0 * np.finfo(float).eps * _term_scales(gf, obs, p)
            assert np.all(np.abs(np.array(got) - want) <= bound)


@pytest.mark.parametrize("name,gf", _ZOO_GRAZING,
                         ids=[f"{name}-{type(gf).__name__}" for name, gf in _ZOO_GRAZING])
def test_float_value_equals_the_float_jet_value(monkeypatch, name, gf):
    # The seed roots' float value is the corrector's, bit for bit: each of the
    # four seed scan lines hands ``_scan_roots`` one function, the batched
    # ``value`` on the line's grid and the value of ``_value_grad`` on a float.
    obs = surface_zoo()[name]
    lines, real = [], grazing._scan_roots

    def capture(f, grid, tol):
        lines.append(f)
        return real(f, grid, tol)

    monkeypatch.setattr(grazing, "_scan_roots", capture)
    grazing._detect_orientation(gf, obs, 0.3)
    assert len(lines) == 4
    vs = np.random.default_rng(13).uniform(-0.3, 0.3, 20)
    for f, (t_axis, offset) in zip(lines, [(1, SEED_OFFSET), (1, -SEED_OFFSET),
                                           (0, SEED_OFFSET), (0, -SEED_OFFSET)]):
        pts = grazing._on_line(vs, 1 - t_axis, offset)
        assert f(vs).tobytes() == gf.value(obs, pts).tobytes()
        for v, p in zip(vs.tolist(), pts.tolist()):
            value = f(v)
            assert type(value) is float and value == gf._value_grad(obs, *p)[0]


@pytest.mark.parametrize("name", [name for name in surface_zoo() if name != "exp-flat"])
def test_slice_newton_is_one_float_path_on_every_surface(name):
    # One angle solved alone, as each trial of the angular refinement is,
    # gives its row of the lockstep solve bit for bit, on the surfaces
    # without compiled polynomials too (array jets, differenced gradients);
    # the flat profile has no slice curve at this parameter.
    curve = _SliceCurve(surface_zoo()[name], -1.0, -0.05)
    phis = np.linspace(0.0, 2.0 * np.pi, 97)
    rows = curve.points(phis)
    assert np.array_equal(rows, np.vstack([curve.points([phi]) for phi in phis]))


def test_slice_count_solves_each_ray_in_a_few_newton_steps(monkeypatch):
    # Cusp/side: the lockstep solve of the 1441 grid angles takes 10 rounds
    # of ``k`` with directions (the jet at every bracket's outer end, then
    # one per Newton step).  Reading the points refines the two angular
    # crossings by the bracketed secant, 11 trials each, every trial one
    # angle solved alone in 7 or 8 rounds after its march; bisecting the
    # march bracket to 1e-14 would take about 40.  The two crossings are
    # then solved together in 7, and a second read solves nothing.
    rounds, log = [0], []
    real_k, real_points = _SliceCurve.k, _SliceCurve.points

    def k(self, p, u=None):
        rounds[0] += u is not None
        return real_k(self, p, u)

    def points(self, phis):
        before = rounds[0]
        out = real_points(self, phis)
        log.append((len(phis), rounds[0] - before))
        return out

    monkeypatch.setattr(_SliceCurve, "k", k)
    monkeypatch.setattr(_SliceCurve, "points", points)
    sc = gm.slice_grazing_count(quartic_vsq(), [-1.0, 0.0], -0.05)
    assert (sc.count_pos, sc.count_neg) == (1, 1)
    assert log == [(SLICE_N_PHI + 1, 10)]
    assert len(sc.points) == 2
    singles = [n_rounds for n_angles, n_rounds in log[1:-1] if n_angles == 1]
    assert len(singles) == len(log) - 2 == 22
    assert sorted(Counter(singles).items()) == [(7, 18), (8, 4)]
    assert log[-1] == (2, 7)
    n_calls, first = len(log), sc.points
    assert sc.points is first and len(log) == n_calls


# The zoo surfaces with a slice curve at x2* = -0.05, and the spec obstacles.
_SLICE_OBSTACLES = ([name for name in surface_zoo() if name != "exp-flat"]
                    + ["sphere", "cusp_quartic", "rounded_quartic"])


def _slice_obstacle(name):
    zoo = surface_zoo()
    return zoo[name] if name in zoo else parse_obstacle(str(SPECS / f"{name}.obstacle"))


@pytest.mark.parametrize("name", _SLICE_OBSTACLES)
def test_slice_counts_are_the_sides_of_the_solved_crossings(name):
    # The counts come from the angular grid alone; the crossings solved on
    # reading ``points``, taken back to the frame where the slice curve's
    # center lies on x3 = 0, must lie on the sides they count.
    obs = _slice_obstacle(name)
    checked = 0
    for b in ([-1.0, 0.0], [0.0, -1.0], [0.3, -1.0], [-0.7, 0.5]):
        q = rotation_to_negative_axis(b)
        for x2s in (-0.02, -0.05, -0.1, -0.2):
            try:
                sc = gm.slice_grazing_count(obs, b, x2s)
            except (gm.grazing.SliceMiss, gm.UnsupportedSurface):
                continue  # no slice curve there, or no rotation of a callable surface
            x3 = sc.points @ q.T[:, 1]
            assert (sc.count_pos, sc.count_neg) == (int(np.sum(x3 > 0.0)), int(np.sum(x3 < 0.0)))
            checked += 1
    assert checked >= 4


def test_event_sides_read_the_bracket_not_its_ends():
    # Synthetic angular values with one root each: just past the grid angle
    # nearest pi, where sin is still > 0 but every angle of the bracket has
    # sin < 0; just past 0, where sin is 0; just before 2 pi; exactly at the
    # grid angle nearest pi; and, on a grid whose angle nearest pi is moved
    # one ulp above pi, just before that angle.  The side read from the
    # bracket must be the side of the refined angle.  A rule that reads the
    # bracket's first grid angle miscounts the first three, and one that
    # reads its last grid angle miscounts the last.
    grid = np.linspace(0.0, 2.0 * np.pi, SLICE_N_PHI + 1)
    i_pi = SLICE_N_PHI // 2
    grid_up = grid.copy()
    grid_up[i_pi] = math.nextafter(math.pi, 4.0)
    cases = [(grid, grid[i_pi] + 5e-14, -1.0), (grid, grid[i_pi] + 1e-3, -1.0),
             (grid, 3e-14, 1.0), (grid, grid[-1] - 5e-14, -1.0), (grid, grid[i_pi], 1.0),
             (grid_up, grid_up[i_pi] - 5e-14, 1.0)]
    first_misses, last_misses = [], []
    for k, (angles, root, side) in enumerate(cases):
        def h(phi):
            return phi - root

        vals = h(angles)
        events = grazing._sign_events(vals)
        assert len(events) == 1
        refined = grazing._refine(h, angles, vals, events[0], 1e-13)
        assert np.sign(math.sin(refined)) == side
        assert np.sign(grazing._event_sides(angles, vals, events)).tolist() == [side]
        if np.sign(np.sin(angles[events[0]])) != side:
            first_misses.append(k)
        if vals[events[0]] != 0.0 and np.sign(np.sin(angles[events[0] + 1])) != side:
            last_misses.append(k)
    assert first_misses == [0, 1, 2] and last_misses == [5]


# sha256 of the counts and the crossing bytes of each slice count at
# x2* = -0.05, recorded from the two-solver slice count this one replaced.
PINNED_SLICES = {
    "sphere/side": "a1e93cb3b3b1bcf6135aa2b2da3692e3cfc8f15d59d653e0f51773e6c58dff47",
    "cusp_quartic/side": "7d0808a716097c081148b9e333e2ebfacce82ca1c7ded53849d4b1736c43e73b",
    "rounded_quartic/side": "2b9a9571ec78fecfb491ec8dc23b5fd9a379524055cb588ff617316dd0d27a48",
    "cusp_quartic/top": "8e1bb74ea53ad790ec258bd17652c1516c4aaa1d5e73f23c75ab05833b87f728",
    "rotated/side": "b5421202a2f3b6fd87d2c1585a67659c7cbdacce2bdf398bb8e1c95328d3923e",
    "symmetric-h/side": "ab3923260429ecf9c6d99995d321a4fed679148d300e500e7fef33228c7de4bb",
    "generic/side": "fb337d1b25cb737192dd70cb6b0a21ad3ed7da9f6d8a94aecdd062100056e000",
    "generic-grad/side": "a6466876c40442a1fc7a2a470bc255e695de5083efc388eb4c5681be33879d01",
}


@pytest.mark.parametrize("key", list(PINNED_SLICES))
def test_slice_crossing_bits_are_pinned(key):
    name, source = key.split("/")
    bbar = {"side": [-1.0, 0.0], "top": [0.0, 1.0]}[source]
    sc = gm.slice_grazing_count(_slice_obstacle(name), bbar, -0.05)
    digest = hashlib.sha256(f"{sc.count_pos} {sc.count_neg}".encode())
    digest.update(sc.points.tobytes())
    assert digest.hexdigest() == PINNED_SLICES[key]


def test_trace_checks_the_domain_once_per_corrector_evaluation(monkeypatch):
    # A float evaluation (a corrector iterate or a seed root trial) makes one
    # float radius check, ``_check_at``, and never the array check
    # ``_check_domain``.  Each of the four seed scan lines is one
    # ``_scan_roots`` call: one batched ``value`` on its grid, which checks
    # twice, for F and grad F, and a float solve of every root it sees.  On
    # cusp/side the lines across axis 1 see one root each and those across
    # axis 0 none, so two roots are solved, on the value of ``_value_grad``:
    # the bracketed secant takes 13 trials on each, where halving a grid step
    # of 0.6 / 1023 below 1e-13 took 33.  The apex check is one more float
    # evaluation, outside all of these.
    calls = dict.fromkeys(("check_at", "check_domain", "value", "gradient", "float"), 0)

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    def delta(real, tally):
        # Wraps real so that each call appends the change of every count to tally.
        def wrapped(*args, **kwargs):
            before = dict(calls)
            out = real(*args, **kwargs)
            tally.append({k: calls[k] - before[k] for k in calls})
            return out
        return wrapped

    corrections, scans, roots = [], [], []
    monkeypatch.setattr(gm.Obstacle, "_check_at", counting("check_at", gm.Obstacle._check_at))
    monkeypatch.setattr(gm.Obstacle, "_check_domain",
                        counting("check_domain", gm.Obstacle._check_domain))
    for key, name in (("value", "value"), ("gradient", "gradient"), ("float", "_value_grad")):
        monkeypatch.setattr(gm.SphericalGrazing, name,
                            counting(key, getattr(gm.SphericalGrazing, name)))
    monkeypatch.setattr(grazing, "_correct", delta(grazing._correct, corrections))
    monkeypatch.setattr(grazing, "_scan_roots", delta(grazing._scan_roots, scans))
    monkeypatch.setattr(grazing, "_bracket_root", delta(grazing._bracket_root, roots))
    gm.trace_grazing_curve(gm.SphericalGrazing(bbar=[-1.0, 0.0]), quartic_vsq(), window=0.3)
    assert sum(c["float"] for c in corrections) > 1000
    assert all(c["check_at"] == c["float"] and c["check_domain"] == 0 for c in corrections)
    assert len(scans) == 4
    assert all(c["value"] == 1 and c["check_domain"] == 2 for c in scans)
    assert [c["float"] for c in scans] == [13, 13, 0, 0]
    assert all(c["check_at"] == c["float"] for c in scans)
    assert [c["float"] for c in roots] == [13] * 2
    assert all(c["check_at"] == c["float"] and c["check_domain"] == 0 for c in roots)
    assert calls["float"] == sum(c["float"] for c in corrections) + 2 * 13 + 1
    assert calls["check_at"] == calls["float"]
    assert calls["gradient"] == 0
    assert calls["check_domain"] == 2 * calls["value"]


@pytest.mark.parametrize("make_obs", [quartic_vsq, rounded_quartic], ids=["cusp", "rounded"])
@pytest.mark.parametrize("gf", [gm.SphericalGrazing(bbar=[-1.0, 0.0]),
                                gm.PlanarGrazing(thetabar=[1.0, 0.0])], ids=["spherical", "plane"])
def test_single_points_take_the_float_door(monkeypatch, make_obs, gf):
    # One point is evaluated through the float door (``_value_grad``,
    # ``Obstacle._jet_at``): the apex check, the slice curve's F(x2*, 0) and
    # its center check included.  The array check sees batches only.
    ndims = []
    real = gm.Obstacle._check_domain

    def check_domain(self, x):
        out = real(self, x)
        ndims.append(out.ndim)
        return out

    monkeypatch.setattr(gm.Obstacle, "_check_domain", check_domain)
    obs = make_obs()
    gm.trace_grazing_curve(gf, obs, window=0.3)
    sc = gm.slice_grazing_count(obs, [-1.0, 0.0], -0.05)
    assert (sc.count_pos, sc.count_neg) == (1, 1)
    assert ndims and set(ndims) == {2}


_NO_CURVE = gm.GrazingCurve(branches=(), transverse_axis=1, graph_axis=0, window=0.3,
                            trace_tol=1e-10)
_BAD_GRAZING_ARGUMENTS = {
    "trace-window-nan": (lambda obs, gf: gm.trace_grazing_curve(gf, obs, window=np.nan),
                         r"^window must be finite and nonnegative, got nan$"),
    "trace-window-negative": (lambda obs, gf: gm.trace_grazing_curve(gf, obs, window=-0.1),
                              r"^window must be finite and nonnegative, got -0\.1$"),
    "trace-tol-nan": (lambda obs, gf: gm.trace_grazing_curve(gf, obs, trace_tol=np.nan),
                      r"^trace_tol must be finite and positive, got nan$"),
    "trace-tol-zero": (lambda obs, gf: gm.trace_grazing_curve(gf, obs, trace_tol=0.0),
                       r"^trace_tol must be finite and positive, got 0\.0$"),
    "report-window-nan": (lambda obs, gf: gm.gs_assumption_report(
        obs, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), window=np.nan),
        r"^window must be finite and nonnegative, got nan$"),
    "report-tol-str": (lambda obs, gf: gm.gs_assumption_report(
        obs, gm.SphericalPhase(source=[1.0, -1.0, 0.0]), trace_tol="1e-10"),
        r"^trace_tol must be finite and positive, got '1e-10'$"),
    "slice-str": (lambda obs, gf: gm.slice_grazing_count(obs, [-1.0, 0.0], "-0.05"),
                  r"^x2_star must be a finite real number, got '-0\.05'$"),
    "slice-nan": (lambda obs, gf: gm.slice_grazing_count(obs, [-1.0, 0.0], np.nan),
                  r"^x2_star must be a finite real number, got nan$"),
    "slice-bbar-str": (lambda obs, gf: gm.slice_grazing_count(obs, ["-1", "0"], -0.05),
                       r"^bbar must be 2 finite real numbers, got \['-1', '0'\]$"),
    "fit-window-str": (lambda obs, gf: gm.estimate_regularity(_NO_CURVE, fit_window=("a", 1)),
                       r"^fit_window must be 2 finite real numbers, got \('a', 1\)$"),
    "fit-window-nan": (lambda obs, gf: gm.estimate_regularity(_NO_CURVE,
                                                              fit_window=(1e-4, np.nan)),
                       r"^fit_window must be 2 finite real numbers, got "),
    "fit-window-one": (lambda obs, gf: gm.estimate_regularity(_NO_CURVE, fit_window=(1e-4,)),
                       r"^fit_window must be 2 finite real numbers, got "),
    "bbar-complex": (lambda obs, gf: gm.SphericalGrazing(bbar=[-1 + 1j, 0]),
                     r"^bbar must be finite real numbers, got \[\(-1\+1j\), 0\]$"),
    "bbar-nan": (lambda obs, gf: gm.SphericalGrazing(bbar=[np.nan, 0.0]),
                 r"^bbar must be finite real numbers, got "),
    "thetabar-str": (lambda obs, gf: gm.PlanarGrazing(thetabar="1 0"),
                     r"^thetabar must be finite real numbers, got '1 0'$"),
    "zeta-bbar-matrix": (lambda obs, gf: gm.SymmetricZeta(bbar=[[-1.0, 0.0]]),
                         r"^bbar must be finite real numbers, got "),
    # A vector whose length is not the obstacle's tangential dimension.
    "trace-bbar-long": (lambda obs, gf: gm.trace_grazing_curve(
        gm.SphericalGrazing(bbar=[-1.0, 0.0, 0.0]), obs), r"^bbar has 3 entries, expected 2$"),
    "trace-bbar-short": (lambda obs, gf: gm.trace_grazing_curve(
        gm.SphericalGrazing(bbar=[-1.0]), obs), r"^bbar has 1 entries, expected 2$"),
    "trace-thetabar-long": (lambda obs, gf: gm.trace_grazing_curve(
        gm.PlanarGrazing(thetabar=[0.0, 1.0, 0.0]), obs), r"^thetabar has 3 entries, expected 2$"),
    "value-bbar-long": (lambda obs, gf: gm.SphericalGrazing(bbar=[-1.0, 0.0, 0.0]).value(
        obs, [0.1, 0.2]), r"^bbar has 3 entries, expected 2$"),
    "gradient-bbar-short": (lambda obs, gf: gm.SphericalGrazing(bbar=[-1.0]).gradient(
        obs, [[0.1, 0.2]]), r"^bbar has 1 entries, expected 2$"),
    "gradient-thetabar-short": (lambda obs, gf: gm.PlanarGrazing(thetabar=[1.0]).gradient(
        obs, [0.1, 0.2]), r"^thetabar has 1 entries, expected 2$"),
    "zeta-value-bbar-long": (lambda obs, gf: gm.SymmetricZeta(bbar=[-1.0, 0.0, 0.0]).value(
        obs, [0.1, 0.2]), r"^bbar has 3 entries, expected 2$"),
}


@pytest.mark.parametrize("case", list(_BAD_GRAZING_ARGUMENTS))
def test_bad_grazing_arguments_are_refused_before_any_evaluation(monkeypatch, case):
    # Each of these raised a builtin exception, found no seed, failed a step
    # or returned INCONCLUSIVE; window = 0 stays accepted (it finds no seed).
    obs, gf = quartic_vsq(), gm.SphericalGrazing(bbar=[-1.0, 0.0])
    call, match = _BAD_GRAZING_ARGUMENTS[case]

    def refuse(*args):
        raise AssertionError("evaluated before the arguments were checked")

    for name in ("_check_domain", "_jet_at", "directional_taylor"):
        monkeypatch.setattr(gm.Obstacle, name, refuse)
    with pytest.raises(gm.InvalidArgument, match=match):
        call(obs, gf)


@pytest.mark.parametrize("obs,gf", [
    (quartic_vsq(), gm.SphericalGrazing(bbar=[-1.0, 0.2])),
    (quartic_vsq(), gm.PlanarGrazing(thetabar=[0.6, 0.8])),
    (surface_zoo()["symmetric-h"], gm.SymmetricZeta(bbar=[-1.0, 0.2])),
    (surface_zoo()["exp-flat"], gm.SymmetricZeta(bbar=[-1.0, 0.2])),
], ids=["spherical", "planar", "zeta", "zeta-flat"])
def test_batch_gradient_rows_equal_single_points(obs, gf):
    # A batch's gradient raised numpy's matmul ValueError (spherical, and
    # zeta at m >= 3) or a builtin TypeError (zeta at m = 2).
    for m in (2, 3, 5):
        pts = np.random.default_rng(8).uniform(-0.4, 0.4, (m, 2))
        pts[1] = 0.0  # the apex row, where zeta's gradient is -2 L^T L bbar
        batch = gf.gradient(obs, pts)
        assert batch.shape == (m, 2)
        assert batch.tobytes() == np.array([gf.gradient(obs, p) for p in pts]).tobytes()


def test_a_zero_window_still_finds_no_seed(tmp_path, capsys):
    with pytest.raises(gm.grazing.SeedNotFound, match=r"in window 0\.0$"):
        gm.trace_grazing_curve(gm.SphericalGrazing(bbar=[-1.0, 0.0]), quartic_vsq(), window=0.0)
    spec = Path(__file__).resolve().parents[1] / "specs"
    assert main(["classify", "--obstacle", str(spec / "cusp_quartic.obstacle"), "--phase",
                 str(spec / "side_source.phase"), "--window", "0", "--out", str(tmp_path)]) == 2
    assert ("note = tracing failed: no sign change at transverse offset 0.001 in window 0.0\n"
            in capsys.readouterr().out)


def _eager_orientation(gf, obstacle, window):
    """The seed choice with every root solved for: all the roots on each of the
    four scan lines, then the axis with the fewest extra roots, then the least
    sum of its two nearest |root|, axis 1 first on equal sums.  Returns the
    choice, the scores (extra roots, sum) per axis and the roots per line."""
    lim = min(window, math.sqrt(obstacle.radius**2 - SEED_OFFSET**2) * 0.999)
    grid = np.linspace(-lim, lim, LINE_SCAN_N)
    roots, scored = {}, []
    for t_axis in (1, 0):
        for offset in (SEED_OFFSET, -SEED_OFFSET):
            def f(v, t_axis=t_axis, offset=offset):
                # The scan's batched value on the grid, its float value in the root solve.
                p = grazing._on_line(v, 1 - t_axis, offset)
                if np.ndim(v):
                    return gf.value(obstacle, p)
                return gf._value_grad(obstacle, *p.tolist())[0]
            roots[t_axis, offset] = grazing._scan_roots(f, grid, LINE_ROOT_TOL)
        lines = [roots[t_axis, SEED_OFFSET], roots[t_axis, -SEED_OFFSET]]
        if all(lines):
            nearest = [min(line, key=abs) for line in lines]
            scored.append((sum(len(line) - 1 for line in lines), sum(map(abs, nearest)),
                           t_axis, nearest))
    _, _, t_axis, nearest = min(scored, key=lambda item: item[:2])
    return (t_axis, *nearest), [item[:2] for item in scored], roots


@pytest.mark.parametrize("make_obs,bbar,rival", [
    (rounded_quartic, [-0.05, 0.0], "line"),
    (rounded_quartic, [-0.3, 0.2], "line"),
    (rounded_quartic, [0.4, -0.7], "axes"),
    (lambda: gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.6), [-1.0, 0.0], "tie"),
], ids=["rounded-near", "rounded-oblique", "rounded-behind", "flat-tie"])
def test_seed_choice_equals_the_eager_reference(make_obs, bbar, rival):
    # The scan's choice against a reference written apart from it, on cases
    # where the scores must be compared in full: a scan line with several
    # roots, two axes with as few extra roots, or two axes that score alike.
    obs, gf = make_obs(), gm.SphericalGrazing(bbar=bbar)
    want, scores, roots = _eager_orientation(gf, obs, 0.3)
    if rival == "line":
        assert any(len(line) > 1 for line in roots.values())
    else:
        assert len(scores) == 2 and scores[0][0] == scores[1][0]
        assert (scores[0] == scores[1]) == (rival == "tie")
    assert grazing._detect_orientation(gf, obs, 0.3) == want


def test_closed_grazing_loop_is_traced_once_around(tmp_path):
    # A source at (1, -0.05, 0) over the rounded quartic: the grazing curve
    # is a small closed loop inside the window, and each branch stops when
    # it comes back to its seed instead of lapping to the step cap.
    (tmp_path / "near.phase").write_text("kind = spherical\nb = 1 -0.05 0\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["classify", "--obstacle", str(SPECS / "rounded_quartic.obstacle"),
                 "--phase", str(tmp_path / "near.phase"), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 2.0
    curve = gm.trace_grazing_curve(gm.SphericalGrazing(bbar=[-0.05, 0.0]), rounded_quartic())
    for branch in curve.branches:
        verts = branch.vertices
        seed = np.flatnonzero(verts[:, curve.transverse_axis] == branch.side * SEED_OFFSET)[0]
        near = np.linalg.norm(verts[seed:] - verts[seed], axis=1) < 0.5 * SEED_OFFSET
        # Near the seed at the start, away, and back once at the end.
        entries = np.flatnonzero(near[1:] & ~near[:-1]) + 1
        assert len(entries) == 1 and near[entries[0]:].all()
        assert np.max(np.abs(verts)) < 0.1


def _plain_bisect(f, lo, hi, tol):
    f_lo = f(lo)
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) != (f_lo < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _reference_slice_points(obs, a, x2_star, n_phi):
    """Slice grazing points one angle at a time, for a source at (1, a, 0), a < 0."""
    gf = gm.SphericalGrazing(bbar=[a, 0.0])
    f_star = obs.value([x2_star, 0.0])

    def k(p):
        return (obs.value(p) - 1.0) * (x2_star - a) + (p[0] - a) * (1.0 - f_star)

    lim = obs.radius * 0.999
    vs = np.linspace(1e-9, lim, 600)
    i = next(i for i in range(599) if k([vs[i], 0.0]) * k([vs[i + 1], 0.0]) < 0.0)
    x2_dd = _plain_bisect(lambda v: k([v, 0.0]), vs[i], vs[i + 1], 1e-14)
    center = np.array([0.5 * (x2_star + x2_dd), 0.0])
    step = (lim - np.linalg.norm(center)) / 50.0

    def radial(phi):
        u = np.array([math.cos(phi), math.sin(phi)])
        lo, r = 0.0, step
        while k(center + r * u) >= 0.0:
            lo, r = r, r + step
        return center + _plain_bisect(lambda t: k(center + t * u), lo, r, 1e-14) * u

    def h(phi):
        return gf.value(obs, radial(phi))

    phis = np.linspace(0.0, 2.0 * np.pi, n_phi + 1)
    hs = [h(p) for p in phis]
    return np.array([radial(_plain_bisect(h, phis[j], phis[j + 1], 1e-13))
                     for j in range(n_phi) if hs[j] * hs[j + 1] < 0.0])


@pytest.mark.parametrize("make_obs", [quartic_vsq, rounded_quartic], ids=["cusp", "rounded"])
def test_slice_count_matches_per_angle_reference(make_obs):
    obs = make_obs()
    sc = gm.slice_grazing_count(obs, [-1.0, 0.0], -0.05)
    ref = _reference_slice_points(obs, -1.0, -0.05, 1440)
    assert (sc.count_pos, sc.count_neg) == (int(np.sum(ref[:, 1] > 0)), int(np.sum(ref[:, 1] < 0)))
    assert sc.points.shape == ref.shape
    assert np.max(np.abs(sc.points - ref)) <= 1e-13


# (f, lo, hi, root, tol): simple roots of a strongly convex function and of
# a sigmoid, a triple root, roots 0.3 tol from either end, a root where the
# first secant trial is exact, and a pure sign step.
_BRACKET_CASES = {
    "convex": (lambda x: math.exp(100.0 * x) - 2.0, 0.0, 1.0, math.log(2.0) / 100.0, 1e-13),
    "sigmoid": (lambda x: math.atan(8.0 * (x - 0.2)), 0.0, 1.0, 0.2, 1e-13),
    "triple": (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3, 1e-13),
    "near-lo": (lambda x: (x - 3e-14) * (2.0 + x), 0.0, 1.0, 3e-14, 1e-13),
    "near-hi": (lambda x: (x - (1.0 - 3e-14)) * (2.0 + x), 0.0, 1.0, 1.0 - 3e-14, 1e-13),
    "exact-zero": (lambda x: x - 0.5, 0.0, 1.0, 0.5, 1e-13),
    "step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0, 1.0 / 3.0, 1e-13),
}


def _bracketer_failures(solve, case):
    """The checks a root bracketer fails on one case: 'root' when its result
    is farther than tol from the root, 'inside' when a trial point does not
    lie strictly inside the bracket the trials so far leave (a zero counts
    as positive), 'count' when it makes more than 2 ceil(log2(w / tol)) + 2
    evaluations, about twice a bisection's."""
    f, lo, hi, root, tol = _BRACKET_CASES[case]
    bracket, trials = [lo, hi], []

    def traced(x):
        trials.append(bracket[0] < x < bracket[1])
        y = f(x)
        bracket[(y < 0.0) != (f(lo) < 0.0)] = x
        return y

    got = solve(traced, lo, hi, f(lo), f(hi), tol)
    return ({"root"} if not abs(got - root) <= tol else set()) | \
        ({"inside"} if not all(trials) else set()) | \
        ({"count"} if len(trials) > 2 * math.ceil(math.log2((hi - lo) / tol)) + 2 else set())


@pytest.mark.parametrize("case", list(_BRACKET_CASES))
def test_bracketed_secant_closes_inside_its_bracket_within_twice_the_halvings(case):
    assert _bracketer_failures(grazing._bracket_root, case) == set()


def _secant(f, lo, hi, f_lo, f_hi, tol):
    """The raw secant through the last two iterates, which keeps no bracket."""
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    for _ in range(200):
        if abs(b - a) < tol or f_b == f_a:
            break
        a, f_a, b = b, f_b, b - f_b * (b - a) / (f_b - f_a)
        f_b = f(b)
    return b


def _regula_falsi(f, lo, hi, f_lo, f_hi, tol):
    """``_bracket_root`` without the Illinois halving and the midpoint trial."""
    for _ in range(200):
        if hi - lo < tol:
            break
        x = max(lo + 0.4 * tol, min(hi - 0.4 * tol, lo - f_lo * (hi - lo) / (f_hi - f_lo)))
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return 0.5 * (lo + hi)


def _residual_stop(f, lo, hi, f_lo, f_hi, tol):
    """Bisection that stops on a small residual |f| < 1e-12, not on the bracket."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < 1e-12:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return mid


@pytest.mark.parametrize("solve,case,check", [
    (_secant, "sigmoid", "inside"),
    (_regula_falsi, "convex", "count"),
    (_residual_stop, "triple", "root"),
], ids=["secant-leaves-the-bracket", "regula-falsi-stalls", "residual-stop-misses-the-root"])
def test_each_bracketer_check_fails_on_a_variant_built_to_fail_it(solve, case, check):
    assert check in _bracketer_failures(solve, case)


@pytest.mark.parametrize("terms", [
    {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0},
    {(4, 0): 1.0, (0, 4): 1.0},
    {(2, 0): 1.0, (1, 1): 0.5, (0, 2): -1.0},
    {(6, 0): 1.0, (3, 3): -0.7, (0, 6): 2.0},
])
def test_check_u1ww_matches_loop(terms):
    poly = MultiPoly(2, terms)
    best, arg = np.inf, None
    for a in np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False):
        p = np.array([np.cos(a), np.sin(a)])
        w = np.linalg.eigvalsh(poly.hessian(p))[0]
        if w < best:
            best, arg = w, p
    v = gm.check_u1ww(poly)
    assert v.min_eig == best
    assert np.array_equal(v.argmin, arg)


@pytest.mark.parametrize("surface", [
    gm.SymmetricH.from_hcoeffs(2, [1.0, 0.5], lam=[[1.2, 0.3], [0.0, 0.8]]),
    gm.SymmetricH.exp_flat(2, lam=[[1.0, 0.0], [0.2, 0.9]]),
], ids=["hcoeffs", "exp-flat"])
def test_symmetric_zeta_gradient_matches_differences(surface):
    # The closed form (2 - (h/h')'(s)) 2 L^T L x - 2 L^T L bbar against central
    # differences of the value off the apex, and -2 L^T L bbar at the apex.
    obs = gm.Obstacle(surface, radius=0.5)
    zeta = gm.SymmetricZeta(bbar=[-0.5, 0.4])
    step = 1e-5
    for x in sample_disk(np.random.default_rng(11), 0.4, 20):
        fd = np.array([(zeta.value(obs, x + step * e) - zeta.value(obs, x - step * e)) / (2 * step)
                       for e in np.eye(2)])
        assert np.max(np.abs(zeta.gradient(obs, x) - fd)) < 1e-8
    ltl = surface.lam.T @ surface.lam
    assert np.max(np.abs(zeta.gradient(obs, [0.0, 0.0]) + 2.0 * ltl @ zeta.bbar)) < 1e-8


def test_order_classification_refuses_a_differenced_surface():
    # F = 1 - x2^4 - x3^2 as a plain callable: differenced Taylor data would
    # read noise above ORDER_TOL where the exact coefficients are 0.
    generic = gm.Obstacle(gm.GenericSmooth(2, lambda x: 1.0 - x[0] ** 4 - x[1] ** 2), radius=1.0)
    with pytest.raises(gm.UnsupportedSurface):
        generic.directional_taylor([1.0, 0.0], 4)
    with pytest.raises(gm.UnsupportedSurface):
        gm.classify_order(generic, gm.SphericalPhase(source=[1.0, -1.0, 0.0]))
    assert gm.classify_order(quartic_vsq(), gm.SphericalPhase(source=[1.0, -1.0, 0.0])).order == 4


def test_cusp_trace_corrections_stop_at_the_rounding_floor(monkeypatch):
    # At the rounding floor of H, |H| flips sign on every Newton step while
    # shrinking ~5%, so a corrector that waits for |H| to stop falling runs
    # to its 40-step cap (41 evaluations; 4624 for the whole trace).
    calls, per_correction = [0], []
    real_vg, real_correct = gm.SphericalGrazing._value_grad, grazing._correct

    def value_grad(self, obstacle, x0, x1):
        calls[0] += 1
        return real_vg(self, obstacle, x0, x1)

    def correct(*args, **kwargs):
        before = calls[0]
        out = real_correct(*args, **kwargs)
        per_correction.append(calls[0] - before)
        return out

    monkeypatch.setattr(gm.SphericalGrazing, "_value_grad", value_grad)
    monkeypatch.setattr(grazing, "_correct", correct)
    gm.trace_grazing_curve(gm.SphericalGrazing(bbar=[-1.0, 0.0]), quartic_vsq(), window=0.3)
    assert calls[0] <= 1500
    assert max(per_correction) <= 12


class _PowerRoot:
    """f = u^m with u = a . x - 1/4: an m-fold root along a line, where exact
    Newton shrinks |f| by ((m - 1)/m)^m per step, a ratio below 1/e."""

    a0, a1 = 0.6, 0.8

    def __init__(self, m):
        self.m, self.calls = m, 0

    def _value_grad(self, obstacle, x0, x1):
        self.calls += 1
        u = x0 * self.a0 + x1 * self.a1 - 0.25
        du = self.m * u ** (self.m - 1)
        return u ** self.m, du * self.a0, du * self.a1


def _correct_to_stall(gf, obstacle, point, tol, axis=None):
    """The corrector that stops only when a step fails to lower |f|."""
    p = list(point)
    f, *grad = gf._value_grad(obstacle, *p)
    for _ in range(40 if axis is None else 80):
        if f == 0.0:
            return p, 0.0, grad
        if axis is None:
            g2 = grad[0] * grad[0] + grad[1] * grad[1]
            if g2 == 0.0:
                break
            p_new = [p[0] - grad[0] * (f / g2), p[1] - grad[1] * (f / g2)]
        else:
            if grad[axis] == 0.0:
                break
            p_new = p.copy()
            p_new[axis] = p[axis] - f / grad[axis]
        f_new, *grad_new = gf._value_grad(obstacle, *p_new)
        if abs(f_new) >= abs(f):
            if abs(f_new) <= tol:
                p, f, grad = p_new, f_new, grad_new
            break
        p, f, grad = p_new, f_new, grad_new
    return (p, abs(f), grad) if abs(f) <= tol else None


@pytest.mark.parametrize("axis", [None, 0, 1], ids=["gradient", "axis-0", "axis-1"])
@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_floor_stop_never_cuts_a_multiple_root_convergence(m, axis):
    # The floor rule leaves every step of a real convergence in place: point,
    # residual and evaluation count equal the stall-only corrector's (81
    # evaluations for m = 9 along an axis).  Any floor ratio of 0.444 or
    # below cuts one of these runs short.
    gf, ref_gf = _PowerRoot(m), _PowerRoot(m)
    got = _correct(gf, None, [0.1, -0.2], 1e-10, axis=axis)
    ref = _correct_to_stall(ref_gf, None, [0.1, -0.2], 1e-10, axis=axis)
    assert got[0] == ref[0] and got[1] == ref[1]
    assert gf.calls == ref_gf.calls
    assert got[1] < 1e-20


def test_cusp_trace_vertices_graze_by_the_batched_value():
    # H recomputed per row of one (m, 2) batch, a path apart from the
    # corrector's float jet, grazes within the tolerance and equals the
    # residual column bit for bit: the trace stores the batched |H| of each
    # vertex, not the corrector's float |f|.
    gf, obs = gm.SphericalGrazing(bbar=[-1.0, 0.0]), quartic_vsq()
    curve = gm.trace_grazing_curve(gf, obs, window=0.3)
    verts = curve.all_vertices()
    h = np.abs(gf.value(obs, verts))
    assert len(verts) == 240
    assert np.max(h) <= curve.trace_tol
    assert np.array_equal(h, np.concatenate([b.residuals for b in curve.branches]))
