"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

import grazemap as gm
from grazemap.cli import main
from grazemap.diffgeo import MultiPoly
from grazemap.phases import boundary_trace_hessian
from grazemap.reflection import factor_matrices

from conftest import (illuminated_samples, planar_c1_obstacle, planar_cusp_obstacle,
                      quartic_mixed_vsq, quartic_quartic, quartic_vsq, rounded_quartic)

SPHERE = gm.sphere_obstacle(2, radius=0.5)
SIDE_SOURCE = gm.SphericalPhase(source=[1.0, -1.0, 0.0])


def report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_reflection_identity_suite():
    t0 = time.monotonic()
    obstacles = [SPHERE, quartic_vsq(), quartic_mixed_vsq(), quartic_quartic(),
                 planar_cusp_obstacle(), planar_c1_obstacle()]
    phases = [SIDE_SOURCE, gm.PlanePhase(theta=[0.0, 1.0, 0.0]),
              gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)]
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(10000):
        obs = obstacles[i % len(obstacles)]
        ph = phases[i % len(phases)]
        x = rng.uniform(-0.3, 0.3, 2)
        g = obs.gradient(x)
        xi = gm.xi_incoming(ph, obs, x)
        xr = gm.reflect_direction(obs, x, xi)
        worst = max(worst, abs(xr.norm - 1.0))
        worst = max(worst, float(np.max(np.abs((xi.xi1 * g + xi.xibar)
                                               - (xr.xi1 * g + xr.xibar)))))
        worst = max(worst, abs((xr.xi1 - g @ xr.xibar) + (xi.xi1 - g @ xi.xibar)))
        back = gm.reflect_direction(obs, x, xr)
        worst = max(worst, float(np.max(np.abs(back.vector - xi.vector))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, f"10^4 samples, worst identity residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_jacobian_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    worst_gap = np.inf
    for x, mu in illuminated_samples(SPHERE, SIDE_SOURCE, rng, 1000):
        s = rng.uniform(0.0, 1.0)
        t = rng.uniform(-1.0, 1.0)
        rep = gm.jacobian_analytic(SPHERE, SIDE_SOURCE, s, x)
        jf = gm.jacobian_fd(SPHERE, SIDE_SOURCE, s, x, t)
        worst_rel = max(worst_rel, abs(rep.j_analytic - jf)
                        / max(abs(rep.j_analytic), abs(jf)))
        worst_gap = min(worst_gap, rep.j_analytic - 2.0 * mu)
    elapsed = time.monotonic() - t0
    assert worst_rel <= 1e-6
    assert worst_gap >= -1e-9
    assert elapsed < 30.0
    report(2, f"rel err {worst_rel:.2e}, bound gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_03_btk_closed_forms():
    rng = np.random.default_rng(103)
    worst_sph = 0.0
    for x, mu in illuminated_samples(SPHERE, SIDE_SOURCE, rng, 1000):
        b_mat, _, k_mat, _ = factor_matrices(SPHERE, SIDE_SOURCE, x)
        pt = SPHERE.boundary_point(x)
        rel = pt - SIDE_SOURCE.source
        rho = float(np.linalg.norm(rel))
        g = SPHERE.gradient(x)
        w = (rel[0] / rho) * g + rel[1:] / rho
        closed = (np.eye(2) + np.outer(g, g) - np.outer(w, w)) / rho
        worst_sph = max(worst_sph, float(np.max(np.abs(b_mat.T @ k_mat - closed))))
    assert worst_sph <= 1e-10

    conv = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)
    worst_gen = 0.0
    min_eig = np.inf
    checked = 0
    while checked < 1000:
        for x, mu in illuminated_samples(SPHERE, conv, rng, 200):
            # the factor matrices degenerate where the reflected ray runs
            # parallel to the tangent plane; skip that thin set
            if abs(gm.xi_reflected(SPHERE, conv, x).xi1) < 0.05:
                continue
            b_mat, _, k_mat, _ = factor_matrices(SPHERE, conv, x)
            xi = gm.xi_incoming(conv, SPHERE, x)
            rhs = boundary_trace_hessian(conv, SPHERE, x) - xi.xi1 * SPHERE.hessian(x)
            worst_gen = max(worst_gen, float(np.max(np.abs(b_mat.T @ k_mat - rhs))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (rhs + rhs.T))[0]))
            checked += 1
    assert worst_gen <= 1e-9
    assert min_eig >= -1e-8
    report(3, f"spherical dev {worst_sph:.2e}, general dev {worst_gen:.2e}, "
              f"min eig {min_eig:.2e}")


def test_criterion_04_flow_round_trip():
    rng = np.random.default_rng(104)
    worst = 0.0
    samples = illuminated_samples(SPHERE, SIDE_SOURCE, rng, 1000, margin_floor=1e-2)
    for x, mu in samples:
        s = rng.uniform(0.01, 1.0)
        t = rng.uniform(-1.0, 1.0)
        y = gm.flow_map(SPHERE, SIDE_SOURCE, s, x, t).y
        s2, x2, t2 = gm.invert_flow(SPHERE, SIDE_SOURCE, y, seed=(s * 1.05 + 0.005, x + 1e-3))
        worst = max(worst, abs(s2 - s), float(np.max(np.abs(x2 - x))), abs(t2 - t))
    assert worst <= 1e-8

    worst_grad = 0.0
    for x, mu in samples[:100]:
        t = 0.25
        y1 = gm.flow_map(SPHERE, SIDE_SOURCE, 0.2, x, t).y
        y2 = gm.flow_map(SPHERE, SIDE_SOURCE, 0.9, x, t).y
        _, g1 = gm.reflected_phase_at(SPHERE, SIDE_SOURCE, y1, seed=(0.21, x + 1e-3))
        _, g2 = gm.reflected_phase_at(SPHERE, SIDE_SOURCE, y2, seed=(0.91, x + 1e-3))
        worst_grad = max(worst_grad, float(np.max(np.abs(g1 - g2))))
    assert worst_grad <= 1e-10
    report(4, f"round-trip err {worst:.2e}, gradient drift {worst_grad:.2e}")


def _fit(obstacle, gf, window=0.3):
    curve = gm.trace_grazing_curve(gf, obstacle, window=window)
    return gm.estimate_regularity(curve, fit_window=(1e-4, 1e-2))


def test_criterion_05_cusp_exponent():
    t0 = time.monotonic()
    est = _fit(quartic_vsq(), gm.SphericalGrazing(bbar=[-1.0, 0.0]))
    elapsed = time.monotonic() - t0
    target = -4.0 ** (-1.0 / 3.0)
    assert 0.63 <= est.exponent <= 0.70
    assert abs(est.coefficient - target) <= 0.05 * abs(target)
    assert elapsed < 5.0
    report(5, f"exponent {est.exponent:.4f}, coefficient {est.coefficient:.5f}, "
              f"{elapsed:.1f} s")


def test_criterion_06_four_thirds_spherical():
    est = _fit(quartic_quartic(), gm.SphericalGrazing(bbar=[-1.0, 0.0]))
    target = -(3.0 / 4.0) ** (1.0 / 3.0)
    assert 1.28 <= est.exponent <= 1.38
    assert abs(est.coefficient - target) <= 0.05 * abs(target)
    report(6, f"exponent {est.exponent:.4f}, coefficient {est.coefficient:.5f}")


def test_criterion_07_four_thirds_planar():
    est = _fit(planar_c1_obstacle(), gm.PlanarGrazing(thetabar=[1.0, 0.0]))
    target = 4.0 ** (-1.0 / 3.0)
    assert 1.28 <= est.exponent <= 1.38
    assert abs(abs(est.coefficient) - target) <= 0.05 * target
    # the curve solves 4u^3 = -v^4(1 + 2u), so the graph value is negative
    assert est.coefficient < 0.0
    report(7, f"exponent {est.exponent:.4f}, |coefficient| {abs(est.coefficient):.5f}")


def test_criterion_08_smooth_by_source_relocation():
    curve = gm.trace_grazing_curve(gm.SphericalGrazing(bbar=[0.0, 1.0]), quartic_vsq(),
                                   window=0.25)
    worst = 0.0
    count = 0
    for branch in curve.branches:
        u = branch.vertices[:, 0]
        v = branch.vertices[:, 1]
        mask = np.abs(u) <= 0.2
        # v^2 - 2v + 3u^4 = 0, root near zero by the quadratic formula
        expected = (2.0 - np.sqrt(4.0 - 12.0 * u[mask] ** 4)) / 2.0
        worst = max(worst, float(np.max(np.abs(v[mask] - expected))))
        count += int(mask.sum())
    assert worst <= 1e-8
    assert count > 100
    report(8, f"{count} vertices, worst deviation from closed form {worst:.2e}")


def test_criterion_09_order_classifier():
    cases = [(quartic_vsq(), SIDE_SOURCE), (quartic_mixed_vsq(), SIDE_SOURCE),
             (quartic_quartic(), SIDE_SOURCE),
             (planar_cusp_obstacle(), gm.PlanePhase(theta=[0.0, 1.0, 0.0])),
             (planar_c1_obstacle(), gm.PlanePhase(theta=[0.0, 1.0, 0.0])),
             (SPHERE, SIDE_SOURCE)]
    orders = []
    for obs, ph in cases:
        oc = gm.classify_order(obs, ph)
        assert oc.kind == "even" and oc.diffractive is True
        # exact-polynomial path: coefficients below the order are exactly zero
        assert all(c == 0.0 for c in oc.coefficients[:oc.order - 1])
        orders.append(oc.order)
    assert orders == [4, 4, 4, 4, 4, 2]
    flat = gm.Obstacle(gm.SymmetricH.exp_flat(2), radius=0.6)
    oc = gm.classify_order(flat, gm.SphericalPhase(source=[1.0, -0.8, 0.3]))
    assert (oc.kind, oc.order) == ("at-least", 16)
    report(9, f"orders {orders} all diffractive; flat profile -> order >= 16")


def brute_min_eig(poly, n_angles):
    # independent oracle: finite-difference Hessian of the polynomial values,
    # every angle's stencil evaluated in one batch per difference point
    h = 1e-5
    a = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    p = np.column_stack([np.cos(a), np.sin(a)])
    hess = np.zeros((n_angles, 2, 2))
    for i in range(2):
        for j in range(2):
            ei, ej = np.zeros(2), np.zeros(2)
            ei[i] = h
            ej[j] = h
            hess[:, i, j] = (poly.value(p + ei + ej) - poly.value(p + ei - ej)
                             - poly.value(p - ei + ej) + poly.value(p - ei - ej)) / (4 * h * h)
    return float(np.min(np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, 1, 2)))[:, 0]))


def test_criterion_10_hessian_positivity_check():
    assert gm.check_u1ww(MultiPoly(2, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0})).passed
    rng = np.random.default_rng(110)
    agreements = 0
    for _ in range(20):
        c0, c1, c2 = rng.uniform(0.1, 3.0, 3)
        poly = MultiPoly(2, {(4, 0): c0, (2, 2): c1, (0, 4): c2})
        verdict = gm.check_u1ww(poly)
        brute = brute_min_eig(poly, n_angles=3600) > 1e-7
        assert verdict.passed == brute
        agreements += 1
    assert agreements == 20
    bad = gm.check_u1ww(MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0}))
    assert not bad.passed
    assert min(abs(bad.argmin[0]), abs(bad.argmin[1])) < 1e-12
    report(10, "PASS/FAIL verdicts agree with 10x-density brute scan on 20 random cases")


def test_criterion_11_slice_counts():
    counts = []
    for obs in (rounded_quartic(), quartic_vsq()):
        for x2s in (-0.1, -0.05, -0.02, -0.01):
            sc = gm.slice_grazing_count(obs, [-1.0, 0.0], x2s)
            counts.append((sc.count_pos, sc.count_neg))
    assert counts == [(1, 1)] * 8
    report(11, "slice counts (1,1) on all 8 obstacle/offset combinations")


def test_criterion_12_2d_uniqueness():
    for terms in ({(0,): 1.0, (4,): -1.0}, {(0,): 1.0, (2,): -1.0}):
        obs = gm.polynomial_obstacle(1, terms)
        count, zeros = gm.grazing_zero_scan_1d(gm.SphericalGrazing(bbar=[-1.0]),
                                               obs, window=0.3)
        assert count == 1
        assert abs(zeros[0]) < 1e-9
    report(12, "exactly one tangency in |x2| <= 0.3 for both 2D profiles")


def test_criterion_13_deterministic_trace(tmp_path):
    obstacle = tmp_path / "obs.txt"
    obstacle.write_text("dim = 3\nkind = polynomial\nterm = 1 0 0\n"
                        "term = -1 4 0\nterm = -1 0 2\n", encoding="utf-8")
    phase = tmp_path / "ph.txt"
    phase.write_text("kind = spherical\nb = 1 -1 0\n", encoding="utf-8")
    args = ["trace", "--obstacle", str(obstacle), "--phase", str(phase),
            "--window", "0.3", "--seed", "42"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ba = (tmp_path / "a" / "trace.csv").read_bytes()
    bb = (tmp_path / "b" / "trace.csv").read_bytes()
    assert ba == bb and len(ba) > 1000
    report(13, f"byte-identical trace CSV across runs ({len(ba)} bytes)")
