import numpy as np
import pytest

import grazemap as gm
from grazemap.phases import boundary_trace_gradient, boundary_trace_hessian

from conftest import quartic_vsq, sample_disk


def test_xi_incoming_examples(sphere):
    xi = gm.xi_incoming(gm.SphericalPhase(source=[1.0, -1.0, 0.0]), sphere, [0.0, 0.0])
    assert xi.xi1 == 0.0
    assert np.allclose(xi.xibar, [1.0, 0.0], atol=0)
    xi = gm.xi_incoming(gm.PlanePhase(theta=[0.0, 1.0, 0.0]), sphere, [0.11, -0.2])
    assert (xi.xi1, *xi.xibar) == (0.0, 1.0, 0.0)
    xi = gm.xi_incoming(gm.SphericalPhase(source=[1.0, 0.0, 1.0]), sphere, [0.0, 0.0])
    assert np.allclose((xi.xi1, *xi.xibar), (0.0, 0.0, -1.0), atol=0)


def test_unit_norm_all_variants(sphere):
    rng = np.random.default_rng(11)
    phases = [gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
              gm.PlanePhase(theta=[0.6, 0.0, 0.8]),
              gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)]
    for ph in phases:
        for x in sample_disk(rng, 0.45, 200):
            assert abs(gm.xi_incoming(ph, sphere, x).norm - 1.0) < 1e-12


def test_source_on_boundary(sphere):
    bp = sphere.boundary_point([0.1, 0.2])
    ph = gm.SphericalPhase(source=bp)
    with pytest.raises(gm.phases.SourceOnBoundary):
        gm.xi_incoming(ph, sphere, [0.1, 0.2])


def test_eikonal_residuals(sphere):
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(200, 3)) + [2.0, 0.0, 0.0]
    assert gm.eikonal_residual(gm.SphericalPhase(source=[1.0, -1.0, 0.0]), pts) < 1e-12
    assert gm.eikonal_residual(gm.PlanePhase(theta=[0.0, 1.0, 0.0]), pts) == 0.0
    conv = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)
    assert gm.eikonal_residual(conv, pts) < 1e-9


def test_convexity_check():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, size=(60, 3))
    pairs = [(pts[i], pts[j]) for i in range(len(pts)) for j in range(0, len(pts), 7)]
    b = np.array([3.0, 0.0, 0.0])
    good = gm.SphericalPhase(source=b)
    assert gm.convexity_check(good, pairs).passed
    bad = gm.ConvexPhase(value_fn=lambda x: -np.linalg.norm(x - b),
                         grad_fn=lambda x: -(x - b) / np.linalg.norm(x - b), name="concave")
    verdict = gm.convexity_check(bad, pairs)
    assert not verdict.passed and verdict.min_margin < 0
    affine = gm.PlanePhase(theta=[0.0, 0.6, 0.8])
    v = gm.convexity_check(affine, pairs)
    assert v.passed and abs(v.min_margin) < 1e-12


def test_boundary_trace_examples():
    obs = quartic_vsq()
    assert gm.boundary_trace(gm.SphericalPhase(source=[1.0, -1.0, 0.0]), obs, [0.0, 0.0]) == 1.0
    assert abs(gm.boundary_trace(gm.PlanePhase(theta=[0.0, 1.0, 0.0]), obs, [0.37, -0.2]) - 0.37) == 0.0
    got = gm.boundary_trace(gm.SphericalPhase(source=[1.0, 0.0, 1.0]), obs, [0.1, 0.0])
    assert abs(got - np.sqrt(1.01000001)) < 1e-15


def test_trace_gradient_identity(sphere):
    # grad Psi from the covector field must match differencing Psi itself.
    rng = np.random.default_rng(14)
    for ph in (gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
               gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)):
        for x in sample_disk(rng, 0.4, 100):
            fd = np.zeros(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1e-5
                fd[i] = (gm.boundary_trace(ph, sphere, x + e)
                         - gm.boundary_trace(ph, sphere, x - e)) / 2e-5
            assert np.max(np.abs(boundary_trace_gradient(ph, sphere, x) - fd)) < 1e-7


def test_curvature_matrix_psd(sphere):
    # hess Psi - xi1 hess F is symmetric positive semi-definite on samples.
    rng = np.random.default_rng(15)
    for ph in (gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
               gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)):
        for x in sample_disk(rng, 0.45, 100):
            xi = gm.xi_incoming(ph, sphere, x)
            m = boundary_trace_hessian(ph, sphere, x) - xi.xi1 * sphere.hessian(x)
            assert np.max(np.abs(m - m.T)) < 1e-9
            assert np.linalg.eigvalsh(m)[0] >= -1e-8


def test_non_focusing(sphere):
    rng = np.random.default_rng(16)
    ph = gm.SphericalPhase(source=[1.0, -1.0, 0.0])
    pts = sample_disk(rng, 0.45, 150)
    xis = [gm.xi_incoming(ph, sphere, x) for x in pts]
    fs = [sphere.value(x) for x in pts]
    idx = rng.integers(0, len(pts), size=(10000, 2))
    for i, j in idx:
        dx = np.concatenate(([fs[i] - fs[j]], pts[i] - pts[j]))
        dxi = xis[i].vector - xis[j].vector
        assert float(dx @ dxi) >= -1e-10


def test_xi_jacobian_matches_differences(sphere):
    rng = np.random.default_rng(17)
    for ph in (gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
               gm.PlanePhase(theta=[0.0, 0.6, 0.8])):
        for x in sample_disk(rng, 0.4, 40):
            d_xi1, d_xibar = gm.xi_jacobian(ph, sphere, x)
            for k in range(2):
                e = np.zeros(2)
                e[k] = 1e-6
                hi = gm.xi_incoming(ph, sphere, x + e)
                lo = gm.xi_incoming(ph, sphere, x - e)
                assert abs(d_xi1[k] - (hi.xi1 - lo.xi1) / 2e-6) < 1e-6
                assert np.max(np.abs(d_xibar[:, k] - (hi.xibar - lo.xibar) / 2e-6)) < 1e-6


def test_validate_phase_accepts_and_rejects(sphere):
    gm.validate_phase(gm.SphericalPhase(source=[1.0, -1.0, 0.0]), sphere,
                      n_points=200, n_pairs=500)
    saddle = gm.ConvexPhase(
        value_fn=lambda x: (x[1] ** 2 - x[2] ** 2) / 2.0,
        grad_fn=lambda x: np.array([0.0, x[1], -x[2]]), name="saddle")
    with pytest.raises(gm.phases.PhaseValidationError):
        gm.validate_phase(saddle, sphere, n_points=200, n_pairs=500)


def test_plane_phase_requires_unit_theta():
    with pytest.raises(gm.phases.PhaseValidationError):
        gm.PlanePhase(theta=[0.0, 2.0, 0.0])


def test_richardson_differences_stay_inside_domain():
    # 5e-7 from the edge: the difference steps shrink with the room left.
    # The convex-distance phase has the same gradient as the spherical one,
    # whose Jacobian is a closed form.
    from grazemap.phases import xi_jacobian
    obstacle = gm.sphere_obstacle(2, radius=0.5)
    conv = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)
    sph = gm.SphericalPhase(source=[1.0, -1.0, 0.0])
    x = (-0.4999995, 0.0)
    j_conv = gm.jacobian_analytic(obstacle, conv, 0.5, x).j_analytic
    j_sph = gm.jacobian_analytic(obstacle, sph, 0.5, x).j_analytic
    assert abs(j_conv - j_sph) < 1e-9 * abs(j_sph)
    with pytest.raises(gm.DomainExceeded, match=r"xbar = \[0\.5, 0\.0\]"):
        xi_jacobian(conv, obstacle, [0.5, 0.0])
