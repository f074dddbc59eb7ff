import numpy as np
import pytest

import grazemap as gm


# The worked example surfaces: F = 1 - G with G listed by its monomials,
# paired with the source that makes the apex graze.
def quartic_vsq():
    return gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (0, 2): -1.0})


def quartic_mixed_vsq():
    return gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -1.0, (0, 2): -1.0})


def quartic_quartic():
    return gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (0, 4): -1.0})


def planar_cusp_obstacle():
    return gm.polynomial_obstacle(
        2, {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -2.0, (1, 2): -1.0, (0, 2): -1.0})


def planar_c1_obstacle():
    return gm.polynomial_obstacle(
        2, {(0, 0): 1.0, (4, 0): -1.0, (1, 4): -1.0, (2, 4): -1.0, (0, 2): -1.0})


def rounded_quartic():
    return gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -1.0, (0, 4): -1.0})


def surface_zoo():
    """One obstacle of each surface family and path, keyed by a test id:
    polynomial, symmetric profile (Taylor coefficients and the flat bump, both
    with a non-diagonal L) and plain callables with and without a gradient."""
    lam = [[1.0, 0.0], [0.2, 0.9]]
    return {
        "cusp": quartic_vsq(),
        "rotated": gm.rotate_coordinates(rounded_quartic(), [0.3, -0.8])[0],
        "symmetric-h": gm.Obstacle(gm.SymmetricH.from_hcoeffs(2, [1.0, 0.7], lam=lam), radius=0.7),
        "exp-flat": gm.Obstacle(gm.SymmetricH.exp_flat(2, lam=lam), radius=0.6),
        "generic": gm.Obstacle(gm.GenericSmooth(2, lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4),
                               radius=0.5),
        "generic-grad": gm.Obstacle(gm.GenericSmooth(
            2, lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4,
            grad=lambda x: np.array([-2.0 * x[0], -8.0 * x[1] ** 3])), radius=0.5),
    }


@pytest.fixture
def sphere():
    return gm.sphere_obstacle(2, radius=0.5)


@pytest.fixture
def side_source():
    return gm.SphericalPhase(source=[1.0, -1.0, 0.0])


@pytest.fixture
def plane_u():
    return gm.PlanePhase(theta=[0.0, 1.0, 0.0])


def sample_disk(rng, radius, n):
    pts = []
    while len(pts) < n:
        x = rng.uniform(-radius, radius, 2)
        if np.linalg.norm(x) <= radius:
            pts.append(x)
    return np.array(pts)


def illuminated_samples(obstacle, phase, rng, n, radius=None, margin_floor=1e-3):
    r = obstacle.radius * 0.9 if radius is None else radius
    out = []
    while len(out) < n:
        x = rng.uniform(-r, r, 2)
        if np.linalg.norm(x) > r:
            continue
        mu = gm.tangency_margin(obstacle, phase, x)
        if mu >= margin_floor:
            out.append((x, mu))
    return out


def nan_above_phase(x3_cut=0.2):
    """The convex distance phase of a source at (1, -1, 0), with a gradient
    that is NaN where x3 > x3_cut: its tangency margin is NaN there."""
    base = gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0)

    def grad(x):
        return np.full(3, np.nan) if x[2] > x3_cut else base.grad_psi(x)

    return gm.ConvexPhase(value_fn=base.value_fn, grad_fn=grad, name="nan-above")
