"""The float Newton loop of ``invert_flow`` against the array layer.

``_float_record`` and ``_float_block`` build one boundary point and its
spatial block on Python floats; they must match ``classify_boundary_point``
and ``_spatial_block`` to rounding on every surface family and phase kind,
and the loop they drive must invert ``flow_map``.  ``reflected_phase_at``
reads the converged record and must agree with the array layer at the point
it returns.  Bad arguments are refused before anything is evaluated, and a
stalled damping reports the iterations it took.
"""

import struct

import numpy as np
import pytest

import grazemap as gm
from grazemap import reflection
from grazemap.reflection import _float_block, _float_record, _solve, _spatial_block

from conftest import quartic_vsq, rounded_quartic, sample_disk

OBSTACLES = {
    "sphere": lambda: gm.sphere_obstacle(2, radius=0.5),
    "cusp": quartic_vsq,
    "rounded": rounded_quartic,
    "symmetric-h": lambda: gm.Obstacle(gm.SymmetricH.from_hcoeffs(
        2, [1.0, 0.5], lam=[[1.2, 0.3], [0.0, 0.9]]), radius=0.5),
    "exp-flat": lambda: gm.Obstacle(gm.SymmetricH.exp_flat(2, lam=[[1.0, 0.0], [0.2, 0.9]]),
                                    radius=0.6),
    "generic": lambda: gm.Obstacle(gm.GenericSmooth(2, lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4),
                                   radius=0.5),
}
# Side waves, and head-on ones for the flat profile: lit from the side, no
# point of it clears margin 0.05.
SIDE = {
    "plane": lambda: gm.PlanePhase(theta=[0.0, 1.0, 0.0]),
    "spherical": lambda: gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
    "convex-distance": lambda: gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0),
}
HEAD_ON = {
    "plane": lambda: gm.PlanePhase(theta=[-1.0, 0.0, 0.0]),
    "spherical": lambda: gm.SphericalPhase(source=[3.0, 0.0, 0.0]),
    "convex-distance": lambda: gm.ConvexPhase.distance_to_sphere([3.0, 0.0, 0.0], 2.0),
}
PAIRS = [(o, p) for o in OBSTACLES for p in SIDE]
BLOCK_REL_TOL = 1e-14  # |float - array| over the block's largest entry; seen <= 6.5e-16


@pytest.fixture(params=PAIRS, ids=["/".join(p) for p in PAIRS])
def pair(request):
    ob, ph = request.param
    return OBSTACLES[ob](), (HEAD_ON if ob == "exp-flat" else SIDE)[ph]()


def _lit(obstacle, phase, floor, n):
    pts = sample_disk(np.random.default_rng(5), 0.9 * obstacle.radius, 200)
    lit = pts[gm.classify_boundary_point(obstacle, phase, pts).margin >= floor][:n]
    assert len(lit) == n
    return lit


def test_float_record_and_block_match_the_array_layer(pair):
    obstacle, phase = pair
    for k, x in enumerate(_lit(obstacle, phase, 1e-3, 20)):
        s = 0.1 + 0.05 * k
        rec = _float_record(obstacle, phase, x.tolist())
        cls = gm.classify_boundary_point(obstacle, phase, x)
        assert abs(rec[0] - cls.margin) <= BLOCK_REL_TOL * max(1.0, abs(cls.margin))
        image = np.array(rec[1]) + 2.0 * s * np.array(rec[3])
        assert np.max(np.abs(image - cls.image(s))) <= BLOCK_REL_TOL
        want = _spatial_block(obstacle, phase, s, cls)
        got = np.array(_float_block(obstacle, phase, s, rec))
        assert np.max(np.abs(got - want)) <= BLOCK_REL_TOL * np.max(np.abs(want))


def test_seeded_round_trips(pair):
    obstacle, phase = pair
    rng = np.random.default_rng(29)
    for x in _lit(obstacle, phase, 0.05, 5):
        s, t = rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)
        y = gm.flow_map(obstacle, phase, s, x, t).y
        s2, x2, t2 = gm.invert_flow(obstacle, phase, y, seed=(s * 1.1 + 0.01, x + 0.003))
        assert abs(s2 - s) < 1e-8 and np.max(np.abs(x2 - x)) < 1e-8 and abs(t2 - t) < 1e-8


def test_reflected_phase_matches_the_array_layer_at_the_converged_point(pair):
    # The value and gradient come from the float record of the converged
    # point; the array layer at the xbar invert_flow returns gives the same
    # value bit for bit and the same gradient to rounding.
    obstacle, phase = pair
    rng = np.random.default_rng(31)
    for x in _lit(obstacle, phase, 0.05, 5):
        s, t = rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)
        y = gm.flow_map(obstacle, phase, s, x, t).y
        seed = (s * 1.1 + 0.01, x + 0.003)
        _, x2, t2 = gm.invert_flow(obstacle, phase, y, seed=seed)
        value, gradient = gm.reflected_phase_at(obstacle, phase, y, seed=seed)
        cls = gm.classify_boundary_point(obstacle, phase, x2)
        assert value == -t2 + phase.psi(cls.incoming.point)
        assert gradient.shape == (4,) and gradient[-1] == -1.0
        assert np.max(np.abs(gradient[:-1] - cls.reflected.vector)) <= 1e-15


def test_seeded_inversion_makes_no_array_assembly(sphere, side_source, monkeypatch):
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1]), 0.3).y

    def refuse(*args):
        raise AssertionError("array assembly in the float loop")

    monkeypatch.setattr(reflection, "_assemble", refuse)
    s, x, _ = gm.invert_flow(sphere, side_source, y, seed=(0.6, np.array([-0.18, 0.12])))
    assert abs(s - 0.7) < 1e-10 and np.max(np.abs(x - [-0.2, 0.1])) < 1e-10


def test_reflected_phase_makes_no_array_assembly(sphere, side_source, monkeypatch):
    x, t = np.array([-0.2, 0.1]), 0.3
    y = gm.flow_map(sphere, side_source, 0.7, x, t).y
    cls = gm.classify_boundary_point(sphere, side_source, x)

    def refuse(*args):
        raise AssertionError("array assembly in the reflected phase")

    monkeypatch.setattr(reflection, "_assemble", refuse)
    value, gradient = gm.reflected_phase_at(sphere, side_source, y,
                                            seed=(0.6, np.array([-0.18, 0.12])))
    assert abs(value - (-t + side_source.psi(cls.incoming.point))) < 1e-10
    assert np.max(np.abs(gradient - [*cls.reflected.vector, -1.0])) < 1e-10


def test_solve_pivots_and_refuses_a_zero_pivot():
    a = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]]  # a zero first pivot
    b = [1.0, 2.0, 3.0]
    x = _solve([row + [c] for row, c in zip(a, b)])
    assert np.max(np.abs(np.array(a) @ x - b)) < 1e-15
    assert _solve([[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]]) is None


def _solve_by_max(rows):
    # The pivot search and row loop of the first float solver, kept as the
    # reference: max() with a key picks the first row of largest abs.
    n = len(rows)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for row in rows[:k] + rows[k + 1:]:
            m = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= m * pivot[j]
    return [row[n] / row[k] for k, row in enumerate(rows)]


def _bits(values):
    return None if values is None else struct.pack(f"{len(values)}d", *values)


def test_solve_matches_the_max_key_pivot_search_bit_for_bit():
    rng = np.random.default_rng(17)
    cases = []
    for n in range(2, 6):
        for _ in range(50):
            cases.append(rng.normal(size=(n, n + 1)))
            # Small integers: pivots tie in size, and some are exactly zero.
            cases.append(rng.integers(-2, 3, size=(n, n + 1)).astype(float))
            nan = rng.normal(size=(n, n + 1))
            nan[rng.integers(n), rng.integers(n + 1)] = np.nan
            cases.append(nan)
    cases.append(np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]]))  # a zero second pivot
    cases.append(np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]]))  # first pivot tied at 1
    results = []
    for a in cases:
        got_rows, want_rows = a.tolist(), a.tolist()
        got, want = _solve(got_rows), _solve_by_max(want_rows)
        assert _bits(got) == _bits(want)
        assert [_bits(r) for r in got_rows] == [_bits(r) for r in want_rows]
        results.append(got)
    assert sum(x is None for x in results) >= 10
    assert sum(x is not None and any(np.isnan(x)) for x in results) >= 10


def test_a_singular_block_raises_no_convergence(sphere, side_source, monkeypatch):
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1])).y
    monkeypatch.setattr(reflection, "_float_block", lambda *args: [[0.0] * 3 for _ in range(3)])
    with pytest.raises(gm.NoConvergence, match=r"^no convergence after 0 iterations, "):
        gm.invert_flow(sphere, side_source, y, seed=(0.6, np.array([-0.18, 0.12])))


def test_stalled_damping_reports_the_steps_taken(sphere, side_source, monkeypatch):
    # Two true Newton steps, then uphill directions: no halving lowers the
    # residual, so the third iteration stalls.
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1])).y
    real, calls = reflection._solve, [0]

    def uphill_after_two(rows):
        calls[0] += 1
        x = real(rows)
        return x if calls[0] <= 2 else [-c for c in x]

    monkeypatch.setattr(reflection, "_solve", uphill_after_two)
    with pytest.raises(gm.NoConvergence,
                       match=r"^no convergence after 3 iterations \(damping stalled\), ") as err:
        gm.invert_flow(sphere, side_source, y, seed=(0.5, np.array([-0.15, 0.15])))
    assert err.value.iterations == 3 and err.value.residual > reflection.RESIDUAL_TOL


SEED_S = r"^seed must be a pair \(s, xbar\) with s a finite number"


@pytest.mark.parametrize("y, seed, match", [
    ([np.nan, 0.0, 0.0, 0.0], None, r"^y must be finite"),
    ([1.2, -0.2, 0.1, np.inf], None, r"^y must be finite"),
    (None, (np.nan, [-0.2, 0.1]), SEED_S),
    (None, (np.inf, [-0.2, 0.1]), SEED_S),
    (None, ("0.3", [-0.2, 0.1]), SEED_S),
    (None, (0.3, [-0.2]), r"^seed xbar must be 2 finite floats"),
    (None, (0.3, [-0.2, 0.1, 0.0]), r"^seed xbar must be 2 finite floats"),
    (None, (0.3, [-0.2, np.nan]), r"^seed xbar must be 2 finite floats"),
    (None, (0.3, ["a", 0.1]), r"^seed xbar must be 2 finite floats"),
    (None, 0.3, SEED_S),
    ([[1.2, -0.2], [0.1, 0.0]], None, r"^y has shape \(2, 2\), expected \(4,\)$"),
    (np.array([[1.2], [-0.2], [0.1], [0.0]]), None, r"^y has shape \(4, 1\), expected \(4,\)$"),
    ([1.2, -0.2, 0.1], None, r"^y has shape \(3,\), expected \(4,\)$"),
    (np.array([1.2, -0.2, 0.1, 0.0]) + 0j, None, r"^y must be 4 finite real numbers, got "),
    ([10**400, -0.2, 0.1, 0.0], None, r"^y must be 4 finite real numbers, got "),
    (None, (np.array([0.3]), [-0.2, 0.1]), SEED_S),
    (None, (np.complex128(0.3), [-0.2, 0.1]), SEED_S),
    (None, (10**400, [-0.2, 0.1]), SEED_S),
    (None, (0.3, np.array([-0.2, 0.1]) + 0j), r"^seed xbar must be 2 finite floats"),
], ids=["y-nan", "y-inf", "s-nan", "s-inf", "s-str", "xbar-short", "xbar-long", "xbar-nan",
        "xbar-str", "not-a-pair", "y-matrix", "y-column", "y-short", "y-complex", "y-huge-int",
        "s-array", "s-complex", "s-huge-int", "xbar-complex"])
def test_bad_arguments_are_refused_before_any_evaluation(sphere, side_source, monkeypatch,
                                                         y, seed, match):
    if y is None:
        y = gm.flow_map(sphere, side_source, 0.3, [-0.2, 0.1]).y

    def refuse(*args):
        raise AssertionError("evaluated before the arguments were checked")

    for name in ("_grid_seed", "_float_record"):
        monkeypatch.setattr(reflection, name, refuse)
    monkeypatch.setattr(gm.Obstacle, "_jet_at", refuse)
    for fn in (gm.invert_flow, gm.reflected_phase_at):
        with pytest.raises(gm.InvalidArgument, match=match):
            fn(sphere, side_source, y, seed=seed)
