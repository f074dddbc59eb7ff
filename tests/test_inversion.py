"""The generated Newton kernel of ``invert_flow`` against the array layer.

``_newton_kernel`` binds the straight-line float code ``_newton_source``
generates for one (dimension, phase kind) to an obstacle and a phase: its
``record`` builds one boundary point and ``augmented`` its spatial block on
Python floats.  They must match ``classify_boundary_point`` and
``_spatial_block`` to rounding on every surface family, phase kind and
dimension 1 to 3, and the loop they drive must invert ``flow_map``, with the
float bits of fixed inversions pinned.  ``reflected_phase_at`` reads the
converged record and must agree with the array layer at the point it
returns.  Bad arguments are refused before anything is evaluated, and a
stalled damping reports the iterations it took.
"""

import hashlib
import struct
import sys
import threading

import numpy as np
import pytest

import grazemap as gm
from grazemap import reflection
from grazemap.reflection import _newton_kernel, _newton_source, _solve, _spatial_block

from conftest import quartic_vsq, rounded_quartic

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
    # The kernel is generated for any dimension; the sample specs are all d = 2.
    "sphere-d1": lambda: gm.sphere_obstacle(1, radius=0.5),
    "quartic-d1": lambda: gm.polynomial_obstacle(1, {(0,): 1.0, (2,): -0.5, (4,): -1.0}),
    "sphere-d3": lambda: gm.sphere_obstacle(3, radius=0.5),
    "cusp-d3": lambda: gm.polynomial_obstacle(
        3, {(0, 0, 0): 1.0, (4, 0, 0): -1.0, (0, 2, 0): -1.0, (1, 1, 2): -0.5, (0, 0, 2): -1.0},
        radius=0.5),
    "symmetric-h-d3": lambda: gm.Obstacle(gm.SymmetricH.from_hcoeffs(
        3, [1.0, 0.5], lam=[[1.2, 0.3, 0.0], [0.0, 0.9, 0.1], [0.2, 0.0, 1.1]]), radius=0.5),
}


def _unit(n, k, sign=1.0):
    return [sign if i == k else 0.0 for i in range(n)]


# Side waves, and head-on ones for the flat profile: lit from the side, no
# point of it clears margin 0.05.  n is the ambient dimension d + 1.
SIDE = {
    "plane": lambda n: gm.PlanePhase(theta=_unit(n, 1)),
    "spherical": lambda n: gm.SphericalPhase(source=[1.0, -1.0] + [0.0] * (n - 2)),
    "convex-distance": lambda n: gm.ConvexPhase.distance_to_sphere(
        [1.0, -1.0] + [0.0] * (n - 2), 2.0),
}
HEAD_ON = {
    "plane": lambda n: gm.PlanePhase(theta=_unit(n, 0, -1.0)),
    "spherical": lambda n: gm.SphericalPhase(source=[3.0] + [0.0] * (n - 1)),
    "convex-distance": lambda n: gm.ConvexPhase.distance_to_sphere([3.0] + [0.0] * (n - 1), 2.0),
}
PAIRS = [(o, p) for o in OBSTACLES for p in SIDE]
BLOCK_REL_TOL = 1e-14  # |float - array| over the block's largest entry; seen <= 6.5e-16


@pytest.fixture(params=PAIRS, ids=["/".join(p) for p in PAIRS])
def pair(request):
    ob, ph = request.param
    obstacle = OBSTACLES[ob]()
    return obstacle, (HEAD_ON if ob == "exp-flat" else SIDE)[ph](obstacle.dim)


def _sample_ball(rng, radius, n, d):
    # At d = 2 these are conftest.sample_disk's points.
    pts = []
    while len(pts) < n:
        x = rng.uniform(-radius, radius, d)
        if np.linalg.norm(x) <= radius:
            pts.append(x)
    return np.array(pts)


def _lit(obstacle, phase, floor, n):
    pts = _sample_ball(np.random.default_rng(5), 0.9 * obstacle.radius, 200,
                       obstacle.dim_tangential)
    lit = pts[gm.classify_boundary_point(obstacle, phase, pts).margin >= floor][:n]
    assert len(lit) == n
    return lit


def test_float_record_and_block_match_the_array_layer(pair):
    obstacle, phase = pair
    record, residual, augmented = _newton_kernel(obstacle, phase)
    zero = [0.0] * obstacle.dim
    for k, x in enumerate(_lit(obstacle, phase, 1e-3, 20)):
        s = 0.1 + 0.05 * k
        rec = record(x.tolist())
        cls = gm.classify_boundary_point(obstacle, phase, x)
        assert abs(rec[0] - cls.margin) <= BLOCK_REL_TOL * max(1.0, abs(cls.margin))
        image = residual(s, rec, zero)
        assert np.max(np.abs(np.array(image) - cls.image(s))) <= BLOCK_REL_TOL
        rows = augmented(s, rec, image)
        assert [row[-1] for row in rows] == [-c for c in image]
        want = _spatial_block(obstacle, phase, s, cls)
        got = np.array([row[:-1] for row in rows])
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
        assert gradient.shape == (obstacle.dim + 1,) and gradient[-1] == -1.0
        assert np.max(np.abs(gradient[:-1] - cls.reflected.vector)) <= 1e-15


PINNED_PHASES = {
    "side": lambda: gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
    "top": lambda: gm.SphericalPhase(source=[1.0, 0.0, 1.0]),
    "plane": lambda: gm.PlanePhase(theta=[0.0, 1.0, 0.0]),
    "convex_distance": lambda: gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0),
}
# sha256 of the float bits of (s, xbar, t, value, grad) at the targets of
# _pinned_bits, recorded from the list-based float loop this kernel replaced.
PINNED = {
    "sphere/side": "a2942f3d223766a27901eb648155920ebf161c2f800f28fd97be00a30be71ab3",
    "sphere/plane": "3aa1f43ec06dcb9edddee7ab2fee9727bdda9ae672ddae93068f8daaf89c7181",
    "cusp/top": "241892c71a0eb0a39cfc102ed21cd32bc81e79758b5f969344429503c124e56a",
    "rounded/side": "7c5859b0d415aad033ec3d8ec3431ef86cdc2fce54ae9cb4e4fc68201695d8d9",
    "sphere/convex_distance": "9fb5d47f1f7794a57b62b72bf6537e6f3eaeb5744e7e8e3935af14d4f060b262",
}


def _pinned_bits(obstacle, phase):
    # Four targets on rays from lit points: the first grid-seeded, the rest
    # seeded near their preimage.
    rng = np.random.default_rng(41)
    digest = hashlib.sha256()
    for k, x in enumerate(_lit(obstacle, phase, 0.05, 4)):
        s, t = rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)
        y = gm.flow_map(obstacle, phase, s, x, t).y
        seed = None if k == 0 else (s * 1.1 + 0.01, x + 0.003)
        s2, x2, t2 = gm.invert_flow(obstacle, phase, y, seed=seed)
        value, grad = gm.reflected_phase_at(obstacle, phase, y, seed=seed)
        digest.update(_bits([s2, *x2.tolist(), t2, value, *grad.tolist()]))
    return digest.hexdigest()


@pytest.mark.parametrize("key", list(PINNED))
def test_inversion_bits_are_pinned(key):
    ob, ph = key.split("/")
    assert _pinned_bits(OBSTACLES[ob](), PINNED_PHASES[ph]()) == PINNED[key]


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
        got, want = _solve(a.tolist()), _solve_by_max(a.tolist())
        assert _bits(got) == _bits(want)
        results.append(got)
    assert sum(x is None for x in results) >= 10
    assert sum(x is not None and any(np.isnan(x)) for x in results) >= 10


def _newton_binds(monkeypatch):
    """The Newton sources ``_generate`` runs from here on, with no pair bound."""
    sources, real = [], reflection._generate

    def spy(source, names):
        if source.startswith("def record"):
            sources.append(source)
        return real(source, names)

    monkeypatch.setattr(reflection, "_generate", spy)
    monkeypatch.setattr(reflection, "_newton_bound", (None, None, None))
    return sources


def test_a_pair_is_bound_once(sphere, side_source, monkeypatch):
    binds = _newton_binds(monkeypatch)
    y = gm.flow_map(sphere, side_source, 0.7, [-0.2, 0.1], 0.3).y
    gm.invert_flow(sphere, side_source, y)
    gm.reflected_phase_at(sphere, side_source, y, seed=(0.6, [-0.18, 0.12]))
    assert binds == [_newton_source(2, "spherical")]


def test_kernels_are_keyed_by_identity(side_source, monkeypatch):
    # The quartic differs from the quadric in its polynomial alone, and the
    # two generic caps compare equal (a GenericSmooth leaves its function out
    # of equality) though their surfaces differ: each gets its own kernel and
    # its own inverse.
    binds = _newton_binds(monkeypatch)
    caps = [gm.polynomial_obstacle(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}, radius=0.5),
            gm.polynomial_obstacle(2, {(0, 0): 1.0, (4, 0): -1.0, (0, 2): -1.0}, radius=0.5),
            *(gm.Obstacle(gm.GenericSmooth(2, f), radius=0.5) for f in (
                lambda x: 1.0 - x[0] ** 2 - 2.0 * x[1] ** 4,
                lambda x: 1.0 - 2.0 * x[0] ** 2 - x[1] ** 2))]
    assert caps[2] == caps[3]
    x = np.array([-0.2, 0.1])
    for obstacle in caps:
        y = gm.flow_map(obstacle, side_source, 0.7, x, 0.3).y
        s, xb, t = gm.invert_flow(obstacle, side_source, y, seed=(0.6, [-0.18, 0.12]))
        assert abs(s - 0.7) < 1e-10 and np.max(np.abs(xb - x)) < 1e-10 and abs(t - 0.3) < 1e-10
    assert len(binds) == len(caps)


def test_threads_on_two_pairs_get_the_serial_bits(sphere, side_source):
    # Each thread's pair displaces the other's from the one-entry kernel
    # cache over and over; every result keeps its serial bits.
    pairs = [(sphere, side_source), (rounded_quartic(), gm.PlanePhase(theta=[0.0, 1.0, 0.0]))]

    def run(obstacle, phase):
        out = []
        for x in _lit(obstacle, phase, 0.05, 4):
            y = gm.flow_map(obstacle, phase, 0.5, x, 0.2).y
            seed = (0.55, x + 0.003)
            s, xb, t = gm.invert_flow(obstacle, phase, y, seed=seed)
            value, grad = gm.reflected_phase_at(obstacle, phase, y, seed=seed)
            out.append(_bits([s, *xb.tolist(), t, value, *grad.tolist()]))
        return out

    serial = [run(*pair) for pair in pairs]
    start, results = threading.Barrier(len(pairs)), [[] for _ in pairs]

    def worker(k):
        start.wait()
        for _ in range(25):
            results[k].append(run(*pairs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(pairs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[bits] * 25 for bits in serial]


def test_a_singular_block_raises_no_convergence(sphere, side_source, monkeypatch):
    y = gm.flow_map(sphere, side_source, 0.7, np.array([-0.2, 0.1])).y
    real = reflection._newton_kernel

    def singular_block(obstacle, phase):
        record, residual, _ = real(obstacle, phase)
        return record, residual, lambda s, rec, r: [[0.0] * 3 + [-c] for c in r]

    monkeypatch.setattr(reflection, "_newton_kernel", singular_block)
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
    (["1.2", "-0.2", "0.1", "0.0"], None, r"^y must be 4 finite real numbers, got "),
    (None, (0.3, ["-0.2", "0.1"]), r"^seed xbar must be 2 finite floats"),
], ids=["y-nan", "y-inf", "s-nan", "s-inf", "s-str", "xbar-short", "xbar-long", "xbar-nan",
        "xbar-str", "not-a-pair", "y-matrix", "y-column", "y-short", "y-complex", "y-huge-int",
        "s-array", "s-complex", "s-huge-int", "xbar-complex", "y-numeric-str",
        "xbar-numeric-str"])
def test_bad_arguments_are_refused_before_any_evaluation(sphere, side_source, monkeypatch,
                                                         y, seed, match):
    if y is None:
        y = gm.flow_map(sphere, side_source, 0.3, [-0.2, 0.1]).y

    def refuse(*args):
        raise AssertionError("evaluated before the arguments were checked")

    for name in ("_grid_seed", "_newton_kernel"):
        monkeypatch.setattr(reflection, name, refuse)
    monkeypatch.setattr(gm.Obstacle, "_jet_at", refuse)
    for fn in (gm.invert_flow, gm.reflected_phase_at):
        with pytest.raises(gm.InvalidArgument, match=match):
            fn(sphere, side_source, y, seed=seed)
