"""The batched reflection layer against per-point loops written here.

Every batch result must equal the single-point results bit for bit
(``np.array_equal``), on polynomial, symmetric and sphere obstacles and on
every phase family, including a user ``ConvexPhase`` that sees one point
at a time.
"""

import numpy as np
import pytest

import grazemap as gm
import grazemap.reflection as refl
from grazemap.reflection import (FD_MARGIN_FLOOR, FD_STEP, BOUND_SLACK, FD_REL_TOL, _draw,
                                 _reflected_field_derivative)

from conftest import quartic_vsq, rounded_quartic, sample_disk

USER_CENTER = np.array([1.2, -1.0, 0.3])

OBSTACLES = {
    "sphere": lambda: gm.sphere_obstacle(2, radius=0.5),
    "cusp": quartic_vsq,
    "rounded": rounded_quartic,  # its Hessian has the mixed term -4 x2 x3
    "symmetric": lambda: gm.Obstacle(gm.SymmetricH.from_hcoeffs(
        2, [1.0, 0.5], lam=np.array([[1.2, 0.3], [0.0, 0.9]])), radius=0.5),
}
PHASES = {
    "plane": lambda: gm.PlanePhase(theta=[0.0, 1.0, 0.0]),
    "spherical": lambda: gm.SphericalPhase(source=[1.0, -1.0, 0.0]),
    "convex-distance": lambda: gm.ConvexPhase.distance_to_sphere([1.0, -1.0, 0.0], 2.0),
    "user-convex": lambda: gm.ConvexPhase(
        value_fn=lambda x: np.linalg.norm(x - USER_CENTER) - 1.5,
        grad_fn=lambda x: (x - USER_CENTER) / np.linalg.norm(x - USER_CENTER), name="user"),
}
PAIRS = [(o, p) for o in OBSTACLES for p in PHASES]


def _pair(ids):
    return OBSTACLES[ids[0]](), PHASES[ids[1]]()


def _points(obstacle, n=60):
    return sample_disk(np.random.default_rng(41), 0.9 * obstacle.radius, n)


def _lit(obstacle, phase, pts):
    """The points whose margin clears FD_MARGIN_FLOOR, found point by point."""
    return np.array([x for x in pts
                     if gm.classify_boundary_point(obstacle, phase, x).margin >= FD_MARGIN_FLOOR])


@pytest.fixture(params=PAIRS, ids=["/".join(p) for p in PAIRS])
def pair(request):
    return _pair(request.param)


def test_classify_batch_equals_per_point(pair):
    obstacle, phase = pair
    pts = _points(obstacle)
    batch = gm.classify_boundary_point(obstacle, phase, pts)
    singles = [gm.classify_boundary_point(obstacle, phase, x) for x in pts]
    assert batch.margin.shape == batch.label.shape == (len(pts),)
    assert np.array_equal(batch.margin, [c.margin for c in singles])
    assert batch.label.tolist() == [c.label for c in singles]
    assert len(set(batch.label.tolist())) > 1  # the sample mixes labels
    assert np.array_equal(batch.grad_f, [c.grad_f for c in singles])
    for side in ("incoming", "reflected"):
        cov = getattr(batch, side)
        assert np.array_equal(cov.vector, [getattr(c, side).vector for c in singles]), side
        assert np.array_equal(cov.point, [getattr(c, side).point for c in singles]), side
    s = np.linspace(0.0, 1.3, len(pts))
    assert np.array_equal(batch.image(s[:, None]),
                          [c.image(sk) for c, sk in zip(singles, s)])
    ray = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(batch.image(ray[:, None, None]),
                          np.stack([c.image(ray[:, None]) for c in singles], axis=1))


def test_xi_jacobian_batch_equals_per_point(pair):
    obstacle, phase = pair
    pts = _points(obstacle, 30)
    d_xi1, d_xibar = gm.xi_jacobian(phase, obstacle, pts)
    singles = [gm.xi_jacobian(phase, obstacle, x) for x in pts]
    assert np.array_equal(d_xi1, [a for a, _ in singles])
    assert np.array_equal(d_xibar, [b for _, b in singles])


def test_reflected_field_derivative_batch_equals_per_point(pair):
    obstacle, phase = pair
    pts = _points(obstacle, 30)
    batch = _reflected_field_derivative(obstacle, phase,
                                        gm.classify_boundary_point(obstacle, phase, pts))
    singles = [_reflected_field_derivative(obstacle, phase,
                                           gm.classify_boundary_point(obstacle, phase, x))
               for x in pts]
    assert np.array_equal(batch[0].vector, [xr.vector for xr, _, _, _ in singles])
    for k, name in ((1, "grad xi1_r"), (2, "K"), (3, "L")):
        assert np.array_equal(batch[k], [one[k] for one in singles]), name


def test_jacobians_batch_equal_per_point(pair):
    obstacle, phase = pair
    pts = _lit(obstacle, phase, _points(obstacle))
    assert len(pts) >= 5
    rng = np.random.default_rng(43)
    s = rng.uniform(0.0, 1.0, len(pts))
    t = rng.uniform(-1.0, 1.0, len(pts))
    rep = gm.jacobian_analytic(obstacle, phase, s, pts)
    singles = [gm.jacobian_analytic(obstacle, phase, sk, x) for sk, x in zip(s, pts)]
    assert np.array_equal(rep.j_analytic, [r.j_analytic for r in singles])
    assert np.array_equal(rep.lower_bound, [r.lower_bound for r in singles])
    assert np.array_equal(rep.margin, [r.margin for r in singles])
    j_fd = gm.jacobian_fd(obstacle, phase, s, pts, t)
    assert np.array_equal(j_fd, [gm.jacobian_fd(obstacle, phase, sk, x, tk)
                                 for sk, x, tk in zip(s, pts, t)])


def test_batch_jacobians_raise_for_the_first_unlit_point(sphere, side_source):
    lit = np.array([[-0.3, 0.0], [-0.2, 0.1]])
    with pytest.raises(gm.ShadowPoint, match="shadow"):
        gm.jacobian_analytic(sphere, side_source, 0.2, np.vstack((lit, [[0.3, 0.0]])))
    with pytest.raises(gm.GrazingSingular):
        gm.jacobian_analytic(sphere, side_source, 0.2, np.vstack((lit, [[0.0, 0.0], [0.3, 0.0]])))
    with pytest.raises(gm.ShadowPoint):
        gm.jacobian_fd(sphere, side_source, 0.2, np.vstack((lit, [[0.3, 0.0]])))
    assert gm.jacobian_fd(sphere, side_source, 0.2, np.vstack((lit, [[0.0, 0.0]]))).shape == (3,)


def test_batch_domain_exceeded_names_the_largest_xbar(sphere, side_source):
    pts = np.array([[0.1, 0.0], [0.0, 0.6], [0.55, 0.0], [-0.2, 0.2]])
    with pytest.raises(gm.DomainExceeded, match=r"\|xbar\| = 0\.6 exceeds declared radius 0\.5"):
        gm.classify_boundary_point(sphere, side_source, pts)
    with pytest.raises(gm.DomainExceeded, match=r"\|xbar\| = 0\.6 exceeds"):
        gm.jacobian_analytic(sphere, side_source, 0.1, pts)


def reference_draw(obstacle, phase, rng, s0, budget):
    """verify_rfm's rejection draw as a per-try loop over the public
    single-point functions: each try takes one row u of d + 2 raw doubles.
    Returns the samples [(s, xbar, t, record), ...] and the number of tries."""
    d = obstacle.dim_tangential
    r = obstacle.radius - FD_STEP
    samples, tries = [], 0
    while len(samples) < budget and tries < 200 * budget:
        tries += 1
        u = rng.random(d + 2)
        xb = -r + (2.0 * r) * u[:d]
        if np.linalg.norm(xb) > r:
            continue
        cls = gm.classify_boundary_point(obstacle, phase, xb)
        if cls.label == "shadow":
            continue
        samples.append((0.0 + s0 * u[d], xb, -1.0 + 2.0 * u[d + 1], cls))
    return samples, tries


def reference_verify_rfm(obstacle, phase, s0, budget, seed):
    """verify_rfm as a per-sample loop over the public single-point functions:
    (rows, failure lists, summary numbers)."""
    rng = np.random.default_rng(seed)
    samples, _ = reference_draw(obstacle, phase, rng, s0, budget)
    rows, bound_failures, fd_failures = [], [], []
    worst_gap, worst_rel, n_illum = np.inf, 0.0, 0
    for s, xb, t, cls in samples:
        mu, j_a, j_f, ok = cls.margin, np.nan, np.nan, True
        if cls.label == "illuminated":
            n_illum += 1
            rep = gm.jacobian_analytic(obstacle, phase, s, xb)
            j_a = rep.j_analytic
            worst_gap = min(worst_gap, j_a - rep.lower_bound)
            if j_a - rep.lower_bound < -BOUND_SLACK:
                bound_failures.append((s, xb, t, mu, j_a))
                ok = False
            if mu >= FD_MARGIN_FLOOR:
                j_f = gm.jacobian_fd(obstacle, phase, s, xb, t)
                rel = abs(j_a - j_f) / max(abs(j_a), abs(j_f))
                worst_rel = max(worst_rel, rel)
                if rel > FD_REL_TOL:
                    fd_failures.append((s, xb, t, mu, j_a, j_f))
                    ok = False
        rows.append((s, xb, t, mu, j_a, j_f, 2.0 * mu, ok))
    injectivity = []
    idx = rng.integers(0, len(samples), size=(min(10000, 5 * len(samples)), 2))
    for i, j in idx[idx[:, 0] != idx[:, 1]]:
        (s1, x1, t1, _), (s2, x2, t2, _) = samples[i], samples[j]
        dom = float(np.linalg.norm(np.concatenate(([s1 - s2], x1 - x2, [t1 - t2]))))
        img = float(np.linalg.norm(gm.flow_map(obstacle, phase, s1, x1, t1).y
                                   - gm.flow_map(obstacle, phase, s2, x2, t2).y))
        if img < 1e-9 and dom > 1e-6:
            injectivity.append(((s1, x1, t1), (s2, x2, t2), dom, img))
    return rows, bound_failures, fd_failures, injectivity, (len(samples), n_illum, worst_gap,
                                                           worst_rel)


def _flat(items):
    """A failure list or row list as one float array (xbar arrays spread out)."""
    return np.array([np.hstack([np.ravel(v).astype(float) for v in item]) for item in items])


# Spheres with d = 1, 3, 4 and 9 tangential axes lit from (1, -1, 0, ...),
# and a plane wave travelling away from the cap, which lights nothing.
MORE_OBSTACLES = {f"sphere-d{d}": lambda d=d: gm.sphere_obstacle(d, radius=0.5)
                  for d in (1, 3, 4, 9)}
MORE_PHASES = {f"spherical-d{d}":
               lambda d=d: gm.SphericalPhase(source=[1.0, -1.0] + [0.0] * (d - 1))
               for d in (1, 3, 4, 9)}
MORE_PHASES["unlit"] = lambda: gm.PlanePhase(theta=[1.0, 0.0, 0.0])


@pytest.mark.parametrize("ids, budget, draw", [
    (("sphere", "spherical"), 300, "one chunk"), (("sphere", "convex-distance"), 120, "one chunk"),
    (("cusp", "spherical"), 150, "chunks"), (("symmetric", "user-convex"), 80, "one chunk"),
    (("sphere-d1", "spherical-d1"), 150, "one chunk"),
    (("sphere-d3", "spherical-d3"), 150, "chunks"),
    (("sphere-d4", "spherical-d4"), 100, "chunks"),
    (("sphere-d9", "spherical-d9"), 20, "try cap"), (("sphere", "unlit"), 20, "try cap")],
    ids=["sphere/side", "sphere/convex-distance", "cusp/side", "symmetric/user-convex",
         "sphere-d1/side", "sphere-d3/side", "sphere-d4/side", "sphere-d9/side", "sphere/unlit"])
def test_verify_rfm_equals_per_sample_reference(ids, budget, draw):
    obstacle, phase = ({**OBSTACLES, **MORE_OBSTACLES}[ids[0]](),
                       {**PHASES, **MORE_PHASES}[ids[1]]())
    verdict = gm.verify_rfm(obstacle, phase, s0=1.0, budget=budget, seed=1)
    rows, bound_failures, fd_failures, injectivity, summary = reference_verify_rfm(
        obstacle, phase, 1.0, budget, 1)
    assert (verdict.n_samples, verdict.n_illuminated, verdict.worst_bound_gap,
            verdict.worst_fd_rel_error) == summary
    assert np.array_equal(_flat(verdict.rows), _flat(rows), equal_nan=True)
    assert len(verdict.bound_failures) == len(bound_failures)
    assert len(verdict.fd_failures) == len(fd_failures)
    assert verdict.injectivity_failures == injectivity == []
    assert verdict.passed == (summary[1] > 0 and not bound_failures and not fd_failures)
    # The draw against the per-try loop: its rows, its tries and where it
    # leaves the generator, which the injectivity pairs read on from.
    d = obstacle.dim_tangential
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    _, dom, tries = _draw(obstacle, phase, rng, obstacle.radius - FD_STEP, 1.0, budget)
    samples, ref_tries = reference_draw(obstacle, phase, ref_rng, 1.0, budget)
    assert tries == ref_tries == verdict.tries
    assert dom.tobytes() == _flat([sample[:3] for sample in samples]).tobytes()
    assert dom.shape == (len(samples), d + 2)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if draw == "try cap":
        assert verdict.n_samples < budget and verdict.tries == 200 * budget
    else:
        assert verdict.n_samples == budget
    # The first chunk holds 4 * budget rows; "chunks" draws run past it.
    assert (verdict.tries > 4 * budget) == (draw != "one chunk")


def test_draw_classifies_about_the_in_disk_candidates_it_tries(monkeypatch):
    # A row is classified only if it lies in the disk and its chunk is drawn;
    # only the last chunk's rows past the last sample go to waste.  On this
    # d = 3 sphere a draw that classified a candidate at every offset of the
    # raw-double stream read 3.46x the in-disk candidates it tried.
    obstacle = gm.sphere_obstacle(3, radius=0.5)
    phase = gm.SphericalPhase(source=[1.0, -1.0, 0.0, 0.0])
    classified = [0]
    real = refl._assemble

    def counted(ob, ph, xbar):
        classified[0] += len(xbar)
        return real(ob, ph, xbar)

    monkeypatch.setattr(refl, "_assemble", counted)
    r = obstacle.radius - FD_STEP
    _, _, tries = _draw(obstacle, phase, np.random.default_rng(42), r, 1.0, 10_000)
    xb = -r + (2.0 * r) * np.random.default_rng(42).random((tries, 5))[:, :3]
    in_disk = int(np.count_nonzero(np.linalg.norm(xb, axis=1) <= r))
    assert in_disk <= classified[0] <= 1.1 * in_disk


def test_verify_rfm_failure_lists_equal_per_sample_reference(sphere):
    # The folding phase of test_verify_rfm_catches_focusing_field fills the
    # bound-failure list; the user callables see one point at a time.
    c = np.array([0.8, 0.0, 0.0])
    focusing = gm.ConvexPhase(value_fn=lambda x: -np.linalg.norm(x - c),
                              grad_fn=lambda x: -(x - c) / np.linalg.norm(x - c), name="focusing")
    verdict = gm.verify_rfm(sphere, focusing, s0=1.0, budget=120, seed=1)
    rows, bound_failures, fd_failures, _, summary = reference_verify_rfm(
        sphere, focusing, 1.0, 120, 1)
    assert bound_failures and not verdict.passed
    assert (verdict.n_samples, verdict.n_illuminated, verdict.worst_bound_gap,
            verdict.worst_fd_rel_error) == summary
    assert np.array_equal(_flat(verdict.rows), _flat(rows), equal_nan=True)
    assert np.array_equal(_flat(verdict.bound_failures), _flat(bound_failures))
    assert _flat(verdict.fd_failures).tolist() == _flat(fd_failures).tolist()


@pytest.mark.parametrize("ids", [("sphere", "spherical"), ("symmetric", "user-convex")],
                         ids=["sphere/side", "symmetric/user-convex"])
def test_verify_rfm_grazing_samples_equal_per_sample_reference(ids, monkeypatch):
    # A wide grazing band labels many drawn samples grazing: they get no
    # Jacobian (NaN in their rows), fail no check and are not illuminated.
    import grazemap.reflection as refl
    monkeypatch.setattr(refl, "GRAZING_TOL", 0.05)
    obstacle, phase = _pair(ids)
    verdict = gm.verify_rfm(obstacle, phase, s0=1.0, budget=100, seed=2)
    rows, bound_failures, fd_failures, injectivity, summary = reference_verify_rfm(
        obstacle, phase, 1.0, 100, 2)
    grazing = [row for row in verdict.rows if abs(row[3]) <= 0.05]
    assert grazing and all(np.isnan(row[4:6]).all() and row[7] for row in grazing)
    assert verdict.n_illuminated == verdict.n_samples - len(grazing)
    assert (verdict.n_samples, verdict.n_illuminated, verdict.worst_bound_gap,
            verdict.worst_fd_rel_error) == summary
    assert _flat(verdict.rows).tobytes() == _flat(rows).tobytes()
    assert _flat(verdict.bound_failures).tobytes() == _flat(bound_failures).tobytes()
    assert _flat(verdict.fd_failures).tobytes() == _flat(fd_failures).tobytes()
    assert verdict.injectivity_failures == injectivity == []
    assert verdict.passed == (not bound_failures and not fd_failures)
