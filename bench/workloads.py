"""The three workloads: inputs generated from a seed, jobs, and their checks.

A workload is a fixed list of jobs (one *round*).  ``generate`` writes every
input file the program will read under ``root/inputs`` and returns the round;
the runner repeats whole rounds, so a job that fails every time is always
the same share of the jobs attempted.

* boundary-batch -- in-process CLI ``rfm-check`` and ``reflect`` jobs.
* grazing-report -- in-process CLI ``classify`` and ``render --sheet`` jobs.
* phase-lines    -- library ``invert_flow`` / ``reflected_phase_at`` along
                    spacetime lines.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle
from oracle import ObstacleSpec, PhaseSpec

RFM_BUDGET = 100
RFM_S0 = 1.0
REFLECT_BUDGET = 1500
LINE_TARGETS = 25
LINES_PER_PAIR = 4

# The sample specs shipped in specs/, restated here so that editing a sample
# file cannot silently change a workload.
SPHERE = oracle.sphere_spec(0.5)
CUSP = ObstacleSpec("cusp_quartic", "polynomial", 1.0,
                    {(0, 0): 1.0, (4, 0): -1.0, (0, 2): -1.0})
ROUNDED = ObstacleSpec("rounded_quartic", "polynomial", 1.0,
                       {(0, 0): 1.0, (4, 0): -1.0, (2, 2): -1.0, (0, 4): -1.0})
FLAT = ObstacleSpec("flat_profile", "flat", 0.6)
SIDE = PhaseSpec("side_source", "spherical", (1.0, -1.0, 0.0))
TOP = PhaseSpec("top_source", "spherical", (1.0, 0.0, 1.0))
PLANE = PhaseSpec("plane", "plane", (0.0, 1.0, 0.0))
CONVEX = PhaseSpec("convex_distance", "convex-distance", (1.0, -1.0, 0.0), 2.0)

KNOWN_FAULT = ("classify of cusp_quartic with top_source at --window 0.3 reports "
               "INCONCLUSIVE: the smooth-graph fit in estimate_regularity tests a "
               "relative residual near 4e-6 against a 1e-6 cut")


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: str | None = None


@dataclass
class Workload:
    jobs: list
    spec_files: list          # (obstacle path, phase path) pairs, for set-up timing


class _Inputs:
    """Writes each obstacle/phase spec file once under ``root/inputs``."""

    def __init__(self, root: Path):
        self.dir = root / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pairs: list = []

    def pair(self, ob: ObstacleSpec, ph: PhaseSpec) -> tuple[str, str]:
        paths = (self._write(f"{ob.name}.obstacle", ob.text()),
                 self._write(f"{ph.name}.phase", ph.text()))
        if paths not in self.pairs:
            self.pairs.append(paths)
        return paths

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _cli_job(key: str, argv: list, out: Path, check, known_fault=None) -> Job:
    from grazemap import cli

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv + ["--out", str(out)])
        return checks.CliResult(code, stdout.getvalue(), stderr.getvalue(), out)

    return Job(key, run, check, known_fault)


def _job_dir(root: Path, key: str) -> Path:
    return root / "jobs" / key.replace("/", "_").replace(":", "_")


def _concave_poly(rng, name: str) -> ObstacleSpec:
    """F = 1 - a x2^2 - c x3^2 - d x2^4 - e x3^4: strictly concave, normalized."""
    a, c = rng.uniform(0.6, 1.4, 2)
    d, e = rng.uniform(0.2, 1.0, 2)
    return ObstacleSpec(name, "polynomial", float(rng.uniform(0.45, 0.6)),
                        {(0, 0): 1.0, (2, 0): -a, (0, 2): -c, (4, 0): -d, (0, 4): -e})


# ---------------------------------------------------------------------------
# boundary-batch
# ---------------------------------------------------------------------------

def boundary_batch(rng, root: Path) -> Workload:
    inputs = _Inputs(root)
    spec_pairs = [(SPHERE, SIDE), (SPHERE, PLANE), (SPHERE, CONVEX), (CUSP, TOP)]
    generated = [(_concave_poly(rng, "concave_a"), SIDE), (_concave_poly(rng, "concave_b"), PLANE)]
    jobs = []
    # rfm-check keeps the CLI's default sampling seed on the fixed spec pairs:
    # with a seeded sampling stream it exits 1 whenever a sample lands within
    # its 1e-5 difference step of the domain edge, which happens on some seeds
    # only (see CHANGES.md).
    for ob, ph in spec_pairs:
        ob_path, ph_path = inputs.pair(ob, ph)
        key = f"rfm-check:{ob.name}/{ph.name}"
        argv = ["rfm-check", "--obstacle", ob_path, "--phase", ph_path,
                "--budget", str(RFM_BUDGET), "--s0", repr(RFM_S0)]
        jobs.append(_cli_job(key, argv, _job_dir(root, key),
                             lambda res, ob=ob, ph=ph: checks.check_rfm(res, ob, ph, RFM_BUDGET,
                                                                        RFM_S0)))
    for ob, ph in spec_pairs + generated:
        ob_path, ph_path = inputs.pair(ob, ph)
        key = f"reflect:{ob.name}/{ph.name}"
        argv = ["reflect", "--obstacle", ob_path, "--phase", ph_path,
                "--budget", str(REFLECT_BUDGET), "--seed", str(int(rng.integers(0, 2**31)))]
        jobs.append(_cli_job(key, argv, _job_dir(root, key),
                             lambda res, ob=ob, ph=ph: checks.check_reflect(res, ob, ph,
                                                                            REFLECT_BUDGET)))
    return Workload(jobs, inputs.pairs)


# ---------------------------------------------------------------------------
# grazing-report
# ---------------------------------------------------------------------------

def _family(rng, kind: str) -> checks.ClassifyCase:
    """One seeded obstacle from a closed-form family, lit from (1, -1, 0)."""
    a, c = (float(v) for v in rng.uniform(0.8, 1.25, 2))
    if kind == "cusp":
        ob = ObstacleSpec("family_cusp", "polynomial", 1.0, {(0, 0): 1.0, (4, 0): -a, (0, 2): -c})
        case = checks.ClassifyCase(ob, SIDE, "GS-FAILS-CUSP-EVIDENCE", checks.CUSP_BIN,
                                   checks.closed_form_cusp(a, c))
    elif kind == "c1":
        ob = ObstacleSpec("family_c1", "polynomial", 1.0, {(0, 0): 1.0, (4, 0): -a, (0, 4): -c})
        case = checks.ClassifyCase(ob, SIDE, "GS-HOLDS-C1-EVIDENCE", checks.C1_BIN,
                                   checks.closed_form_c1(a, c))
    else:
        b = float(rng.uniform(0.5, 1.5))
        ob = ObstacleSpec("family_smooth", "polynomial", 1.0,
                          {(0, 0): 1.0, (4, 0): -a, (2, 2): -b, (0, 4): -c})
        case = checks.ClassifyCase(ob, SIDE, "GS-HOLDS-SMOOTH")
    return case


def grazing_report(rng, root: Path) -> Workload:
    inputs = _Inputs(root)
    cases = [checks.ClassifyCase(CUSP, SIDE, "GS-FAILS-CUSP-EVIDENCE", checks.CUSP_BIN,
                                 checks.closed_form_cusp(1.0, 1.0)),
             checks.ClassifyCase(ROUNDED, SIDE, "GS-HOLDS-SMOOTH"),
             checks.ClassifyCase(FLAT, SIDE, "GS-HOLDS-SMOOTH", slices=False),
             # The traced curve is analytic (x3 = 1 - sqrt(1 - 3 x2^4)), so the
             # report should be C1 evidence, as it is at --window 0.25.
             checks.ClassifyCase(CUSP, TOP, "GS-HOLDS-C1-EVIDENCE")]
    cases += [_family(rng, kind) for kind in ("cusp", "c1", "smooth")]
    jobs = []
    for case in cases:
        ob_path, ph_path = inputs.pair(case.ob, case.ph)
        key = f"classify:{case.ob.name}/{case.ph.name}"
        fault = KNOWN_FAULT if (case.ob, case.ph) == (CUSP, TOP) else None
        jobs.append(_cli_job(key, ["classify", "--obstacle", ob_path, "--phase", ph_path],
                             _job_dir(root, key),
                             lambda res, case=case: checks.check_classify(res, case), fault))
    renders = [(CUSP, SIDE, "a", None), (CUSP, SIDE, "b", "a"), (CUSP, TOP, "a", None)]
    for ob, ph, tag, twin in renders:
        ob_path, ph_path = inputs.pair(ob, ph)
        key = f"render:{ob.name}/{ph.name}:{tag}"
        out = _job_dir(root, key)
        twin_dir = _job_dir(root, f"render:{ob.name}/{ph.name}:{twin}") if twin else None
        closed = checks.cusp_top_curve if ph is TOP else None
        check = (lambda res, ob=ob, bbar=ph.vec[1:], twin_dir=twin_dir, closed=closed:
                 checks.check_render(res, ob, bbar, twin_dir, closed))
        jobs.append(_cli_job(key, ["render", "--obstacle", ob_path, "--phase", ph_path,
                                   "--sheet", "--format", "both"], out, check))
    return Workload(jobs, inputs.pairs)


# ---------------------------------------------------------------------------
# phase-lines
# ---------------------------------------------------------------------------

def _draw_preimage(rng, ob: ObstacleSpec, ph: PhaseSpec, near=None):
    while True:
        if near is None:
            x = rng.uniform(-0.7, 0.7, 2) * ob.radius
        else:
            x = near + rng.uniform(-0.25, 0.25, 2) * ob.radius
        if np.hypot(*x) <= 0.7 * ob.radius and oracle.margin(ob, ph, x) >= 0.05:
            return float(rng.uniform(0.2, 1.2)), x, float(rng.uniform(-1.0, 1.0))


def _phase_line(rng, ob: ObstacleSpec, ph: PhaseSpec) -> checks.PhaseLine:
    """Targets on the straight spacetime segment between the images of two preimages.

    Interior preimages come from the oracle's own Newton, continued along the
    segment; a line is redrawn unless every target has margin >= 1e-2, stays
    inside 0.9 of the domain radius, has 0.05 <= s <= 1.9, and maps back onto
    its target to 1e-13 under the oracle's forward map.
    """
    while True:
        sa, xa, ta = _draw_preimage(rng, ob, ph)
        sb, xb, tb = _draw_preimage(rng, ob, ph, near=xa)
        ya = np.append(oracle.forward(ob, ph, sa, xa), ta + 2.0 * sa)
        yb = np.append(oracle.forward(ob, ph, sb, xb), tb + 2.0 * sb)
        taus = np.linspace(0.0, 1.0, LINE_TARGETS)
        targets = ya + taus[:, None] * (yb - ya)
        pre_s, pre_x = [sa], [xa]
        for y in targets[1:]:
            s, x = oracle.invert(ob, ph, y[:3], (pre_s[-1], pre_x[-1]))
            pre_s.append(s)
            pre_x.append(x)
        pre_s, pre_x = np.array(pre_s), np.array(pre_x)
        resid = np.max(np.abs(oracle.forward(ob, ph, pre_s, pre_x) - targets[:, :3]))
        ok = (np.all(oracle.margin(ob, ph, pre_x) >= 1e-2)
              and np.all(np.hypot(pre_x[:, 0], pre_x[:, 1]) <= 0.9 * ob.radius)
              and np.all((pre_s >= 0.05) & (pre_s <= 1.9)) and resid <= 1e-13)
        if ok:
            return checks.PhaseLine(ob, ph, targets, pre_s, pre_x, targets[:, 3] - 2.0 * pre_s)


def _line_job(key: str, paths: tuple, line: checks.PhaseLine) -> Job:
    from grazemap import reflection, specio

    def run():
        obstacle = specio.parse_obstacle(paths[0])
        phase = specio.parse_phase(paths[1], dim=obstacle.dim)
        rows = []
        seed = None  # the first target runs the program's grid search for a seed
        for y in line.targets:
            s, xbar, t = reflection.invert_flow(obstacle, phase, y, seed=seed)
            seed = (s, xbar)
            value, grad = reflection.reflected_phase_at(obstacle, phase, y, seed=seed)
            rows.append((s, xbar, t, value, grad))
        return rows

    return Job(key, run, lambda rows: checks.check_phase_line(rows, line))


def phase_lines(rng, root: Path) -> Workload:
    inputs = _Inputs(root)
    pairs = [(SPHERE, SIDE), (SPHERE, PLANE), (_concave_poly(rng, "concave_a"), SIDE),
             (_concave_poly(rng, "concave_b"), TOP)]
    jobs = []
    for ob, ph in pairs:
        paths = inputs.pair(ob, ph)
        for k in range(LINES_PER_PAIR):
            jobs.append(_line_job(f"line:{ob.name}/{ph.name}:{k}", paths, _phase_line(rng, ob, ph)))
    return Workload(jobs, inputs.pairs)


WORKLOADS = {"boundary-batch": boundary_batch, "grazing-report": grazing_report,
             "phase-lines": phase_lines}


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``root`` and return its round."""
    return WORKLOADS[name](np.random.default_rng([seed, sorted(WORKLOADS).index(name)]), root)
