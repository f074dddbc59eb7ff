"""Checkers for every job kind.  Each returns a list of problems; empty means the job passed.

The expected values come from ``oracle`` (closed forms and complex-step
derivatives computed from the benchmark's own obstacle and phase
descriptions), never from a stored copy of an earlier run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

GRAZING_TOL = 1e-10            # the documented illuminated/grazing/shadow split
CUSP_BIN = (0.60, 0.73)        # the documented exponent bins of `classify`
C1_BIN = (1.26, 1.41)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out: Path


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _report(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out.setdefault(key, value)
    return out


def _worst(problems: list, label: str, err, tol: float) -> None:
    err = np.asarray(err, dtype=float)
    if err.size and not float(np.max(err)) <= tol:
        problems.append(f"{label}: worst {float(np.max(err)):.3e} > {tol:.0e} "
                        f"on {int(np.sum(~(err <= tol)))} rows")


# ---------------------------------------------------------------------------
# boundary-batch
# ---------------------------------------------------------------------------

def check_rfm(res: CliResult, ob: oracle.ObstacleSpec, ph: oracle.PhaseSpec,
              budget: int, s0: float) -> list[str]:
    """`rfm-check`: PASS, one row per sample, the 2*mu bound, the margin and the Jacobian."""
    problems = []
    last = res.stdout.strip().splitlines()[-1:] or [""]
    if res.code != 0 or last[0] != "RFM PASS":
        return [f"exit {res.code}, last line {last[0]!r}, stderr {res.stderr.strip()[:200]!r}"]
    cols, rows = _read_csv(res.out / "rfm.csv")
    if cols != ["s", "x2", "x3", "t", "mu", "j_analytic", "j_fd", "bound", "pass"]:
        return [f"rfm.csv header {cols}"]
    if len(rows) != budget or _report(res.stdout).get("samples") != str(budget):
        return [f"{len(rows)} rfm.csv rows for budget {budget}"]
    a = np.array([[float(v) for v in r] for r in rows])
    s, xb, mu, ja = a[:, 0], a[:, 1:3], a[:, 4], a[:, 5]
    if not (np.all((s >= 0.0) & (s <= s0)) and np.all(np.hypot(xb[:, 0], xb[:, 1]) <= ob.radius)):
        problems.append("sample outside [0, s0] x domain")
    if not np.all(a[:, 8] == 1.0):
        problems.append(f"{int(np.sum(a[:, 8] != 1.0))} rows not marked pass")
    _worst(problems, "mu vs oracle margin", np.abs(mu - oracle.margin(ob, ph, xb)), 1e-12)
    lit = ~np.isnan(ja)
    if not np.array_equal(lit, mu > GRAZING_TOL):
        problems.append("j_analytic present on a row that is not illuminated, or missing")
    gap = 2.0 * mu[lit] - ja[lit]
    if gap.size and not float(np.max(gap)) <= 1e-9:
        problems.append(f"j_analytic below 2*mu by {float(np.max(gap)):.3e}")
    # Below mu = 1e-3 the program's differenced d xi_r carries an absolute
    # error near 1e-10, which a relative comparison would magnify past 1e-6.
    sel = lit & (mu >= 1e-3)
    jo = oracle.flow_jacobian_det(ob, ph, s[sel], xb[sel])
    _worst(problems, "j_analytic vs complex-step det",
           np.abs(ja[sel] - jo) / np.maximum(np.abs(ja[sel]), np.abs(jo)), 1e-6)
    return problems


def check_reflect(res: CliResult, ob: oracle.ObstacleSpec, ph: oracle.PhaseSpec,
                  budget: int) -> list[str]:
    """`reflect`: unit xi_r, reflection law, the incoming field and the labels."""
    if res.code != 0:
        return [f"exit {res.code}, stderr {res.stderr.strip()[:200]!r}"]
    cols, rows = _read_csv(res.out / "reflect.csv")
    if cols[:4] != ["x2", "x3", "mu", "label"] or len(cols) != 10:
        return [f"reflect.csv header {cols}"]
    if len(rows) != budget:
        return [f"{len(rows)} reflect.csv rows for budget {budget}"]
    problems = []
    labels = [r[3] for r in rows]
    a = np.array([[float(v) for i, v in enumerate(r) if i != 3] for r in rows])
    xb, mu, xi, xr = a[:, 0:2], a[:, 2], a[:, 3:6], a[:, 6:9]
    g = ob.gradient(xb)
    if not np.all(np.hypot(xb[:, 0], xb[:, 1]) <= ob.radius):
        problems.append("point outside the domain")
    _worst(problems, "|xi_r| - 1", np.abs(np.linalg.norm(xr, axis=1) - 1.0), 1e-12)
    _worst(problems, "tangential part xi1 grad F + xibar kept",
           np.max(np.abs((xi[:, :1] * g + xi[:, 1:]) - (xr[:, :1] * g + xr[:, 1:])), axis=1),
           1e-12)
    _worst(problems, "conormal part flipped",
           np.abs((xr[:, 0] - np.sum(g * xr[:, 1:], axis=1))
                  + (xi[:, 0] - np.sum(g * xi[:, 1:], axis=1))), 1e-12)
    _worst(problems, "xi_i vs oracle field",
           np.max(np.abs(xi - oracle.incoming(ob, ph, xb)), axis=1), 1e-12)
    own = oracle.margin(ob, ph, xb)
    _worst(problems, "mu vs oracle margin", np.abs(mu - own), 1e-12)
    want = np.where(own > GRAZING_TOL, "illuminated",
                    np.where(own < -GRAZING_TOL, "shadow", "grazing"))
    clear = np.abs(np.abs(own) - GRAZING_TOL) > 1e-12
    bad = sum(1 for lab, w, c in zip(labels, want, clear) if c and lab != w)
    if bad:
        problems.append(f"{bad} labels disagree with the sign of the oracle margin")
    return problems


# ---------------------------------------------------------------------------
# grazing-report
# ---------------------------------------------------------------------------

@dataclass
class ClassifyCase:
    """What a `classify` job must report for one obstacle/phase pair."""

    ob: oracle.ObstacleSpec
    ph: oracle.PhaseSpec
    verdict: str
    exponent_bin: tuple | None = None
    coefficient: float | None = None
    slices: bool = True


def expected_order(ob: oracle.ObstacleSpec, ph: oracle.PhaseSpec) -> str:
    """The `order = ` line, from the first nonzero directional Taylor coefficient."""
    xi_apex = oracle.incoming(ob, ph, np.zeros(2))
    order, lead = oracle.tangency_order(ob, xi_apex[1:])
    if lead is None:
        return f"order >= {order} (treated as infinite)"
    if order % 2:
        return f"{order} inflection"
    return f"{order} {'diffractive' if lead < 0.0 else 'gliding'}"


def expected_u1ww(ob: oracle.ObstacleSpec) -> str:
    if ob.kind == "flat":
        return "n/a"
    return "PASS" if oracle.leading_hessian_min_eig(ob) > 1e-9 else "FAIL"


def check_classify(res: CliResult, case: ClassifyCase) -> list[str]:
    rep = _report(res.stdout)
    problems = []
    saved = (res.out / "classify_report.txt")
    if not saved.is_file() or saved.read_text(encoding="utf-8") != res.stdout:
        problems.append("classify_report.txt differs from the printed report")
    want_code = 2 if case.verdict == "INCONCLUSIVE" else 0
    if res.code != want_code or rep.get("verdict") != case.verdict:
        problems.append(f"verdict {rep.get('verdict')!r} exit {res.code}, "
                        f"expected {case.verdict!r} exit {want_code}")
    if rep.get("order") != expected_order(case.ob, case.ph):
        problems.append(f"order {rep.get('order')!r}, expected {expected_order(case.ob, case.ph)!r}")
    if rep.get("u1ww") != expected_u1ww(case.ob):
        problems.append(f"u1ww {rep.get('u1ww')!r}, expected {expected_u1ww(case.ob)!r}")
    if case.exponent_bin is not None:
        try:
            exponent = float(rep["exponent"])
            coefficient = float(rep["coefficient"])
        except (KeyError, ValueError):
            return problems + ["no exponent/coefficient reported"]
        lo, hi = case.exponent_bin
        if not lo <= exponent <= hi:
            problems.append(f"exponent {exponent:.4f} outside [{lo}, {hi}]")
        if not abs(coefficient - case.coefficient) <= 0.05 * abs(case.coefficient):
            problems.append(f"coefficient {coefficient:.5f}, closed form {case.coefficient:.5f}")
    slices = {k: v for k, v in rep.items() if k.startswith("slice_counts[")}
    if case.slices and list(slices.values()) != ["1 1"]:
        problems.append(f"slice counts {slices}, expected one slice with '1 1'")
    if not case.slices and slices:
        problems.append(f"unexpected slice counts {slices}")
    return problems


def check_render(res: CliResult, ob: oracle.ObstacleSpec, bbar, twin: Path | None = None,
                 closed_form=None) -> list[str]:
    """`render --sheet --format both`: vertices on the grazing set, SVG shape, determinism."""
    if res.code != 0:
        return [f"exit {res.code}, stderr {res.stderr.strip()[:200]!r}"]
    cols, rows = _read_csv(res.out / "trace.csv")
    if cols != ["branch", "arc", "x2", "x3", "residual"]:
        return [f"trace.csv header {cols}"]
    problems = []
    a = np.array([[float(v) for v in r] for r in rows]) if rows else np.zeros((0, 5))
    if len(a) < 40 or set(a[:, 0]) != {1.0, -1.0}:
        return [f"{len(a)} vertices on branches {sorted(set(a[:, 0]))}"]
    verts = a[:, 2:4]
    _worst(problems, "|H| at trace vertex", np.abs(oracle.grazing_h(ob, bbar, verts)), 1e-9)
    if closed_form is not None:
        mask, expected = closed_form(verts)
        _worst(problems, "deviation from the closed-form curve",
               np.abs(verts[mask, 1] - expected), 1e-8)
    svg = (res.out / "trace.svg").read_text(encoding="utf-8")
    n_lines = svg.count("<polyline ")
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")) or n_lines != len(a) + 2:
        problems.append(f"trace.svg has {n_lines} polylines, expected {len(a)} sheet rays + 2 branches")
    if twin is not None and (twin / "trace.csv").read_bytes() != (res.out / "trace.csv").read_bytes():
        problems.append("trace.csv differs from the twin render of the same pair")
    return problems


def cusp_top_curve(verts):
    """The grazing curve of 1 - x2^4 - x3^2 for the source (1, 0, 1): x3 = 1 - sqrt(1 - 3 x2^4)."""
    mask = np.abs(verts[:, 0]) <= 0.2
    return mask, 1.0 - np.sqrt(1.0 - 3.0 * verts[mask, 0] ** 4)


# ---------------------------------------------------------------------------
# phase-lines
# ---------------------------------------------------------------------------

@dataclass
class PhaseLine:
    """Targets y_k on one spacetime line and the (s, xbar, t) each was generated from."""

    ob: oracle.ObstacleSpec
    ph: oracle.PhaseSpec
    targets: np.ndarray     # (k, 4): y1, y2, y3, t'
    pre_s: np.ndarray       # (k,)
    pre_x: np.ndarray       # (k, 2)
    pre_t: np.ndarray       # (k,)


def check_phase_line(rows, line: PhaseLine) -> list[str]:
    """Recovered points to 1e-8; the phase value and gradient to 1e-10."""
    if len(rows) != len(line.targets):
        return [f"{len(rows)} results for {len(line.targets)} targets"]
    s = np.array([r[0] for r in rows])
    xb = np.array([r[1] for r in rows])
    t = np.array([r[2] for r in rows])
    value = np.array([r[3] for r in rows])
    grad = np.array([r[4] for r in rows])
    problems = []
    _worst(problems, "recovered (s, xbar, t)",
           np.max(np.abs(np.column_stack([s - line.pre_s, xb - line.pre_x, t - line.pre_t])),
                  axis=1), 1e-8)
    own_value = -line.pre_t + line.ph.psi(oracle.boundary_point(line.ob, line.pre_x))
    _worst(problems, "phase value", np.abs(value - own_value), 1e-10)
    own_grad = np.column_stack([oracle.reflected(line.ob, line.ph, line.pre_x),
                                -np.ones(len(rows))])
    _worst(problems, "phase gradient", np.max(np.abs(grad - own_grad), axis=1), 1e-10)
    return problems


def closed_form_cusp(a: float, c: float) -> float:
    """Leading coefficient of x2 ~ -(c/4a)^(1/3) |x3|^(2/3) for 1 - a x2^4 - c x3^2."""
    return -(c / (4.0 * a)) ** (1.0 / 3.0)


def closed_form_c1(a: float, c: float) -> float:
    """Leading coefficient of x2 ~ -(3c/4a)^(1/3) |x3|^(4/3) for 1 - a x2^4 - c x3^4."""
    return -(3.0 * c / (4.0 * a)) ** (1.0 / 3.0)

