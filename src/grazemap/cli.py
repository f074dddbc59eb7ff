"""Command-line front end: classify, trace, render, rfm-check, reflect.

Exit codes: 0 definite pass, 1 usage or spec error, 2 inconclusive verdict,
3 definite numerical failure.  All outputs are deterministic for a fixed
config and seed; CSV files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import grazing, reflection, svgplot
from .diffgeo import GrazemapError, _rowdot
from .specio import check_flags, parse_obstacle, parse_phase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAIL = 3

REFLECT_CHUNK = 4096  # candidate rows the reflect sampler draws at a time

# Exit code of each verdict classify and rfm-check report.
VERDICT_EXIT = {grazing.VERDICT_SMOOTH: EXIT_OK, grazing.VERDICT_C1: EXIT_OK,
                grazing.VERDICT_CUSP: EXIT_OK, grazing.VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
                "PASS": EXIT_OK, "FAIL": EXIT_FAIL}


class _Parser(argparse.ArgumentParser):
    # Spec'd exit-code convention: usage errors are 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    return repr(float(x))  # 'nan' and 'inf' for the non-finite values


def _write_csv(path: Path, cols, rows) -> None:
    """One header line of column names, then one line per row of fields."""
    lines = [",".join(cols)] + [",".join(fields) for fields in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grazemap",
                     description="Reflected flow maps and grazing sets for convex obstacles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--obstacle", required=True, help="obstacle spec file")
        p.add_argument("--phase", required=True, help="phase spec file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--s0", type=float, default=1.0, help="flow parameter bound")
        p.add_argument("--budget", type=int, default=1000, help="sample budget")
        p.add_argument("--window", type=float, default=0.3, help="tracing window half-width")
        p.add_argument("--tol", type=float, default=1e-10, help="trace tolerance")
        p.add_argument("--seed", type=int, default=42, help="sampling seed")
        p.add_argument("--format", choices=("csv", "svg", "both"), default=None)

    # main runs args.run.  The lambdas look their run_* function up at call
    # time, not once when the parser is built.
    for name, helptext, run in (
            ("classify", "grazing-set report", lambda a: run_classify(a)),
            ("trace", "trace the grazing curve to CSV", lambda a: run_trace(a)),
            ("render", "render the grazing curve to SVG",
             lambda a: run_trace(a, with_svg=True, with_sheet=a.sheet)),
            ("rfm-check", "verify the reflected flow map by sampling", lambda a: run_rfm_check(a)),
            ("reflect", "tabulate reflected covectors on a boundary grid",
             lambda a: run_reflect(a))):
        common(sub.add_parser(name, help=helptext))
        sub.choices[name].set_defaults(run=run)
    sub.choices["render"].add_argument("--sheet", action="store_true",
                                       help="overlay the shadow-boundary sheet projection")
    return parser


def _load(args):
    obstacle = parse_obstacle(args.obstacle)
    phase = parse_phase(args.phase, dim=obstacle.dim, obstacle=obstacle)
    check_flags(args.tol, args.window, args.s0, args.budget)
    return obstacle, phase


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_classify(args) -> int:
    obstacle, phase = _load(args)
    report = grazing.gs_assumption_report(obstacle, phase, window=args.window,
                                          trace_tol=args.tol)
    lines = [f"obstacle = {args.obstacle}", f"phase = {args.phase}",
             f"order = {report.order.describe()}"]
    lines.append(f"u1ww = {'PASS' if report.u1ww.passed else 'FAIL'}"
                 if report.u1ww is not None else "u1ww = n/a")
    if report.regularity is not None:
        lines.append(f"exponent = {_fmt(report.regularity.exponent)}")
        lines.append(f"coefficient = {_fmt(report.regularity.coefficient)}")
    for sc in report.slice_counts:
        lines.append(f"slice_counts[{_fmt(sc.x2_star)}] = {sc.count_pos} {sc.count_neg}")
    for note in report.notes:
        lines.append(f"note = {note}")
    lines.append(f"verdict = {report.verdict}")
    text = "\n".join(lines) + "\n"
    (_outdir(args) / "classify_report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return VERDICT_EXIT[report.verdict]


def run_trace(args, with_svg: bool = False, with_sheet: bool = False) -> int:
    obstacle, phase = _load(args)
    out = _outdir(args)
    fmt = args.format or ("svg" if with_svg else "csv")
    curve = None
    if args.window != 0.0:
        gf = grazing.grazing_function_for(obstacle, phase)
        curve = grazing.trace_grazing_curve(gf, obstacle, window=args.window, trace_tol=args.tol)
    if fmt in ("csv", "both"):
        cols = ["branch", "arc"] + [f"x{i + 2}" for i in range(obstacle.dim_tangential)]
        rows = [[str(branch.side), *map(repr, row)]
                for branch in (curve.branches if curve is not None else ())
                for row in np.column_stack((branch.arc_params, branch.vertices,
                                            branch.residuals)).tolist()]
        _write_csv(out / "trace.csv", cols + ["residual"], rows)
    if fmt in ("svg", "both"):
        sheet = None
        if with_sheet and curve is not None:
            sheet = grazing.shadow_boundary_flowout(obstacle, phase, curve,
                                                    s_range=(0.0, args.s0), n_s=2)
        svg = svgplot.curve_svg(curve, sheet=sheet) if curve is not None else \
            svgplot.SvgCanvas(window=args.window or 1.0).render()
        (out / "trace.svg").write_text(svg, encoding="utf-8")
    return EXIT_OK


def run_rfm_check(args) -> int:
    obstacle, phase = _load(args)
    verdict = reflection.verify_rfm(obstacle, phase, s0=args.s0, budget=args.budget,
                                    seed=args.seed)
    out = _outdir(args)
    cols = (["s"] + [f"x{i + 2}" for i in range(obstacle.dim_tangential)]
            + ["t", "mu", "j_analytic", "j_fd", "bound", "pass"])
    # The row fields are Python floats from tolist() and xbar a numpy row:
    # repr of each float is _fmt's text, without a call per field.
    _write_csv(out / "rfm.csv", cols,
               [[*map(repr, (s, *xb.tolist(), t, mu, ja, jf, bound)), str(int(ok))]
                for s, xb, t, mu, ja, jf, bound, ok in verdict.rows])
    sys.stdout.write(f"samples = {verdict.n_samples}\n")
    sys.stdout.write(f"illuminated = {verdict.n_illuminated}\n")
    sys.stdout.write(f"worst_bound_gap = {_fmt(verdict.worst_bound_gap)}\n")
    sys.stdout.write(f"worst_fd_rel_error = {_fmt(verdict.worst_fd_rel_error)}\n")
    if verdict.n_samples < args.budget:
        sys.stdout.write(f"note = drew {verdict.n_samples} of {args.budget} samples in "
                         f"{verdict.tries} tries (try cap reached)\n")
    summary = verdict.summary()
    sys.stdout.write(f"RFM {summary}\n")
    return VERDICT_EXIT[summary]


def run_reflect(args) -> int:
    obstacle, phase = _load(args)
    out = _outdir(args)
    dim_t = obstacle.dim_tangential
    rng = np.random.default_rng(args.seed)
    # Rows of one (k, d) draw are the draws of k single-point calls, in order;
    # the radius test uses np.linalg.norm's arithmetic on each row.
    chunks, n = [], 0
    while n < args.budget:
        xb = rng.uniform(-obstacle.radius, obstacle.radius, size=(REFLECT_CHUNK, dim_t))
        xb = xb[np.sqrt(_rowdot(xb, xb)) <= obstacle.radius][:args.budget - n]
        chunks.append(xb)
        n += len(xb)
    pts = np.concatenate(chunks)
    cols = ([f"x{i + 2}" for i in range(dim_t)] + ["mu", "label", "xi1_i"]
            + [f"xibar_i{i + 2}" for i in range(dim_t)] + ["xi1_r"]
            + [f"xibar_r{i + 2}" for i in range(dim_t)])
    cls = reflection.classify_boundary_point(obstacle, phase, pts)
    xi, xr = cls.incoming, cls.reflected
    # repr of a Python float from tolist() is _fmt's text, without a call per field.
    head = np.column_stack((pts, cls.margin)).tolist()
    tail = np.column_stack((xi.xi1, xi.xibar, xr.xi1, xr.xibar)).tolist()
    rows = [[*map(repr, a), label, *map(repr, b)]
            for a, label, b in zip(head, cls.label.tolist(), tail)]
    _write_csv(out / "reflect.csv", cols, rows)
    return EXIT_OK


# Built on the first call, not at import; parse_args leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except GrazemapError as exc:
        label = "numerical failure" if exc.exit_code == EXIT_FAIL else "error"
        sys.stderr.write(f"{label}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
