import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grazemap
from grazemap import cli, reflection
from grazemap.cli import main

from conftest import nan_above_phase

CUSP_OBSTACLE = ("dim = 3\nkind = polynomial\nradius = 1.0\n"
                 "term = 1 0 0\nterm = -1 4 0\nterm = -1 0 2\n")
ROUNDED_OBSTACLE = ("dim = 3\nkind = polynomial\nradius = 1.0\n"
                    "term = 1 0 0\nterm = -1 4 0\nterm = -1 2 2\nterm = -1 0 4\n")
SPHERE_OBSTACLE = "dim = 3\nkind = builtin\nname = sphere\nradius = 0.5\n"
SIDE_SOURCE = "kind = spherical\nb = 1 -1 0\n"
PLANE_PHASE = "kind = plane\ntheta = 0 1 0\n"


@pytest.fixture
def specs(tmp_path):
    files = {}
    for name, text in (("cusp.obstacle", CUSP_OBSTACLE), ("rounded.obstacle", ROUNDED_OBSTACLE),
                       ("sphere.obstacle", SPHERE_OBSTACLE), ("side.phase", SIDE_SOURCE),
                       ("plane.phase", PLANE_PHASE)):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        files[name] = str(p)
    return files


def test_classify_cusp(specs, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["classify", "--obstacle", specs["cusp.obstacle"],
                 "--phase", specs["side.phase"], "--out", str(out)])
    assert code == 0
    report = (out / "classify_report.txt").read_text()
    assert "order = 4 diffractive" in report
    assert "verdict = GS-FAILS-CUSP-EVIDENCE" in report


def test_classify_sphere(specs, tmp_path):
    out = tmp_path / "out"
    code = main(["classify", "--obstacle", specs["sphere.obstacle"],
                 "--phase", specs["side.phase"], "--out", str(out)])
    assert code == 0
    report = (out / "classify_report.txt").read_text()
    assert "order = 2 diffractive" in report
    assert "verdict = GS-HOLDS-SMOOTH" in report


TOP_SOURCE = "kind = spherical\nb = 1 0 1\n"


@pytest.mark.parametrize("obstacle,phase,verdict", [
    # The graph fit of the x2^4 curve is analytic once its seed is polished.
    (CUSP_OBSTACLE, TOP_SOURCE, "GS-HOLDS-C1-EVIDENCE"),
    # The grazing line x2 = 0 leaves no graph values to fit; the exact
    # Hessian-positivity check still decides.
    (SPHERE_OBSTACLE, PLANE_PHASE, "GS-HOLDS-SMOOTH"),
], ids=["cusp-top", "sphere-plane"])
def test_classify_definite_verdicts(tmp_path, capsys, obstacle, phase, verdict):
    (tmp_path / "o.obstacle").write_text(obstacle, encoding="utf-8")
    (tmp_path / "p.phase").write_text(phase, encoding="utf-8")
    code = main(["classify", "--obstacle", str(tmp_path / "o.obstacle"),
                 "--phase", str(tmp_path / "p.phase"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"verdict = {verdict}"


def test_classify_sphere_plane_names_the_fit_failure(specs, tmp_path, capsys):
    # The trace succeeds (the line x2 = 0); the regularity fit has no nonzero
    # graph values to fit, and the verdict still rests on Hessian positivity.
    code = main(["classify", "--obstacle", specs["sphere.obstacle"],
                 "--phase", specs["plane.phase"], "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "note = regularity fit failed: branch 1: 0 vertices in window, need 20" in lines
    assert not any("tracing failed" in line for line in lines)
    assert lines[-1] == "verdict = GS-HOLDS-SMOOTH"


def test_classify_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.obstacle"
    bad.write_text("dim = 3\nkind = polynomial\nterm = oops\n", encoding="utf-8")
    phase = tmp_path / "p.phase"
    phase.write_text(SIDE_SOURCE, encoding="utf-8")
    code = main(["classify", "--obstacle", str(bad), "--phase", str(phase),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.obstacle:3" in err


def test_trace_csv_and_determinism(specs, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["trace", "--obstacle", specs["cusp.obstacle"], "--phase", specs["side.phase"],
            "--window", "0.3", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "trace.csv").read_bytes()
    b2 = (out2 / "trace.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "branch,arc,x2,x3,residual"
    assert len(b1.decode().splitlines()) > 100


def test_trace_window_zero_empty_csv(specs, tmp_path):
    out = tmp_path / "o"
    assert main(["trace", "--obstacle", specs["cusp.obstacle"], "--phase",
                 specs["side.phase"], "--window", "0", "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text().strip() == "branch,arc,x2,x3,residual"


def test_render_svg(specs, tmp_path):
    out = tmp_path / "o"
    code = main(["render", "--obstacle", specs["cusp.obstacle"], "--phase",
                 specs["side.phase"], "--out", str(out), "--sheet"])
    assert code == 0
    svg = (out / "trace.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "window = 0.3" in svg
    code = main(["render", "--obstacle", specs["cusp.obstacle"], "--phase",
                 specs["side.phase"], "--out", str(out), "--format", "both"])
    assert code == 0
    assert (out / "trace.csv").exists()


def test_rfm_check_pass(specs, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "200", "--s0", "1.0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.strip().endswith("RFM PASS")
    assert "note = " not in stdout  # the draw met its budget
    lines = (out / "rfm.csv").read_text().splitlines()
    assert lines[0] == "s,x2,x3,t,mu,j_analytic,j_fd,bound,pass"
    assert len(lines) == 201


def test_rfm_check_short_draw_says_so(tmp_path, capsys):
    # At dim = 10 about 0.64 % of the cube's candidates lie in the disk and
    # fewer still are lit, below the 0.5 % that 200 tries per sample need:
    # the draw stops at its try cap.  The verdict and exit code stand, and a
    # note says the budget was not met.
    obstacle = tmp_path / "sphere10.obstacle"
    obstacle.write_text("dim = 10\nkind = builtin\nname = sphere\nradius = 0.5\n",
                        encoding="utf-8")
    phase = tmp_path / "side10.phase"
    phase.write_text("kind = spherical\nb = 1 -1" + " 0" * 8 + "\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["rfm-check", "--obstacle", str(obstacle), "--phase", str(phase),
                 "--budget", "20", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "samples = 6"
    assert lines[-2:] == ["note = drew 6 of 20 samples in 4000 tries (try cap reached)",
                          "RFM PASS"]
    assert len((out / "rfm.csv").read_text().splitlines()) == 7


def test_rfm_check_sample_near_domain_edge(specs, tmp_path, capsys):
    # This seed draws a sample within two difference steps of the domain edge
    # (the sphere spec's radius is 0.5).
    out = tmp_path / "o"
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "100", "--s0", "1.0",
                 "--seed", "726285599", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("RFM PASS")
    rows = [line.split(",") for line in (out / "rfm.csv").read_text().splitlines()[1:]]
    edge = max(math.hypot(float(row[1]), float(row[2])) for row in rows)
    assert edge > 0.5 - 2 * reflection.FD_STEP


def test_rfm_check_plane_wave(specs, tmp_path, capsys):
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["plane.phase"], "--budget", "200", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("RFM PASS")


@pytest.mark.parametrize("source", ["1 0 0", "0.5 0 0"], ids=["apex", "inside"])
def test_rfm_check_source_not_outside_obstacle_is_spec_error(specs, tmp_path, capsys, source):
    phase = tmp_path / "bad.phase"
    phase.write_text(f"kind = spherical\nb = {source}\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase", str(phase),
                 "--budget", "20", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"{phase}:2: source '{source}' is not outside the obstacle" in captured.err
    assert "RFM" not in captured.out
    assert not (out / "rfm.csv").exists()


def test_rfm_check_unlit_obstacle_is_inconclusive(specs, tmp_path, capsys):
    # A plane wave travelling up, away from the cap, lights no boundary point.
    phase = tmp_path / "up.phase"
    phase.write_text("kind = plane\ntheta = 1 0 0\n", encoding="utf-8")
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase", str(phase),
                 "--budget", "20", "--out", str(tmp_path / "o")])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "samples = 0"
    assert lines[-2:] == ["note = drew 0 of 20 samples in 4000 tries (try cap reached)",
                          "RFM INCONCLUSIVE"]


def test_rfm_check_nan_margin_exits_3(specs, tmp_path, capsys, monkeypatch):
    # A phase whose margin is NaN on part of the boundary is a numerical
    # failure with one line-anchored message, not a PASS that skipped it.
    monkeypatch.setattr(cli, "parse_phase", lambda *args, **kwargs: nan_above_phase())
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "300", "--seed", "1",
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: tangency margin is nan at xbar=[")
    assert "Traceback" not in captured.err


def test_rfm_check_invalid_budget(specs, tmp_path, capsys):
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "InvalidBudget" in capsys.readouterr().err


@pytest.mark.parametrize("command, budget", [("reflect", "0"), ("reflect", "-3"),
                                             ("trace", "0")])
def test_non_positive_budget_is_flag_error(specs, tmp_path, capsys, command, budget):
    out = tmp_path / "o"
    code = main([command, "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", budget, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "<flags>:0:" in err and "InvalidBudget" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rfm-check", "reflect"])
def test_budget_above_max_budget_is_flag_error(specs, tmp_path, capsys, command):
    # 10**6 + 1 is refused before anything is drawn or written.
    out = tmp_path / "o"
    code = main([command, "--obstacle", specs["sphere.obstacle"], "--phase", specs["side.phase"],
                 "--budget", str(reflection.MAX_BUDGET + 1), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: <flags>:0: InvalidBudget: --budget must be at most 1000000\n"
    assert not out.exists()


@pytest.mark.parametrize("center", ["1 0 0", "0.5 0 0"], ids=["apex", "inside"])
def test_convex_distance_center_not_outside_obstacle_is_spec_error(specs, tmp_path, capsys,
                                                                   center):
    phase = tmp_path / "bad.phase"
    phase.write_text(f"kind = convex-distance\ncenter = {center}\nradius = 2\n",
                     encoding="utf-8")
    code = main(["classify", "--obstacle", specs["sphere.obstacle"], "--phase", str(phase),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{phase}:2: center '{center}' is not outside the obstacle" in err
    assert "Traceback" not in err
    # The benchmark's center (1, -1, 0) lies outside the cap and stays valid.
    phase.write_text("kind = convex-distance\ncenter = 1 -1 0\nradius = 2\n",
                     encoding="utf-8")
    obstacle = grazemap.parse_obstacle(specs["sphere.obstacle"])
    assert isinstance(grazemap.parse_phase(str(phase), obstacle=obstacle), grazemap.ConvexPhase)


def test_every_library_exception_carries_an_exit_code():
    found = {}
    for info in pkgutil.iter_modules(grazemap.__path__):
        module = importlib.import_module(f"grazemap.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[name] = cls
    assert len(found) == 21  # GrazemapError and its 20 subclasses
    for name, cls in found.items():
        assert issubclass(cls, grazemap.GrazemapError), name
        assert cls.exit_code in (1, 3), name
    assert {name for name, cls in found.items() if cls.exit_code == 3} == {
        "SeedNotFound", "StepCollapse", "InsufficientPoints", "SliceMiss", "NoConvergence",
        "GrazingSingular", "NonFiniteMargin"}


@pytest.mark.parametrize("exc, code, label", [
    (grazemap.grazing.NotHomogeneous, 1, "error"),
    (grazemap.grazing.SeedNotFound, 3, "numerical failure"),
], ids=["NotHomogeneous", "SeedNotFound"])
def test_library_error_in_command_exits_with_its_code(specs, tmp_path, capsys, monkeypatch,
                                                      exc, code, label):
    def failing(args):
        raise exc("raised inside the command")

    monkeypatch.setattr(cli, "run_classify", failing)
    assert main(["classify", "--obstacle", specs["cusp.obstacle"], "--phase",
                 specs["side.phase"], "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith(f"{label}: ")


def test_reflect_csv(specs, tmp_path):
    out = tmp_path / "o"
    code = main(["reflect", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "50", "--out", str(out)])
    assert code == 0
    lines = (out / "reflect.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["x2", "x3", "mu", "label"]
    assert len(lines) == 51


@pytest.mark.parametrize("command, kind, text, line", [
    ("classify", "obstacle", SPHERE_OBSTACLE.replace("radius = 0.5", "radius = nan"), 4),
    ("classify", "obstacle", CUSP_OBSTACLE.replace("term = -1 4 0", "term = nan 4 0"), 5),
    ("reflect", "phase", "kind = spherical\nb = inf -1 0\n", 2),
    ("reflect", "obstacle", SPHERE_OBSTACLE.replace("radius = 0.5", "radius = 1e200"), 4),
], ids=["radius", "term", "source", "radius-squared"])
def test_non_finite_spec_number_is_spec_error(specs, tmp_path, capsys, command, kind, text, line):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    files = {"obstacle": specs["sphere.obstacle"], "phase": specs["side.phase"], kind: str(bad)}
    code = main([command, "--obstacle", files["obstacle"], "--phase", files["phase"],
                 "--budget", "10", "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{bad}:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("rfm-check", "--s0"), ("classify", "--window"),
                                           ("classify", "--tol")])
def test_non_finite_flag_is_usage_error(specs, tmp_path, capsys, command, flag):
    code = main([command, "--obstacle", specs["cusp.obstacle"], "--phase", specs["side.phase"],
                 "--budget", "10", flag, "nan", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "<flags>:0:" in capsys.readouterr().err


def test_unknown_flag_is_hard_error(specs, tmp_path):
    code = main(["trace", "--obstacle", specs["cusp.obstacle"], "--phase",
                 specs["side.phase"], "--no-such-flag"])
    assert code == 1


def test_parser_reuse_carries_no_flag_between_calls(specs, tmp_path, capsys):
    # main builds its parser once per process; every call parses from its defaults.
    common = ["--obstacle", specs["sphere.obstacle"], "--phase", specs["side.phase"]]
    assert main(["render", "--sheet", "--format", "svg", "--window", "0.1", *common,
                 "--out", str(tmp_path / "r")]) == 0
    assert main(["trace", *common, "--out", str(tmp_path / "t")]) == 0
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["trace.svg"]
    assert [p.name for p in (tmp_path / "t").iterdir()] == ["trace.csv"]
    rows = (tmp_path / "t" / "trace.csv").read_text().splitlines()[1:]
    assert max(abs(float(v)) for row in rows for v in row.split(",")[2:4]) > 0.1  # window 0.3
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: grazemap ")


def test_console_entry_point_help():
    # The child imports grazemap from wherever this process did, installed or not.
    src = str(Path(grazemap.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "grazemap.cli", "trace", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for flag in ("--obstacle", "--phase", "--out", "--s0", "--budget", "--window",
                 "--tol", "--seed", "--format"):
        assert flag in proc.stdout


def test_singular_lambda_is_spec_error(tmp_path, capsys):
    obstacle = tmp_path / "singular.obstacle"
    obstacle.write_text("dim = 3\nkind = symmetric-h\nradius = 0.5\nlambda = 1 1 1 1\n"
                        "hcoeffs = 1\n", encoding="utf-8")
    phase = tmp_path / "side.phase"
    phase.write_text(SIDE_SOURCE, encoding="utf-8")
    code = main(["classify", "--obstacle", str(obstacle), "--phase", str(phase),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {obstacle}:4: lambda matrix is singular\n"


def test_rfm_csv_writes_nan_where_the_fd_jacobian_is_skipped(specs, tmp_path):
    # On the cusp under the plane wave the margin -4 x2^3 is below
    # FD_MARGIN_FLOOR on a band around x2 = 0.
    out = tmp_path / "o"
    main(["rfm-check", "--obstacle", specs["cusp.obstacle"], "--phase", specs["plane.phase"],
          "--budget", "200", "--out", str(out)])
    lines = (out / "rfm.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    skipped = [row for row in rows if float(row["mu"]) < reflection.FD_MARGIN_FLOOR]
    assert skipped and all(row["j_fd"] == "nan" for row in skipped)
    assert all(row["j_fd"] != "nan" for row in rows if row not in skipped)


def test_rfm_check_unlit_reports_infinite_bound_gap(specs, tmp_path, capsys):
    phase = tmp_path / "up.phase"
    phase.write_text("kind = plane\ntheta = 1 0 0\n", encoding="utf-8")
    out = tmp_path / "o"
    main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase", str(phase),
          "--budget", "20", "--out", str(out)])
    assert capsys.readouterr().out.splitlines() == [
        "samples = 0", "illuminated = 0", "worst_bound_gap = inf", "worst_fd_rel_error = 0.0",
        "note = drew 0 of 20 samples in 4000 tries (try cap reached)", "RFM INCONCLUSIVE"]
    assert (out / "rfm.csv").read_text() == "s,x2,x3,t,mu,j_analytic,j_fd,bound,pass\n"


@pytest.mark.parametrize("command", ["trace", "render"])
@pytest.mark.parametrize("obstacle, phase", [
    (CUSP_OBSTACLE, "kind = spherical\nb = 1.5 -1 0\n"),
    (CUSP_OBSTACLE, "kind = plane\ntheta = 0.6 0.8 0\n"),
    (SPHERE_OBSTACLE, "kind = spherical\nb = 2 0 0\n"),
], ids=["cusp-high-source", "cusp-tilted-plane", "sphere-source-above"])
def test_phase_not_grazing_the_apex_is_an_error(tmp_path, capsys, command, obstacle, phase):
    # The spherical and planar grazing functions hold only for such phases.
    (tmp_path / "o.obstacle").write_text(obstacle, encoding="utf-8")
    (tmp_path / "p.phase").write_text(phase, encoding="utf-8")
    assert main([command, "--obstacle", str(tmp_path / "o.obstacle"), "--phase",
                 str(tmp_path / "p.phase"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: xi1 at the apex is ")
    assert err.endswith(": phase does not graze there\n")


@pytest.mark.parametrize("kind, text, line", [
    ("obstacle", SPHERE_OBSTACLE.replace("radius", "raduis"), 4),
    ("phase", SIDE_SOURCE + "theta = 0 1 0\n", 3),
], ids=["obstacle-typo", "phase-foreign-key"])
def test_unknown_spec_key_is_spec_error(specs, tmp_path, capsys, kind, text, line):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    files = {"obstacle": specs["sphere.obstacle"], "phase": specs["side.phase"], kind: str(bad)}
    code = main(["rfm-check", "--obstacle", files["obstacle"], "--phase", files["phase"],
                 "--budget", "20", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: unknown key ")


def test_trace_window_without_sign_change_is_seed_not_found(specs, tmp_path, capsys):
    code = main(["trace", "--obstacle", specs["cusp.obstacle"], "--phase", specs["side.phase"],
                 "--window", "1e-4", "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: no sign change")


@pytest.mark.parametrize("command, obstacle, phase, message", [
    ("render", "dim = 2\nkind = polynomial\nterm = 1 0\nterm = -1 2\n",
     "kind = spherical\nb = 1 -1\n", "curve tracing requires a 3D obstacle"),
    ("trace", SPHERE_OBSTACLE, "kind = convex-distance\ncenter = 1 -1 0\nradius = 2\n",
     "no closed-form grazing function"),
], ids=["render-2d-obstacle", "trace-convex-distance"])
def test_unsupported_surface_exits_1(tmp_path, capsys, command, obstacle, phase, message):
    (tmp_path / "o.obstacle").write_text(obstacle, encoding="utf-8")
    (tmp_path / "p.phase").write_text(phase, encoding="utf-8")
    assert main([command, "--obstacle", str(tmp_path / "o.obstacle"), "--phase",
                 str(tmp_path / "p.phase"), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_non_utf8_spec_is_spec_error(specs, tmp_path, capsys):
    bad = tmp_path / "bad.obstacle"
    bad.write_bytes(b"dim = 3\nkind = builtin\nname = sphere\nradius = 0.5  # caf\xff\n")
    code = main(["classify", "--obstacle", str(bad), "--phase", specs["side.phase"],
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:4: byte 0xff is not valid UTF-8\n"


SPECS = Path(__file__).resolve().parents[1] / "specs"
CUBIC_OBSTACLE = "dim = 3\nkind = polynomial\nterm = 1 0 0\nterm = -1 3 0\nterm = -1 0 2\n"


@pytest.mark.parametrize("obstacle, phase, flags, code, lines", [
    (CUBIC_OBSTACLE, "kind = spherical\nb = 1 1 0\n", [], 2,
     ["order = 3 inflection", "verdict = INCONCLUSIVE"]),
    (CUSP_OBSTACLE, SIDE_SOURCE, ["--window", "1e-4"], 2,
     ["note = tracing failed: no sign change at transverse offset 0.001 in window 0.0001",
      "verdict = INCONCLUSIVE"]),
    # The grazing curve of this source is a small closed loop; at the default
    # window its continuation never leaves the window and runs to its step cap.
    (ROUNDED_OBSTACLE, "kind = spherical\nb = 1 -0.05 0\n", ["--window", "0.02"], 0,
     ["note = slice at -0.05 skipped: slice plane does not re-enter the window on the far side",
      "verdict = GS-HOLDS-SMOOTH"]),
    ((SPECS / "flat_profile.obstacle").read_text(encoding="utf-8"), SIDE_SOURCE, [], 0,
     ["order = order >= 16 (treated as infinite)", "verdict = GS-HOLDS-SMOOTH"]),
], ids=["inflection", "tracing-failed", "slice-skipped", "infinite-order"])
def test_classify_reports_each_verdict_path(tmp_path, capsys, obstacle, phase, flags, code, lines):
    (tmp_path / "o.obstacle").write_text(obstacle, encoding="utf-8")
    (tmp_path / "p.phase").write_text(phase, encoding="utf-8")
    assert main(["classify", "--obstacle", str(tmp_path / "o.obstacle"), "--phase",
                 str(tmp_path / "p.phase"), "--out", str(tmp_path / "o")] + flags) == code
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)
    assert out[-1] == lines[-1]


def test_trace_step_collapse_is_numerical_failure(specs, tmp_path, capsys):
    phase = tmp_path / "p.phase"
    phase.write_text("kind = spherical\nb = 1 -0.2 0\n", encoding="utf-8")
    code = main(["trace", "--obstacle", specs["cusp.obstacle"], "--phase", str(phase),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: correction failed below minimum step near ")
