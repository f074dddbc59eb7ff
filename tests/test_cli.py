import os
import subprocess
import sys
from pathlib import Path

import pytest

import grazemap
from grazemap.cli import main

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
    lines = (out / "rfm.csv").read_text().splitlines()
    assert lines[0] == "s,x2,x3,t,mu,j_analytic,j_fd,bound,pass"
    assert len(lines) == 201


def test_rfm_check_sample_near_domain_edge(specs, tmp_path, capsys):
    # This seed draws a sample within the difference step of the domain edge.
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "100", "--s0", "1.0",
                 "--seed", "726285599", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("RFM PASS")


def test_rfm_check_plane_wave(specs, tmp_path, capsys):
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["plane.phase"], "--budget", "200", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("RFM PASS")


def test_rfm_check_invalid_budget(specs, tmp_path, capsys):
    code = main(["rfm-check", "--obstacle", specs["sphere.obstacle"], "--phase",
                 specs["side.phase"], "--budget", "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "InvalidBudget" in capsys.readouterr().err


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
], ids=["radius", "term", "source"])
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
