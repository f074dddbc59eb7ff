import math
import re
from pathlib import Path

import numpy as np
import pytest

import grazemap as gm
from grazemap import specio
from grazemap.specio import SpecError, check_flags, parse_obstacle, parse_phase


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_polynomial(tmp_path):
    path = write(tmp_path, "obs.txt",
                 "dim = 3\nkind = polynomial\nradius = 0.8\n"
                 "term = 1 0 0\nterm = -1 4 0\nterm = -1 0 2  # v^2\n")
    obs = parse_obstacle(path)
    assert obs.dim == 3 and obs.radius == 0.8
    assert abs(obs.value([-0.1, 0.06]) - 0.9963) < 1e-15


def test_parse_symmetric_and_builtin(tmp_path):
    path = write(tmp_path, "sym.txt",
                 "dim = 3\nkind = symmetric-h\nhcoeffs = 0 1\nlambda = 1 0 0 1\n")
    obs = parse_obstacle(path)
    assert isinstance(obs.surface, gm.SymmetricH)
    assert abs(obs.value([0.2, 0.0]) - (1 - 0.04**2)) < 1e-15
    path = write(tmp_path, "flat.txt", "dim = 3\nkind = symmetric-h\nh = exp-flat\n")
    assert parse_obstacle(path).surface.flat
    path = write(tmp_path, "sph.txt", "kind = builtin\nname = sphere\nradius = 0.5\n")
    obs = parse_obstacle(path)
    assert obs.value([0.3, 0.0]) == 1 - 0.09


def test_parse_phases(tmp_path):
    ph = parse_phase(write(tmp_path, "p1.txt", "kind = plane\ntheta = 0 1 0\n"))
    assert isinstance(ph, gm.PlanePhase)
    ph = parse_phase(write(tmp_path, "p2.txt", "kind = spherical\nb = 1 -1 0\n"))
    assert isinstance(ph, gm.SphericalPhase) and np.array_equal(ph.source, [1, -1, 0])
    ph = parse_phase(write(tmp_path, "p3.txt",
                           "kind = convex-distance\ncenter = 1 -1 0\nradius = 2\n"))
    assert isinstance(ph, gm.ConvexPhase)
    assert abs(ph.psi([1.0, 1.0, 0.0]) - 0.0) < 1e-15


def line_of(err):
    return err.value.line


def test_errors_are_line_anchored(tmp_path):
    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "a.txt", "dim = 3\nkind = polynomial\nbogus line\n"))
    assert line_of(err) == 3 and "a.txt:3" in str(err.value)

    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "b.txt",
                             "dim = 3\nkind = polynomial\nterm = 1 0 0\nterm = -1 4\n"))
    assert line_of(err) == 4

    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "c.txt", "dim = x\nkind = polynomial\nterm = 1 0 0\n"))
    assert line_of(err) == 1

    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "d.txt", "kind = mystery\n"))
    assert line_of(err) == 1

    # unnormalized surface rejected with a diagnostic, not silently fixed
    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "e.txt",
                             "dim = 3\nkind = polynomial\nterm = 2 0 0\nterm = -1 0 2\n"))
    assert "unnormalized" in str(err.value)

    with pytest.raises(SpecError) as err:
        parse_phase(write(tmp_path, "f.txt", "kind = plane\ntheta = 0 2 0\n"))
    assert line_of(err) == 2

    with pytest.raises(SpecError) as err:
        parse_obstacle(write(tmp_path, "g.txt",
                             "dim = 3\nkind = polynomial\nterm = 1 0 0\n"
                             "term = -1 0 2\nterm = -2 0 2\n"))
    assert line_of(err) == 5  # duplicate multi-index


def test_duplicate_key(tmp_path):
    with pytest.raises(SpecError) as err:
        parse_phase(write(tmp_path, "h.txt", "kind = plane\nkind = plane\ntheta = 0 1 0\n"))
    assert line_of(err) == 2


SPHERE = gm.sphere_obstacle(2, radius=0.5)


def _phase_over_sphere(path):
    return parse_phase(path, obstacle=SPHERE)


# One single-fault spec per message: (parser, spec text, line, message).  A
# text of None means the flags, which name the file '<flags>' and line 0.
SINGLE_FAULTS = {
    "not-key-value": (parse_obstacle, "dim = 3\nkind = polynomial\nbogus line\n", 3,
                      "expected 'key = value', got 'bogus line'"),
    "obstacle-duplicate-key": (parse_obstacle, "dim = 3\ndim = 3\nkind = builtin\nname = sphere\n",
                               2, "duplicate key 'dim'"),
    "obstacle-missing-kind": (parse_obstacle, "dim = 3\nterm = 1 0 0\n", 1,
                              "missing required key 'kind'"),
    "unknown-obstacle-kind": (parse_obstacle, "dim = 3\nkind = mystery\n", 2,
                              "unknown obstacle kind 'mystery'"),
    "obstacle-unknown-key": (parse_obstacle, "kind = builtin\nname = sphere\nraduis = 0.5\n", 3,
                             "unknown key 'raduis' for a builtin obstacle"),
    "dim-not-integer": (parse_obstacle, "dim = x\nkind = builtin\nname = sphere\n", 1,
                        "dim must be an integer, got 'x'"),
    "dim-below-2": (parse_obstacle, "kind = builtin\ndim = 1\nname = sphere\n", 2,
                    "dim must be >= 2, got 1"),
    "dim-above-10": (parse_obstacle, "kind = builtin\nname = sphere\ndim = 11\n", 3,
                     "dim must be <= 10, got 11"),
    "obstacle-radius-not-number": (parse_obstacle, "kind = builtin\nname = sphere\nradius = big\n",
                                   3, "radius must be a number, got 'big'"),
    "obstacle-radius-not-positive": (parse_obstacle,
                                     "kind = builtin\nname = sphere\nradius = -1\n", 3,
                                     "radius must be positive and finite"),
    "obstacle-radius-overflows": (parse_obstacle, "kind = builtin\nname = sphere\nradius = 1e200\n",
                                  3, "radius must keep (dim - 1) * radius^2 finite, got '1e200'"),
    "no-term": (parse_obstacle, "dim = 3\nkind = polynomial\n", 2,
                "polynomial obstacle needs at least one 'term' line"),
    "term-field-count": (parse_obstacle, "kind = polynomial\nterm = 1 0 0\nterm = -1 4\n", 3,
                         "term needs coefficient plus 2 exponents, got 2 fields"),
    "bad-term": (parse_obstacle, "kind = polynomial\nterm = 1 0 0\nterm = -1 x 0\n", 3,
                 "bad term '-1 x 0'"),
    "term-coefficient-not-finite": (parse_obstacle, "kind = polynomial\nterm = inf 0 0\n", 2,
                                    "term coefficient must be finite, got 'inf'"),
    "negative-exponent": (parse_obstacle, "kind = polynomial\nterm = 1 0 0\nterm = -1 -2 0\n", 3,
                          "exponents must be nonnegative"),
    "duplicate-multi-index": (parse_obstacle,
                              "kind = polynomial\nterm = 1 0 0\nterm = -1 0 2\nterm = -2 0 2\n",
                              4, "duplicate multi-index (0, 2)"),
    "unnormalized": (parse_obstacle, "kind = polynomial\nterm = 2 0 0\nterm = -1 0 2\n", 2,
                     "unnormalized surface: constant term is 2.0, expected exactly 1"),
    "lambda-not-numbers": (parse_obstacle, "kind = symmetric-h\nhcoeffs = 0 1\nlambda = 1 0 x 1\n",
                           3, "expected numbers, got '1 0 x 1'"),
    "lambda-count": (parse_obstacle, "kind = symmetric-h\nhcoeffs = 0 1\nlambda = 1 0 1\n", 3,
                     "expected 4 numbers, got 3"),
    "hcoeffs-not-finite": (parse_obstacle, "kind = symmetric-h\nhcoeffs = nan 1\n", 2,
                           "expected finite numbers, got 'nan 1'"),
    "h-and-hcoeffs": (parse_obstacle, "kind = symmetric-h\nh = exp-flat\nhcoeffs = 0 1\n", 3,
                      "give either 'h = exp-flat' or 'hcoeffs', not both"),
    "unknown-profile-tag": (parse_obstacle, "kind = symmetric-h\nh = bumpy\n", 2,
                            "unknown profile tag 'bumpy'"),
    "no-profile": (parse_obstacle, "dim = 3\nkind = symmetric-h\nlambda = 1 0 0 1\n", 2,
                   "symmetric-h needs 'hcoeffs' or 'h = exp-flat'"),
    "h-not-increasing": (parse_obstacle, "kind = symmetric-h\nhcoeffs = 1 -1\n", 2,
                         "h'(0.5) <= 0: profile not increasing"),
    "h-first-coefficient-negative": (parse_obstacle, "kind = symmetric-h\nhcoeffs = -1\n", 2,
                                     "first nonzero Taylor coefficient of h must be positive"),
    "singular-lambda": (parse_obstacle, "kind = symmetric-h\nhcoeffs = 0 1\nlambda = 1 1 1 1\n",
                        3, "lambda matrix is singular"),
    "builtin-no-name": (parse_obstacle, "kind = builtin\nradius = 0.5\n", 1,
                        "builtin obstacle needs a 'name' line"),
    "unknown-builtin": (parse_obstacle, "kind = builtin\nname = cube\n", 2,
                        "unknown builtin obstacle 'cube'"),
    "phase-duplicate-key": (parse_phase, "kind = plane\nkind = plane\ntheta = 0 1 0\n", 2,
                            "duplicate key 'kind'"),
    "phase-missing-kind": (parse_phase, "theta = 0 1 0\n", 1, "missing required key 'kind'"),
    "unknown-phase-kind": (parse_phase, "kind = wave\n", 1, "unknown phase kind 'wave'"),
    "phase-unknown-key": (parse_phase, "kind = spherical\nb = 1 -1 0\ntheta = 0 1 0\n", 3,
                          "unknown key 'theta' for a spherical phase"),
    "plane-no-theta": (parse_phase, "kind = plane\n", 1, "plane phase needs 'theta'"),
    "theta-count": (parse_phase, "kind = plane\ntheta = 0 1\n", 2, "expected 3 numbers, got 2"),
    "theta-not-unit": (parse_phase, "kind = plane\ntheta = 0 2 0\n", 2,
                       "|theta| = 2.0, expected a unit vector"),
    "spherical-no-b": (parse_phase, "kind = spherical\n", 1, "spherical phase needs 'b'"),
    "source-inside": (_phase_over_sphere, "kind = spherical\nb = 0.5 0 0\n", 2,
                      "source '0.5 0 0' is not outside the obstacle: b1 = 0.5 <= F(bbar) = 1.0"),
    "convex-distance-no-radius": (parse_phase, "kind = convex-distance\ncenter = 1 -1 0\n", 1,
                                  "convex-distance needs 'center' and 'radius'"),
    "phase-radius-not-number": (parse_phase,
                                "kind = convex-distance\ncenter = 1 -1 0\nradius = big\n", 3,
                                "radius must be a number, got 'big'"),
    "phase-radius-not-positive": (parse_phase,
                                  "kind = convex-distance\ncenter = 1 -1 0\nradius = 0\n", 3,
                                  "radius must be positive and finite"),
    "center-inside": (_phase_over_sphere, "kind = convex-distance\ncenter = 0 0 0\nradius = 2\n",
                      2, "center '0 0 0' is not outside the obstacle: c1 = 0.0 <= F(cbar) = 1.0"),
    "flags-not-finite": (lambda path: check_flags(math.nan, 0.3, 1.0, 10), None, 0,
                         "tolerance, window, and s0 overrides must be finite"),
    "flags-not-positive": (lambda path: check_flags(0.0, 0.3, 1.0, 10), None, 0,
                           "tolerance, window, and s0 overrides must be positive"),
    "flags-budget": (lambda path: check_flags(1e-10, 0.3, 1.0, 0), None, 0,
                     "InvalidBudget: --budget must be positive"),
    "flags-budget-above-max": (lambda path: check_flags(1e-10, 0.3, 1.0, 10**6 + 1), None, 0,
                               "InvalidBudget: --budget must be at most 1000000"),
}


@pytest.mark.parametrize("parse, text, line, message", SINGLE_FAULTS.values(),
                         ids=SINGLE_FAULTS.keys())
def test_each_spec_check_fires_on_its_line(tmp_path, parse, text, line, message):
    path = "<flags>" if text is None else write(tmp_path, "spec.txt", text)
    with pytest.raises(SpecError) as err:
        parse(path)
    assert (err.value.path, err.value.line) == (path, line)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_lines_split_on_universal_newlines(tmp_path):
    # \r\n and a lone \r each end a line, before and after a byte that is not UTF-8.
    path = tmp_path / "cr.obstacle"
    path.write_bytes(b"dim = 3\r\nkind = builtin\rname = sphere\r\nradius = 0.5\r")
    assert parse_obstacle(str(path)).radius == 0.5
    path.write_bytes(b"dim = 3\r\nkind = builtin\rname = sphere\r\xc3\x28\n")
    with pytest.raises(SpecError) as err:
        parse_obstacle(str(path))
    assert str(err.value) == f"{path}:4: byte 0xc3 is not valid UTF-8"
    path.write_bytes(b"dim = 3\rkind = builtin\r\rbogus\r\n")
    with pytest.raises(SpecError) as err:
        parse_obstacle(str(path))
    assert line_of(err) == 4


SPECS = Path(__file__).resolve().parents[1] / "specs"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_leading_byte_order_mark_is_ignored(tmp_path):
    plain = parse_obstacle(str(SPECS / "sphere.obstacle"))
    path = tmp_path / "bom.obstacle"
    path.write_bytes(b"\xef\xbb\xbf" + (SPECS / "sphere.obstacle").read_bytes())
    bom = parse_obstacle(str(path))
    assert bom == plain and bom.surface.poly.terms == plain.surface.poly.terms


def test_spec_surfaces_compare_by_what_they_are(tmp_path):
    quadric = gm.polynomial_obstacle(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
    quartic = gm.polynomial_obstacle(2, {(0, 0): 1, (4, 0): -1, (0, 2): -1})
    assert quadric != quartic and hash(quadric) != hash(quartic)
    for spec in sorted(SPECS.glob("*.obstacle")):
        first, again = parse_obstacle(str(spec)), parse_obstacle(str(spec))
        assert first is not again and first == again and hash(first) == hash(again)
    # An anisotropic profile and the same profile rotated by a quarter turn.
    profile = "dim = 3\nkind = symmetric-h\nhcoeffs = 1 0.5\nradius = 0.5\n"
    plain = parse_obstacle(write(tmp_path, "plain.obstacle", profile + "lambda = 1 0 0 2\n"))
    turned = parse_obstacle(write(tmp_path, "turned.obstacle", profile + "lambda = 0 -1 2 0\n"))
    assert plain != turned
    assert plain == parse_obstacle(write(tmp_path, "again.obstacle", profile + "lambda = 1 0 0 2\n"))


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.iterdir()))
def test_sample_specs_parse(spec):
    path = str(SPECS / spec)
    if spec.endswith(".obstacle"):
        assert isinstance(parse_obstacle(path), gm.Obstacle)
    else:
        assert isinstance(parse_phase(path, obstacle=SPHERE),
                          gm.PlanePhase | gm.SphericalPhase | gm.ConvexPhase)


def test_readme_key_table_is_the_parser_table():
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    documented = {kind: set(re.findall(r"`(\w+)`", keys)) for kind, keys in rows}
    parser = {kind: keys for kinds in specio._ACCEPTED_KEYS.values() for kind, keys in kinds.items()}
    assert len(rows) == len(documented) and documented == parser
