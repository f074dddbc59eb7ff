"""Golden digests of the command line's bytes on the sample spec pairs.

One SHA-256 per command over its exit code, stdout, stderr, and the name and
bytes of every file it writes.  The commands are ``classify``, ``trace``,
``render --sheet --format both``, ``rfm-check --budget 300`` and ``reflect
--budget 500``, each on the 16 (obstacle, phase) pairs of ``specs/``.  The
spec directory reads ``specs`` wherever it appears, and the output directory
is left out: files are named relative to it and its path reads ``out``.

Rewrite ``spec_pairs.txt`` only for a change meant to move those bytes, and
name the commands that moved::

    PYTHONPATH=src python tests/golden/spec_pairs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).with_name("spec_pairs.txt")
COMMANDS = {
    "classify": ["classify"],
    "trace": ["trace"],
    "render": ["render", "--sheet", "--format", "both"],
    "rfm-check": ["rfm-check", "--budget", "300"],
    "reflect": ["reflect", "--budget", "500"],
}


def labels() -> list[str]:
    """'<command> <obstacle spec> <phase spec>' for each of the 80 commands."""
    obstacles = sorted(p.name for p in SPECS.glob("*.obstacle"))
    phases = sorted(p.name for p in SPECS.glob("*.phase"))
    return [f"{c} {o} {p}" for c in COMMANDS for o in obstacles for p in phases]


def digest(label: str) -> str:
    """Run the command of ``label`` in process and hash what it produced."""
    from grazemap.cli import main

    command, obstacle, phase = label.split()
    h = hashlib.sha256()

    def part(data: bytes) -> None:  # length-prefixed, so no two records run together
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [*COMMANDS[command], "--obstacle", str(SPECS / obstacle),
                "--phase", str(SPECS / phase), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

        def normal(data: bytes) -> bytes:
            return data.replace(bytes(out), b"out").replace(bytes(SPECS), b"specs")

        part(str(code).encode())
        part(normal(stdout.getvalue().encode()))
        part(normal(stderr.getvalue().encode()))
        for path in sorted(out.rglob("*")):
            if path.is_file():
                part(path.relative_to(out).as_posix().encode())
                part(normal(path.read_bytes()))
    return h.hexdigest()


def read_golden(path: Path = GOLDEN) -> dict[str, str]:
    """label -> digest, from lines '<digest> <label>'."""
    rows = (line.split(" ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {label: value for value, label in rows}


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Labels whose digest differs between the two tables, or that only one holds."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def main() -> int:
    GOLDEN.write_text("".join(f"{digest(label)} {label}\n" for label in labels()),
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
