"""The command line's bytes on the sample spec pairs against golden digests.

``golden/spec_pairs.txt`` holds one SHA-256 per command over its exit code,
stdout, stderr and output files (see ``golden/spec_pairs.py``, which also
rewrites it).  A command whose bytes moved is named.
"""

import sys
from pathlib import Path

from grazemap import cli

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import spec_pairs  # noqa: E402


def test_every_command_matches_its_golden_digest():
    golden = spec_pairs.read_golden()
    assert sorted(golden) == sorted(spec_pairs.labels())
    assert spec_pairs.moved(golden, {label: spec_pairs.digest(label) for label in golden}) == []


def test_a_changed_csv_byte_names_its_command(monkeypatch):
    golden = spec_pairs.read_golden()
    label = "reflect sphere.obstacle plane.phase"
    real = cli._write_csv

    def one_byte_off(path, cols, rows):
        real(path, cols, rows)
        data = bytearray(path.read_bytes())
        data[-2] ^= 1  # a digit of the last row
        path.write_bytes(bytes(data))

    monkeypatch.setattr(cli, "_write_csv", one_byte_off)
    assert spec_pairs.moved(golden, {**golden, label: spec_pairs.digest(label)}) == [label]
