"""The benchmark's own tests:  python3 bench/selftest.py  (from a source checkout).

* every checker marks a job failed when its output is built to be wrong;
* the generators repeat their inputs for a fixed seed;
* two traced passes give identical counts, and uninstalling the tracer
  restores every original function.

The file is not named test_*.py, so the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _job(wl, prefix: str):
    return next(job for job in wl.jobs if job.key.startswith(prefix))


def _rewrite_csv(res: checks.CliResult, name: str, tmp: Path, edit) -> checks.CliResult:
    """Copy a job's output directory, apply ``edit(header, rows)`` to one CSV."""
    out = Path(tempfile.mkdtemp(prefix="edited-", dir=tmp))
    shutil.copytree(res.out, out, dirs_exist_ok=True)
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    edit(lines[0].split(","), rows)
    (out / name).write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                            encoding="utf-8")
    return dataclasses.replace(res, out=out)


class TempDirTest(unittest.TestCase):
    def setUp(self):
        (BENCH / "out").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "out"))
        self.addCleanup(shutil.rmtree, self.tmp, True)


class CheckersCatchWrongOutputs(TempDirTest):
    def test_rfm_check(self):
        job = _job(workloads.generate("boundary-batch", 3, self.tmp), "rfm-check:sphere/side")
        res = job.run()
        self.assertEqual(job.check(res), [])

        def below_bound(cols, rows):
            mu = cols.index("mu")
            rows[0][cols.index("j_analytic")] = repr(2.0 * float(rows[0][mu]) - 1e-6)

        def off_by_1e5(cols, rows):
            k = cols.index("j_analytic")
            rows[-1][k] = repr(float(rows[-1][k]) * (1.0 + 1e-5))

        for edit in (below_bound, off_by_1e5):
            with self.subTest(edit.__name__):
                self.assertNotEqual(job.check(_rewrite_csv(res, "rfm.csv", self.tmp, edit)), [])

    def test_reflect(self):
        job = _job(workloads.generate("boundary-batch", 3, self.tmp), "reflect:sphere/side")
        res = job.run()
        self.assertEqual(job.check(res), [])

        def swapped_label(cols, rows):
            k = cols.index("label")
            rows[0][k] = "shadow" if rows[0][k] == "illuminated" else "illuminated"

        def not_unit(cols, rows):
            k = cols.index("xi1_r")
            rows[1][k] = repr(float(rows[1][k]) + 1e-9)

        for edit in (swapped_label, not_unit):
            with self.subTest(edit.__name__):
                self.assertNotEqual(
                    job.check(_rewrite_csv(res, "reflect.csv", self.tmp, edit)), [])

    def test_render_vertex_off_the_grazing_set(self):
        job = _job(workloads.generate("grazing-report", 3, self.tmp),
                   "render:cusp_quartic/side_source:a")
        res = job.run()
        self.assertEqual(job.check(res), [])

        def moved(cols, rows):
            rows[-1][cols.index("x2")] = repr(float(rows[-1][cols.index("x2")]) + 1e-6)

        self.assertNotEqual(job.check(_rewrite_csv(res, "trace.csv", self.tmp, moved)), [])

    def test_classify_swapped_verdict_and_known_fault(self):
        wl = workloads.generate("grazing-report", 3, self.tmp)
        job = _job(wl, "classify:cusp_quartic/side_source")
        res = job.run()
        self.assertEqual(job.check(res), [])
        swapped = res.stdout.replace("GS-FAILS-CUSP-EVIDENCE", "GS-HOLDS-C1-EVIDENCE")
        out = self.tmp / "swapped"
        shutil.copytree(res.out, out)
        (out / "classify_report.txt").write_text(swapped, encoding="utf-8")
        self.assertNotEqual(job.check(dataclasses.replace(res, stdout=swapped, out=out)), [])

        fault = _job(wl, "classify:cusp_quartic/top_source")
        self.assertIsNotNone(fault.known_fault)
        self.assertEqual([j.key for j in wl.jobs if j.known_fault], [fault.key])
        self.assertNotEqual(fault.check(fault.run()), [])

    def test_phase_line_point_off_by_1e6(self):
        job = workloads.generate("phase-lines", 3, self.tmp).jobs[0]
        rows = job.run()
        self.assertEqual(job.check(rows), [])
        s, xbar, t, value, grad = rows[5]
        rows[5] = (s, xbar + np.array([1e-6, 0.0]), t, value, grad)
        self.assertNotEqual(job.check(rows), [])


class GeneratorsRepeat(TempDirTest):
    def _inputs(self, name: str, seed: int, tag: str):
        wl = workloads.generate(name, seed, self.tmp / tag)
        files = {p.name: p.read_bytes() for p in sorted((self.tmp / tag / "inputs").iterdir())}
        return [job.key for job in wl.jobs], files

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                keys_a, files_a = self._inputs(name, 11, "a")
                keys_b, files_b = self._inputs(name, 11, "b")
                self.assertEqual(keys_a, keys_b)
                self.assertEqual(files_a, files_b)
                self.assertNotEqual(files_a, self._inputs(name, 12, "c")[1])

    def test_same_seed_same_phase_lines(self):
        a, b = (workloads._phase_line(np.random.default_rng(11), workloads.SPHERE,
                                      workloads.SIDE) for _ in range(2))
        self.assertEqual(a.targets.tobytes(), b.targets.tobytes())
        self.assertEqual(a.pre_x.tobytes(), b.pre_x.tobytes())


class TracedPassRepeats(TempDirTest):
    def _counts(self, jobs) -> dict:
        spans = tracer.Tracer()
        spans.install()
        try:
            for job in jobs:
                self.assertEqual(job.check(job.run()), [], job.key)
        finally:
            spans.uninstall()
        return {k: v for k, (v, unit) in spans.metrics().items() if unit != "s"}

    def test_two_traced_passes_count_alike(self):
        jobs = (workloads.generate("boundary-batch", 5, self.tmp / "b").jobs[:2]
                + workloads.generate("grazing-report", 5, self.tmp / "g").jobs[-1:]
                + workloads.generate("phase-lines", 5, self.tmp / "p").jobs[:1])
        import grazemap.phases
        import grazemap.reflection
        before = grazemap.reflection.xi_incoming
        first = self._counts(jobs)
        second = self._counts(jobs)
        self.assertEqual(first, second)
        for layer in ("specio", "diffgeo", "phases", "reflection", "grazing", "svgplot", "cli"):
            self.assertGreater(first[f"{layer}.calls"], 0, layer)
        self.assertIs(grazemap.reflection.xi_incoming, before)
        self.assertIs(grazemap.phases.xi_incoming, before)


if __name__ == "__main__":
    unittest.main()
