"""grazemap benchmark: one command, three workloads, checked outputs, a traced pass.

    python3 bench/run.py --workload boundary-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The run generates the workload's inputs from ``--seed`` and repeats
whole rounds of the workload's jobs, with tracing off, until the jobs have
taken at least ``--seconds``; every job's outputs are checked after it ends.
Before each round (and after the pass, up to nine in all) it times the set-up
of a fresh interpreter and reports the fastest: on a shared machine other work
only ever adds time.  With ``--trace 1`` the run then repeats one round with
every public grazemap function wrapped and reports per-layer metrics instead
of end-to-end ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the jobs are single-threaded, and set-up children inherit
# the setting.  It must be in place before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9

# Set-up as a user meets it: a fresh interpreter imports grazemap, parses the
# workload's spec files and builds its obstacles and phases.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from grazemap import parse_obstacle, parse_phase
for ob, ph in zip(sys.argv[2::2], sys.argv[3::2]):
    parse_phase(ph, dim=parse_obstacle(ob).dim)
print("ready", flush=True)
"""


def time_setup(spec_files) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    args = [sys.executable, "-c", SETUP_CHILD, str(SRC)]
    args += [path for pair in spec_files for path in pair]
    t0 = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited {code} before it was ready")
    return elapsed


def run_job(job) -> tuple[float, list]:
    """Run one job, timed alone; then check its outputs.  Returns (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception:  # a job that raises is a failed job; the run goes on
        return time.perf_counter() - t0, [traceback.format_exc(limit=3).strip()]
    elapsed = time.perf_counter() - t0
    try:
        problems = job.check(result)
    except Exception:
        problems = ["checker raised: " + traceback.format_exc(limit=3).strip()]
    return elapsed, problems


class Tally:
    """Job times and failures of one pass."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}   # by job, in the order jobs ran
        self.round_times: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []

    def round(self, jobs) -> None:
        total = 0.0
        for job in jobs:
            elapsed, problems = run_job(job)
            total += elapsed
            self.times.setdefault(job.key, []).append(elapsed)
            if problems:
                self.failed += 1
                if job.known_fault is None:
                    self.unexpected.append(f"{job.key}: " + "; ".join(problems))
        self.round_times.append(total)

    @property
    def elapsed(self) -> float:
        return sum(self.round_times)

    @property
    def attempted(self) -> int:
        return sum(len(ts) for ts in self.times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grazemap" / "__init__.py").is_file():
        sys.stderr.write(f"error: no grazemap source under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import grazemap
    if Path(grazemap.__file__).resolve().parent != SRC / "grazemap":
        sys.stderr.write(f"error: imported grazemap from {grazemap.__file__}, not {SRC}\n")
        return 2

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.generate(args.workload, args.seed, out)

    # Set-up samples are spread over the pass, one before each round, so that
    # they do not all fall in one stretch of a busy machine.
    setup = []
    n_setup = 0 if args.trace else SETUP_SAMPLES
    tally = Tally()
    while tally.elapsed < args.seconds:
        if len(setup) < n_setup:
            setup.append(time_setup(wl.spec_files))
        tally.round(wl.jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < n_setup:
        setup.append(time_setup(wl.spec_files))

    metrics = {}
    if args.trace:
        import tracer
        spans = tracer.Tracer()
        traced = Tally()
        spans.install()
        try:
            traced.round(wl.jobs)
        finally:
            spans.uninstall()
        spans.write(out / "spans.npz")
        tally.unexpected += [f"traced {u}" for u in traced.unexpected]
        metrics = spans.metrics()
        metrics["trace.untraced_round_s"] = (statistics.median(tally.round_times), "s")
        metrics["trace.traced_round_s"] = (traced.round_times[0], "s")
    else:
        metrics["setup_s"] = (min(setup), "s")
        metrics["jobs_per_s"] = (tally.attempted / tally.elapsed, "jobs/s")
        # The machine alternates between two speeds; a median over every run
        # of every job flips with the share of the pass spent slow, while a
        # job's mean over its repetitions moves smoothly with it.
        metrics["job_p50_s"] = (statistics.median(statistics.fmean(ts)
                                                  for ts in tally.times.values()), "s")
        every = [t for ts in tally.times.values() for t in ts]
        metrics["job_p90_s"] = (statistics.quantiles(every, n=10, method="inclusive")[-1], "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    for problem in tally.unexpected:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {len(wl.jobs)} jobs a round, "
          f"{len(tally.round_times)} rounds, attempted {tally.attempted}, failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
