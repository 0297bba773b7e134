"""Benchmark of whole magarr CLI jobs, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Users run magarr one job at a time (``magarr <task> <source>``), so the
benchmark is a closed loop with one client: it calls
``magarr.cli.main(argv)`` in this process for each job of the
workload's job list, waits for it, then starts the next.  It repeats
the whole list until at least ``--seconds`` have been measured, and
always finishes at least one pass.  magarr is imported from ``src/``
next to this directory; nothing is installed.

Workloads (why each was chosen):

- ``catalog-mag``: ``mag`` on braid:5, coxeter:B3 and boolean:6, with a
  new empty ``--cache`` directory for every pass.  Symmetric inputs with
  one chamber orbit each: the time goes to LP chamber enumeration
  (including the restriction enumerations of the face route), the
  Varchenko determinant (coxeter:B3) and the symmetry search (boolean:6,
  46080 elements).  No homology; exercises the cache write path.
- ``homology``: ``homology --no-face-check`` at a fixed ``--lmax`` on
  braid:4, u45, k5me and bracelet, with the cache warmed during set-up,
  so every timed job reads its geometry from the cache.  The time goes
  to chain enumeration, boundary blocks, the d^2 check and the Smith
  reduction.  ``--lmax`` is fixed so that a change to the default
  length cap does not change the work.
- ``generic``: ``verify --lmax 4`` on 12 arrangements of 6 hyperplanes
  in general position in R^3, with entries in [-2, 2], generated from
  ``--seed``.  They have no symmetry beyond +-identity, so the
  magnitude elimination does real work, and every verify check runs on
  many small complexes.  General position gives every arrangement 32
  chambers, so the seed changes the work of a pass only a little.

End-to-end metrics come from runs with ``--trace 0``: ``setup_s`` (the
median of three set-ups, each of which imports magarr afresh, makes the
inputs and warms the cache where the workload reads one), ``wall_s``
(the jobs of one pass, back to back), ``job_max_s`` (the slowest job of
a pass) and ``peak_rss_mb`` (this process, set-up included).  Times are
medians over the passes, rescaled to a fixed CPU speed as ``speed.py``
describes, because the CPU speed of a shared VM swings by half within
seconds; the line before the result gives the raw wall times too.
``--trace 1`` runs the same jobs with the wrappers of ``spans.py``
installed and prints the per-layer metrics instead, plus
``traced.wall_s``; its gap to ``wall_s`` is the tracing overhead.

Every job must exit 0.  The stdout of each ``catalog-mag`` and
``homology`` job must have the sha256 in ``DIGESTS``, which is that of
``PYTHONPATH=src python -m magarr.cli <argv>`` at the commit that
defined the benchmark (the cache directory does not change stdout).
``generic`` jobs must print PASS for every check, including the ones in
``GENERIC_REQUIRED``.  A failing job is named on stderr and counts in
``failed``.

The last line of stdout is the machine-readable result; the line before
it holds the run metadata, the error rate and the failing jobs.  The
full report, with the spans of a traced run, goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.  The default seed is 1;
seed 2 was checked as well (both give group order 2 on every generic
job, and every check passes).
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import METRICS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 3

# sha256 of each job's stdout, keyed by job label
DIGESTS = {
    "mag braid:5":
        "92c040279062d26efea3e15a853b40f8f355c497c7f243d07af631ce045a08a9",
    "mag coxeter:B3":
        "5ee389d08bf0ff16c7887f1fcd9d19b50c0c5e35bbd94ca9715969a9b1fc9269",
    "mag boolean:6":
        "a0da24b811dcf3ec81fec9404e5191d5570e6468489f11c98303465e783992c4",
    "homology braid:4 --lmax 6":
        "01c77888c8f6cf503c01ff33e221d034dbaa6ba5fde6edeecd3856fd06014e08",
    "homology u45 --lmax 6":
        "e4aa3e5edcf60fb3839b96dccb864c4d96681a708a14c8d7dd0d235f95a258bc",
    "homology k5me --lmax 5":
        "12d601d9e3313d75a6d6270c109748bc8abfc12a1af3e015136750dad2b9c8a8",
    "homology bracelet --lmax 5":
        "111a796f8893237f9d76340611ad1dcd76c100f2bd983e17befffe0356126899",
}

GENERIC_REQUIRED = (
    "mag:face_decomposition_route",
    "mag:varchenko_det_product",
    "hom:boundary_squares_to_zero",
    "hom:euler_matches_series",
    "hom:face_decomposition",
    "hom:geodesic_two_routes",
    "hom:reciprocity",
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_max_s": "s",
                    "peak_rss_mb": "MB"}


def _magarr(name="cli"):
    return sys.modules[f"magarr.{name}"]


def import_magarr():
    """Import magarr afresh, dropping any modules imported before."""
    for key in [k for k in sys.modules
                if k == "magarr" or k.startswith("magarr.")]:
        del sys.modules[key]
    importlib.import_module("magarr.cli")


# ---------------------------------------------------------------------------
# workloads


class CatalogMag:
    """``mag`` on three catalog names, writing into an empty cache."""

    sources = ("braid:5", "coxeter:B3", "boolean:6")

    def __init__(self, workdir, seed, digests=DIGESTS):
        self.digests = digests

    def jobs(self, pass_dir):
        cache = os.path.join(pass_dir, "cache")
        os.makedirs(cache)
        return [(f"mag {s}", ["mag", s, "--cache", cache])
                for s in self.sources]

    def check(self, label, stdout, stderr):
        if "cache: miss" not in stderr.splitlines():
            return "geometry was not computed afresh"
        return _check_digest(self.digests, label, stdout)


class HomologyRead:
    """``homology`` at fixed lmax, geometry read from a warm cache."""

    sources = (("braid:4", 6), ("u45", 6), ("k5me", 5), ("bracelet", 5))

    def __init__(self, workdir, seed, digests=DIGESTS):
        self.digests = digests
        self.cache = os.path.join(workdir, "cache")
        cli = _magarr()
        for source, _ in self.sources:
            arrangement, _, _ = cli.load_arrangement(source)
            with contextlib.redirect_stderr(io.StringIO()):
                cli.get_geometry(arrangement, self.cache)

    def jobs(self, pass_dir):
        return [
            (f"homology {s} --lmax {lmax}",
             ["homology", s, "--lmax", str(lmax), "--no-face-check",
              "--cache", self.cache])
            for s, lmax in self.sources
        ]

    def check(self, label, stdout, stderr):
        if "cache: hit" not in stderr.splitlines():
            return "geometry was not read from the cache"
        return _check_digest(self.digests, label, stdout)


class Generic:
    """``verify`` on arrangements generated from the seed."""

    count = 12
    hyperplanes = 6
    dimension = 3
    entry = 2

    def __init__(self, workdir, seed):
        os.makedirs(workdir)
        self.files = []
        for k, rows in enumerate(self.arrangements(seed)):
            path = os.path.join(workdir, f"generic{k:02d}.txt")
            with open(path, "w") as fh:
                fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)
            self.files.append(path)

    @classmethod
    def arrangements(cls, seed):
        """Rows of each arrangement, all drawn from one stream.

        A row that magarr rejects, or that lies in the span of two rows
        drawn before it, is drawn again.  So the hyperplanes are in
        general position: every arrangement has the same flats and
        exactly 32 chambers, and the work of a pass depends little on
        the seed.
        """
        parse = _magarr("arrangement").parse_arrangement
        parse_error = _magarr("errors").ParseError
        rng = random.Random(seed)
        for _ in range(cls.count):
            rows = []
            while len(rows) < cls.hyperplanes:
                row = [rng.randint(-cls.entry, cls.entry)
                       for _ in range(cls.dimension)]
                try:
                    parse(rows + [row])
                except parse_error:
                    continue
                if any(_det3(a, b, row) == 0
                       for a, b in itertools.combinations(rows, 2)):
                    continue
                rows.append(row)
            yield rows

    def jobs(self, pass_dir):
        return [(f"verify {os.path.basename(path)}",
                 ["verify", path, "--lmax", "4"]) for path in self.files]

    def check(self, label, stdout, stderr):
        status = {}
        for line in stdout.splitlines():
            word, _, key = line.partition(" ")
            if word in ("PASS", "FAIL"):
                status[key] = word
        failing = sorted(k for k, v in status.items() if v == "FAIL")
        if failing:
            return "failing checks: " + ", ".join(failing)
        missing = [k for k in GENERIC_REQUIRED if k not in status]
        if missing:
            return "checks not run: " + ", ".join(missing)
        return None


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


WORKLOADS = {"catalog-mag": CatalogMag, "homology": HomologyRead,
             "generic": Generic}


def _check_digest(digests, label, stdout):
    want = digests.get(label)
    got = hashlib.sha256(stdout.encode()).hexdigest()
    if got != want:
        return f"stdout sha256 {got} != expected {want}"
    return None


# ---------------------------------------------------------------------------
# measuring


def run_job(argv):
    """Run one CLI job in this process: (exit code, stdout, stderr,
    start, end)."""
    out, err = io.StringIO(), io.StringIO()
    # a CLI job normally starts in a fresh process: no garbage left over
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _magarr().main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a traceback is a failed job, not a failed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), start, time.perf_counter()


def run_pass(workload, pass_dir, tag, tracer=None):
    """One pass over the job list: a record per job."""
    records = []
    for label, argv in workload.jobs(pass_dir):
        job_id = f"{tag}:{label}"
        if tracer is not None:
            tracer.job = job_id
        code, stdout, stderr, start, end = run_job(argv)
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-300:]}"
        else:
            error = workload.check(label, stdout, stderr)
        records.append({"job": job_id, "start": start, "end": end,
                        "exit": code, "error": error})
    return records


def measure(make, seed, seconds, trace, workdir):
    """Set up, run passes for ``seconds``; returns the run's report.

    ``make(directory, seed)`` builds the workload: its inputs, and its
    warm cache where it has one.  Every time in the report is rescaled
    to the nominal CPU speed of ``speed.py``; the raw wall times are
    kept beside them.
    """
    setups = []
    tracer = Tracer() if trace else None
    passes = []
    with SpeedProbe() as probe:
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            import_magarr()
            workload = make(os.path.join(workdir, f"setup{rep}"), seed)
            setups.append((start, time.perf_counter()))
        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            while not passes or time.perf_counter() - start < seconds:
                tag = str(len(passes))
                pass_dir = os.path.join(workdir, "pass" + tag)
                passes.append(run_pass(workload, pass_dir, tag, tracer))
    for records in passes:
        for r in records:
            r["raw_seconds"] = r["end"] - r["start"]
            r["scale"] = probe.scale(r["start"], r["end"])
            r["seconds"] = r["raw_seconds"] * r["scale"]
    records = [r for rs in passes for r in rs]
    failures = [r for r in records if r["error"]]

    def pass_median(key, combine=sum):
        return statistics.median(combine(r[key] for r in rs) for rs in passes)

    raw = {"wall_s": pass_median("raw_seconds")}
    if trace:
        per_pass = [tracer.pass_metrics({r["job"]: r["scale"] for r in rs})
                    for rs in passes]
        values = {key: statistics.median(p[key] for p in per_pass)
                  for key in METRICS}
        values["traced.wall_s"] = pass_median("seconds")
        metrics = {key: {"value": v, "unit": _layer_unit(key)}
                   for key, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(
                probe.rescale(*span) for span in setups),
            "wall_s": pass_median("seconds"),
            "job_max_s": pass_median("seconds", max),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]}
                   for key, v in values.items()}
        raw["setup_s"] = statistics.median(end - start
                                           for start, end in setups)
        raw["job_max_s"] = pass_median("raw_seconds", max)
    return {
        "result": {"correct": not failures, "attempted": len(records),
                   "failed": len(failures), "metrics": metrics},
        "error_rate": len(failures) / len(records),
        "failures": [{"job": r["job"], "error": r["error"]} for r in failures],
        "raw": raw,
        "probe": {"samples": len(probe.samples),
                  "median_s": statistics.median(s for _, s in probe.samples)},
        "probe_samples": probe.samples,
        "jobs": records,
        "spans": tracer.span_records() if trace else [],
    }


def _layer_unit(key):
    return "s" if key.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# run metadata


def git_sha(root=ROOT):
    """Commit of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args):
    try:
        import gmpy2  # noqa: F401  # selects linalg's arithmetic path
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gmpy2": has_gmpy2,
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "magarr" / "cli.py").is_file():
        print(f"perfbench: no magarr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = run_metadata(args)
    # one CPU for the jobs and the speed probe (threads started later
    # inherit it)
    meta["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    # a user's cache must never feed a measurement
    os.environ.pop("MAGARR_CACHE", None)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-work-")
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["meta"] = meta
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n")

    for failure in report["failures"]:
        print(f"perfbench: FAIL {failure['job']}: {failure['error']}",
              file=sys.stderr)
    print(json.dumps({"meta": meta, "error_rate": report["error_rate"],
                      "failures": report["failures"], "raw": report["raw"],
                      "probe": report["probe"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
