"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench
"""

import hashlib
import json
import sys

import pytest

import run
from spans import Tracer, _magarr_modules

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


class SmallCatalog(run.CatalogMag):
    sources = ("u34",)


class SmallHomology(run.HomologyRead):
    sources = (("braid:3", 3),)


def _digest(argv):
    run.import_magarr()
    code, stdout, *_ = run.run_job(argv)
    assert code == 0
    return hashlib.sha256(stdout.encode()).hexdigest()


def small_catalog(workdir, seed):
    digests = {"mag u34": _digest(["mag", "u34"])}
    return SmallCatalog(workdir, seed, digests)


def small_homology(workdir, seed):
    argv = ["homology", "braid:3", "--lmax", "3", "--no-face-check"]
    digests = {"homology braid:3 --lmax 3": _digest(argv)}
    return SmallHomology(workdir, seed, digests)


def _snapshot():
    """Every attribute of every magarr module and of the classes in them."""
    out = {}
    for mod in _magarr_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def _benchmark_metrics(key):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_corrupted_digest_counts_as_error(tmp_path):
    report = run.measure(small_catalog, 1, 0, 0, str(tmp_path / "good"))
    assert report["error_rate"] == 0 and report["result"]["correct"]

    bad = {"mag u34": "0" * 64}
    report = run.measure(lambda d, s: SmallCatalog(d, s, bad), 1, 0, 0,
                         str(tmp_path / "bad"))
    assert report["error_rate"] == 1
    assert report["result"]["failed"] == report["result"]["attempted"] == 1
    assert not report["result"]["correct"]
    assert [f["job"] for f in report["failures"]] == ["0:mag u34"]


def test_tracer_restores_magarr_functions(tmp_path):
    run.import_magarr()
    before = _snapshot()
    workload = SmallCatalog(str(tmp_path), 1)
    with Tracer() as tracer:
        during = _snapshot()
        run.run_pass(workload, str(tmp_path / "pass"), "0", tracer)
    after = _snapshot()
    changed = {k for k in before if during[k] is not before[k]}
    assert ("magarr.cli", "get_geometry") in changed
    assert ("magarr.magnitude", "tope_symmetries") in changed
    assert ("magarr.arrangement", "FaceLattice",
            "restriction_chamber_count") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {s["name"] for s in tracer.span_records()} >= {
        "cli.geometry", "cli.render", "arrangement.enumerate",
        "magnitude.elimination", "polyq.reduce"}


@pytest.mark.parametrize("argv", [
    ["mag", "u34"],
    ["verify", "k4me", "--lmax", "3"],
    ["homology", "braid:3", "--lmax", "4", "--no-face-check"],
])
def test_stdout_identical_with_tracing(argv):
    run.import_magarr()
    plain = run.run_job(argv)
    with Tracer():
        traced = run.run_job(argv)
    assert plain[0] == traced[0] == 0
    assert plain[1] == traced[1]


def test_metric_names_match_benchmark_json(tmp_path):
    end_to_end = _benchmark_metrics("end_to_end")
    per_layer = _benchmark_metrics("per_layer")
    report = run.measure(small_homology, 1, 0, 0, str(tmp_path / "plain"))
    got = {k: v["unit"] for k, v in report["result"]["metrics"].items()}
    assert got == end_to_end
    report = run.measure(small_homology, 1, 0, 1, str(tmp_path / "traced"))
    got = {k: v["unit"] for k, v in report["result"]["metrics"].items()}
    assert got == per_layer


def test_traced_counts_on_small_workloads(tmp_path):
    report = run.measure(small_homology, 1, 0, 1, str(tmp_path / "hom"))
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert report["result"]["correct"], report["failures"]
    assert metrics["cli.cache_hits"] == 1
    assert metrics["cli.cache_misses"] == 0
    assert metrics["homology.calls"] == 1
    assert metrics["arrangement.group_order"] == 12  # S3 x {+-1}

    report = run.measure(small_catalog, 1, 0, 1, str(tmp_path / "mag"))
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert report["result"]["correct"], report["failures"]
    assert metrics["cli.cache_misses"] == 1
    assert metrics["homology.calls"] == 0
    assert metrics["arrangement.chambers"] > 0


def test_discarded_cache_entry_is_counted(tmp_path):
    run.import_magarr()
    workload = SmallHomology(str(tmp_path), 1)
    for entry in (tmp_path / "cache").iterdir():
        entry.write_text("{}")
    with Tracer() as tracer:
        records = run.run_pass(workload, str(tmp_path / "pass"), "0",
                               tracer)
    metrics = tracer.pass_metrics({r["job"]: 1.0 for r in records})
    assert metrics["cli.cache_discards"] == 1
    assert metrics["cli.cache_misses"] == 1
    assert metrics["cli.cache_hits"] == 0
    assert records[0]["error"] == "geometry was not read from the cache"


def test_generic_inputs_follow_the_seed():
    run.import_magarr()
    first = list(run.Generic.arrangements(7))
    assert first == list(run.Generic.arrangements(7))
    assert first != list(run.Generic.arrangements(8))
    assert len(first) == run.Generic.count
    parse = sys.modules["magarr.arrangement"].parse_arrangement
    for rows in first:
        assert len(rows) == run.Generic.hyperplanes
        assert all(abs(x) <= run.Generic.entry for row in rows for x in row)
        parse(rows)
