"""Command-line behaviour: rendering, determinism, caching, exit codes."""

from __future__ import annotations

import json
import os

import pytest

import magarr.cli as cli
from magarr.arrangement import catalog
from magarr.cli import (
    JobSpec,
    cache_key,
    golden_betti,
    golden_extras,
    golden_magnitude,
    load_arrangement,
    main,
)
from magarr.errors import ParseError
from magarr.homology import magnitude_homology


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mag_task_renders_summary(capsys):
    code, out, err = _run(capsys, ["mag", "boolean:2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("boolean:2: dimension 2, 2 hyperplanes")
    assert any(line.startswith("magnitude = ") for line in lines)
    assert "series: 4, -8, 12" in out
    assert "denominator factors: Phi_2^2" in out
    assert "checks:" in out and "failing" not in out


def test_output_is_deterministic(capsys, tmp_path):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    code1, out1, _ = _run(capsys, ["mag", "u34", "--json", str(path1)])
    code2, out2, _ = _run(capsys, ["mag", "u34", "--json", str(path2)])
    assert code1 == code2 == 0
    assert out1 == out2
    assert path1.read_bytes() == path2.read_bytes()


def test_json_bundle_schema(capsys, tmp_path):
    path = tmp_path / "bundle.json"
    code, _, _ = _run(capsys, ["mag", "braid:3", "--json", str(path)])
    assert code == 0
    bundle = json.loads(path.read_text())
    assert bundle["schema"] == 1
    arr = bundle["arrangement"]
    assert arr["name"] == "braid:3"
    assert arr["hyperplanes"] == 3 and arr["chambers"] == 6
    mag = bundle["tasks"]["mag"]
    assert mag["magnitude"]["num"] and mag["magnitude"]["den"]
    assert len(mag["series"]) == 11
    # exact rationals serialize as strings, never floats
    assert all(isinstance(c, int) for c in mag["series"])


def test_homology_tsv_shape(capsys):
    code, out, _ = _run(capsys, ["homology", "boolean:2", "--lmax", "3"])
    assert code == 0
    lines = out.splitlines()
    header = next(l for l in lines if l.startswith("k\\l"))
    assert header.split("\t") == ["k\\l", "0", "1", "2", "3"]
    rows = [l for l in lines if l[:1].isdigit()]
    first = rows[0].split("\t")
    assert first[0] == "0" and first[1] == "4"
    assert "torsion: none" in out
    assert "shortest non-geodesic 3-chain: 3" in out


def test_verify_passes_on_catalog_fixture(capsys):
    code, out, err = _run(capsys, ["verify", "braid:3", "--lmax", "4"])
    assert code == 0, err
    assert "FAIL" not in out
    assert "golden:magnitude" in out
    summary = [l for l in out.splitlines() if l.startswith("verify:")][0]
    assert "checks passed" in summary


def test_verify_geodesic_check_on_96_chambers(capsys):
    # k5me: the geodesic check reads the main homology run at any size
    code, out, err = _run(capsys, ["verify", "k5me", "--lmax", "3"])
    assert code == 0, err
    assert "PASS hom:geodesic_two_routes" in out
    assert "verify: 25/25 checks passed (lmax=3)" in out


def test_verify_respects_fixture_lmax_cap(capsys):
    # --lmax above the stored table only checks the stored cells
    code, out, _ = _run(capsys, ["verify", "boolean:2", "--lmax", "2"])
    assert code == 0
    assert "PASS golden:betti" in out


def test_conjectures_report_is_json(capsys):
    code, out, _ = _run(capsys, ["conjectures", "u34", "--lmax", "4"])
    assert code == 0
    payload = json.loads("\n".join(out.splitlines()[1:]))
    assert payload["no_counterexample"] is True
    assert payload["torsion_free"]["observed"] is True
    assert "nonuniform_forces_cyclotomic_factor" in payload


def test_lattice_task_lists_flats(capsys):
    code, out, _ = _run(capsys, ["lattice", "braid:3"])
    assert code == 0
    assert "rank 0: 1 flats" in out
    assert "rank 1: 3 flats" in out
    assert "rank 2: 1 flats" in out
    assert "chambers: 6" in out


def test_unknown_name_is_a_parse_error(capsys):
    code, _, err = _run(capsys, ["mag", "no-such-arrangement"])
    assert code == 2
    assert "error:" in err


def test_bad_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n1\n")
    code, _, err = _run(capsys, ["mag", str(bad)])
    assert code == 2
    bad_json = tmp_path / "bad2.txt"
    bad_json.write_text("{not json")
    code, _, err = _run(capsys, ["mag", str(bad_json)])
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"normals": 5},
    {"normals": [[1, 0], [0, 1]], "labels": 3},
    {"normals": [[float("inf"), 1], [0, 1]]},  # written as Infinity
    '{"normals": [[1e400, 1], [0, 1]]}',  # a literal that overflows a float
])
def test_malformed_json_source_is_a_parse_error(capsys, tmp_path, doc):
    src = tmp_path / "arr.json"
    src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_source_is_a_parse_error(capsys, tmp_path, kind):
    src = tmp_path / "arr"
    if kind == "directory":
        src.mkdir()
    else:
        src.write_bytes(b"\xff\xfe1 0\n0 1\n")
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--cache", "--json"])
def test_unusable_output_path_is_a_usage_error(capsys, tmp_path, flag):
    afile = tmp_path / "afile"
    afile.write_text("")
    target = afile if flag == "--cache" else tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, ["mag", "u34", flag, str(target)])
    assert code == 2
    assert out == ""
    assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1
    assert "Traceback" not in err


def test_negative_lmax_rejected(capsys):
    code, _, err = _run(capsys, ["homology", "boolean:2", "--lmax", "-1"])
    assert code == 2
    assert "lmax" in err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    def tight(*args, **kwargs):
        kwargs["per_length_budget"] = 3
        return magnitude_homology(*args, **kwargs)

    monkeypatch.setattr(cli, "magnitude_homology", tight)
    code, _, err = _run(capsys, ["homology", "braid:3", "--lmax", "4"])
    assert code == 3
    assert "lower --lmax" in err


def test_failed_golden_check_sets_exit_code(capsys, monkeypatch):
    doctored = {"braid:3": {"num": [999], "den": [1], "series": [999] * 11}}
    monkeypatch.setattr(cli, "golden_magnitude", lambda: doctored)
    code, out, err = _run(capsys, ["verify", "braid:3", "--lmax", "2"])
    assert code == 1
    assert "FAIL golden:magnitude" in out
    assert "failed checks:" in err


def test_matrix_file_input(capsys, tmp_path):
    path = tmp_path / "axes.txt"
    path.write_text("# coordinate planes\n1 0\n0 1\n")
    code, out, _ = _run(capsys, ["mag", str(path)])
    assert code == 0
    assert out.splitlines()[0].startswith("axes: ")
    assert "series: 4, -8, 12" in out


def test_json_file_input(capsys, tmp_path):
    path = tmp_path / "axes.json"
    path.write_text(json.dumps({
        "normals": [[1, 0], [0, 1]],
        "labels": ["x", "y"],
        "dimension": 2,
    }))
    code, out, _ = _run(capsys, ["mag", str(path)])
    assert code == 0
    assert "series: 4, -8, 12" in out
    bad = tmp_path / "mismatch.json"
    bad.write_text(json.dumps({"normals": [[1, 0], [0, 1]], "dimension": 3}))
    code, _, err = _run(capsys, ["mag", str(bad)])
    assert code == 2


def test_known_file_stem_gets_golden_checks(capsys, tmp_path):
    rows = catalog("coxeter:B3").normals
    path = tmp_path / "A(9,1).txt"
    path.write_text("\n".join(" ".join(str(x) for x in r) for r in rows) + "\n")
    code, out, _ = _run(capsys, ["verify", str(path), "--lmax", "3"])
    assert code == 0
    assert "PASS golden:series" in out
    assert "PASS golden:betti" in out


def test_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    args = ["mag", "u34", "--cache", str(cache)]
    code1, out1, err1 = _run(capsys, args)
    files = list(cache.iterdir())
    assert code1 == 0 and len(files) == 1
    code2, out2, err2 = _run(capsys, args)
    assert code2 == 0
    assert out1 == out2
    assert "cache: hit" in err2


def test_cache_corruption_recovers(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    args = ["mag", "boolean:2", "--cache", str(cache)]
    _run(capsys, args)
    (path,) = list(cache.iterdir())
    path.write_text("{ mangled")
    code, out, err = _run(capsys, args)
    assert code == 0
    assert "series: 4, -8, 12" in out
    assert "cache" in err  # warned, recomputed


def test_cache_rejects_wrong_presentation(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    arr = catalog("boolean:2")
    key = cache_key(arr)
    doctored = {"version": cli.SCHEMA_VERSION, "dimension": 2,
                "rows": [[9, 9]], "masks": [], "witnesses": []}
    (cache / f"{key}.json").write_text(json.dumps(doctored))
    code, out, err = _run(capsys, ["mag", "boolean:2", "--cache", str(cache)])
    assert code == 0
    assert "series: 4, -8, 12" in out


def _duplicate_first_mask(entry):
    entry["masks"][1] = entry["masks"][0]
    entry["witnesses"][1] = entry["witnesses"][0]


def _move_first_witness(entry):
    entry["witnesses"][0] = entry["witnesses"][-1]


@pytest.mark.parametrize("corrupt", [_duplicate_first_mask, _move_first_witness])
def test_cache_entry_is_checked_on_load(capsys, tmp_path, corrupt):
    cache = tmp_path / "cache"
    cache.mkdir()
    args = ["lattice", "u34", "--cache", str(cache)]
    _, plain, _ = _run(capsys, ["lattice", "u34"])
    _run(capsys, args)
    (path,) = list(cache.iterdir())
    entry = json.loads(path.read_text())
    corrupt(entry)
    path.write_text(json.dumps(entry))
    code, out, err = _run(capsys, args)
    assert code == 0
    assert out == plain
    assert "cache: discarding" in err and "cache: miss" in err
    code, out, err = _run(capsys, args)  # the rewritten entry is good
    assert out == plain and "cache: hit" in err


def test_cache_key_ignores_row_order_and_scaling():
    a = cache_key(catalog("boolean:2"))
    from magarr.arrangement import parse_arrangement

    b = cache_key(parse_arrangement([[0, -3], [2, 0]]))
    assert a == b
    c = cache_key(parse_arrangement([[1, 1], [1, -1]]))
    assert a != c


def test_load_arrangement_normalizes_case():
    arr, name, is_file = load_arrangement("U34")
    assert name == "u34" and not is_file
    arr, name, is_file = load_arrangement("coxeter:b2")
    assert name == "coxeter:B2"


def test_jobspec_validation():
    with pytest.raises(ParseError):
        JobSpec(source="u34", task="mag", lmax=-2)
    with pytest.raises(ParseError):
        JobSpec(source="u34", task="unknown")


def test_golden_fixture_files_are_complete():
    mags = golden_magnitude()
    from magarr.arrangement import CATALOG_NAMES

    assert set(mags) == set(CATALOG_NAMES)
    for entry in mags.values():
        assert len(entry["series"]) == 11
    betti = golden_betti()
    assert set(betti) == {
        "boolean:2", "braid:3", "coxeter:B2", "braid:4",
        "u34", "k4me", "braid:5", "u45",
    }
    for entry in betti.values():
        assert not entry["torsion"]
    extras = golden_extras()
    assert "A(9,1)" in extras and len(extras) == 14


def test_cache_env_variable(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    cache.mkdir()
    monkeypatch.setenv("MAGARR_CACHE", str(cache))
    code, _, _ = _run(capsys, ["mag", "boolean:1"])
    assert code == 0
    assert len(list(cache.iterdir())) == 1
    monkeypatch.delenv("MAGARR_CACHE")
    code, _, _ = _run(capsys, ["mag", "boolean:1"])
    assert code == 0
