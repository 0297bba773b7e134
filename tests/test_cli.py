"""Command-line behaviour: rendering, determinism, caching, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import magarr.arrangement as arrangement
import magarr.cli as cli
import magarr.homology as homology
import magarr.magnitude as magnitude
from conftest import (
    NO_SYSTEM,
    elimination_work,
    general_position_rows,
    geometry,
    localize,
    magnitude_of,
)
from magarr.arrangement import (
    CATALOG_NAMES,
    catalog,
    enumerate_chambers,
    flat_orbits,
    intersection_lattice,
    orbits_of_permutations,
)
from magarr.cli import (
    cache_key,
    golden_betti,
    golden_extras,
    golden_magnitude,
    load_arrangement,
    main,
)
from magarr.errors import CheckFailedError
from magarr.polyq import IntPoly


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


# sha256 of the stdout of `mag <name>`, recorded when the symmetry group
# was still found by trying all 2^d * d! signed coordinate permutations
MAG_STDOUT_DIGESTS = {
    "boolean:1":
        "e1e5a8f251a8ab94d5e0d42c31c7130e9ba9b89ec257de52626e29ec8ee2e47a",
    "boolean:2":
        "87455f161e1e5a9c4f7f2febf200126795040b51aa245b3ef0f9849421b5d628",
    "boolean:3":
        "199c63d8006fa8118b8a9a18faeb3359a79821d3ed8a03d0e8e6988f29da8733",
    "boolean:4":
        "8d88fa1bed3ee54dfa013d6f8acb9e280211458e086127e2bc6fd009f260b5fe",
    "braid:3":
        "6a1f3ba8f877b3ef4ee53809fe49575db9bafe4fe06ed9c6e03eb69f1b4d759e",
    "braid:4":
        "c48afb1bf3c9c4fca9056ce45cc389eb9b79ccecfd490ff72476a61dbb827ba9",
    "braid:5":
        "92c040279062d26efea3e15a853b40f8f355c497c7f243d07af631ce045a08a9",
    "coxeter:B2":
        "b538bc69f9d5e6af1f3b12f6f239fd5fa4e4d30624cf5a4f29a5fafdb6b02457",
    "coxeter:B3":
        "5ee389d08bf0ff16c7887f1fcd9d19b50c0c5e35bbd94ca9715969a9b1fc9269",
    "u34":
        "d9f60480b272830bf8cbb1b2c0a17c543665e4789a9764f87dc2038039ae706b",
    "u45":
        "cb96860db066397c0c004a95d94d181a45766d6219e853ce6d4b9bd6bbaa0068",
    "k4me":
        "5de583e87a8b045b6f59578ac6067aec10cf296a94e3eaec8e6281d3540a276e",
    "k5me":
        "527b25d4f8ee21eade17e00d27bab01b51354e388ccfc2b11cf79c1a557de4f2",
    "bracelet":
        "2ccab1a0797a7efc48c969cb7ed77f65cbc30934c725306eeef971c15737375a",
    "nearpencil:4":
        "7ae5f53bc0446bbf4308437c43827f928ae965ddc26b698282556be54cf6eebe",
    "nearpencil:5":
        "b944f382669d5932aae8c2094f4ec0686fce80b501ed8a7f635b0044f5cdae9c",
    "boolean:5":
        "e06d98c02344a08b50d0e6502e132d7b04896fd10f1a4928d52b2154485dce24",
    "boolean:6":
        "a0da24b811dcf3ec81fec9404e5191d5570e6468489f11c98303465e783992c4",
    "braid:6":
        "90fd3f07da8931c419a59c5ec0d206013b748f35a4eb984511fe5bdeb8820d06",
}


# sha256 of the stdout of `homology <name> --lmax L --no-face-check`,
# recorded before blocks were reduced once per reversal class
HOMOLOGY_STDOUT_DIGESTS = {
    ("braid:4", 6):
        "01c77888c8f6cf503c01ff33e221d034dbaa6ba5fde6edeecd3856fd06014e08",
    ("u45", 6):
        "e4aa3e5edcf60fb3839b96dccb864c4d96681a708a14c8d7dd0d235f95a258bc",
    ("k5me", 5):
        "12d601d9e3313d75a6d6270c109748bc8abfc12a1af3e015136750dad2b9c8a8",
    ("bracelet", 5):
        "111a796f8893237f9d76340611ad1dcd76c100f2bd983e17befffe0356126899",
    ("u34", 8):
        "b4b1b2a5a735ee5d6e204e0e9413e71cb3dfcb5bce5b163e6891339c9c40febb",
    ("coxeter:B3", 6):
        "41de3c172c2ee64fc80f08f9b468c6cca83cc36e32c26f7b7251c0612e47e142",
}


@pytest.mark.parametrize("name, lmax", list(HOMOLOGY_STDOUT_DIGESTS))
def test_homology_stdout_matches_frozen_digest(capsys, name, lmax):
    code, out, _ = _run(capsys, ["homology", name, "--lmax", str(lmax),
                                 "--no-face-check"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == HOMOLOGY_STDOUT_DIGESTS[name, lmax])


@pytest.mark.parametrize("name", list(MAG_STDOUT_DIGESTS))
def test_mag_stdout_matches_frozen_digest(capsys, name):
    code, out, _ = _run(capsys, ["mag", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAG_STDOUT_DIGESTS[name]


@pytest.mark.parametrize("d, order", [
    (7, 645120), (8, 10321920), (9, 185794560), (10, 3715891200),
    (11, 81749606400), (12, 1961990553600)])
def test_mag_boolean_order_above_six(capsys, tmp_path, d, order):
    bundle = tmp_path / "out.json"
    code, out, _ = _run(capsys, ["mag", f"boolean:{d}", "--json", str(bundle)])
    assert code == 0
    assert f"chamber orbits: 1, symmetry order: {order}" in out.splitlines()
    # the magnitude of boolean:d is (2 / (1 + q))^d, by both routes
    task = json.loads(bundle.read_text())["tasks"]["mag"]
    assert task["magnitude"] == {
        "num": [2 ** d], "den": [comb(d, k) for k in range(d + 1)]}
    assert task["checks"]["face_decomposition_route"] is True


@pytest.mark.parametrize("argv", [
    ["mag", "boolean:6"],
    ["lattice", "braid:5"],
    ["homology", "u34", "--no-face-check"],
    ["conjectures", "u34"],
    ["verify", "braid:4", "--lmax", "3"],
])
def test_one_chamber_enumeration_per_run(capsys, monkeypatch, argv):
    # restriction counts are Moebius sums on upper intervals, every task
    # reads its chambers off the one tope graph, and the face check
    # projects each localization's tope graph from it, so a run
    # enumerates the chambers of its own arrangement and of nothing else;
    # the name is patched in every magarr module that binds it
    calls = []

    def counted(arr):
        calls.append(arr)
        return enumerate_chambers(arr)

    monkeypatch.delenv("MAGARR_CACHE", raising=False)
    bound = [mod for key, mod in list(sys.modules.items())
             if mod is not None and key.split(".")[0] == "magarr"
             and vars(mod).get("enumerate_chambers") is enumerate_chambers]
    assert cli in bound
    for mod in bound:
        monkeypatch.setattr(mod, "enumerate_chambers", counted)
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert len(calls) == 1


def _generic_file(tmp_path, seed=1):
    """A file of six seeded planes in general position in R^3."""
    path = tmp_path / f"generic{seed}.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n"
                            for row in general_position_rows(seed)))
    return str(path)


@pytest.mark.parametrize("source,eliminations", [
    ("generic", 2),  # E = G = {1, -1}: the system and one of two blocks
    ("coxeter:B3", 1 + 2 ** 3),  # |G| = 48, E of order 8: every block
])
def test_verify_eliminates_the_magnitude_system_once(
        capsys, monkeypatch, tmp_path, source, eliminations):
    # the determinant block that equals the magnitude system takes its
    # determinant from that system's elimination; every other block is
    # eliminated
    bareiss = magnitude._bareiss_minors
    calls = []

    def counted(rows, weights, h, bits):
        calls.append(len(rows))
        return bareiss(rows, weights, h, bits)

    monkeypatch.setattr(magnitude, "_bareiss_minors", counted)
    if source == "generic":
        source = _generic_file(tmp_path)
    code, out, _ = _run(capsys, ["verify", source, "--lmax", "2"])
    assert code == 0 and "PASS mag:varchenko_det_product" in out
    assert len(calls) == eliminations


def _recorded_works(monkeypatch, n, eliminate=True):
    """Route ``_bareiss_minors`` through a recorder of each call's
    ``elimination_work``, where the hyperplane count n bounds every
    entry's degree; without ``eliminate`` every minor reads 1."""
    bareiss = magnitude._bareiss_minors
    works = []

    def counted(rows, weights, h, bits):
        assert bits == magnitude._hadamard_bits(rows)
        works.append(elimination_work(len(rows), n, bits))
        if eliminate:
            return bareiss(rows, weights, h, bits)
        return [1] * len(rows)

    monkeypatch.setattr(magnitude, "_bareiss_minors", counted)
    return works


@pytest.mark.parametrize("argv", [
    *(["mag", name] for name in CATALOG_NAMES),
    # the eliminations do not depend on --lmax, so a low one keeps it quick
    *(["verify", name, "--lmax", "2"] for name in CATALOG_NAMES),
], ids=" ".join)
def test_every_elimination_runs_under_the_estimate(capsys, monkeypatch, argv):
    works = _recorded_works(monkeypatch, catalog(argv[1]).n)
    code, _, _ = _run(capsys, argv)
    assert code == 0 and works
    assert max(works) <= magnitude.ELIMINATION_BUDGET


def test_det_check_blocks_run_under_the_estimate(monkeypatch):
    # mag braid:5 --det-check eliminates four 30 x 30 blocks of up to 135
    # bits, W about 4.4e13, in about 12 s; the blocks and their bits do
    # not depend on the minors, so they are recorded without eliminating
    _, graph, _, group = geometry("braid:5")
    basis = magnitude.free_involution_basis(graph, group)
    works = _recorded_works(monkeypatch, graph.n, eliminate=False)
    magnitude.varchenko_det(graph, basis, NO_SYSTEM)
    assert len(works) == 4
    assert 4e13 < max(works) <= magnitude.ELIMINATION_BUDGET


def test_a_wrong_reused_determinant_fails_the_determinant_check(
        capsys, monkeypatch, tmp_path):
    # det S times a factor, as the magnitude system hands on (g, det S),
    # must fail the determinant check and nothing else: 1 + q is Phi_2,
    # which moves an exponent, and 1 + q + q^3 is not cyclotomic
    fraction = magnitude.magnitude_fraction
    source = _generic_file(tmp_path)
    for skew in (IntPoly((1, 1)), IntPoly((1, 1, 0, 1))):
        def skewed(graph, group):
            mag, (matrix, (g, det_s)) = fraction(graph, group)
            return mag, (matrix, (g, det_s * skew))

        monkeypatch.setattr(magnitude, "magnitude_fraction", skewed)
        code, out, _ = _run(capsys, ["verify", source, "--lmax", "2"])
        assert code == 1, skew
        assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
            "FAIL mag:varchenko_det_product"], skew


@pytest.mark.parametrize("argv", [["mag", "u34"],
                                  ["verify", "u34", "--lmax", "2"]])
def test_the_denominator_is_factored_once(capsys, monkeypatch, argv):
    # the cyclotomic check reads the factors the result keeps; the
    # determinant check factors each of its distinct blocks too, so only
    # the calls on the magnitude's denominator are counted
    den = magnitude_of("u34").magnitude.den
    calls = []

    def counted(p, kmax):
        calls.append(p)
        return factor(p, kmax)

    factor = magnitude.cyclotomic_factor
    monkeypatch.setattr(magnitude, "cyclotomic_factor", counted)
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert calls.count(den) == 1


def test_a_stored_remainder_fails_the_cyclotomic_check(capsys, monkeypatch):
    direct = cli.magnitude_direct

    def skewed(graph, group):
        return replace(direct(graph, group), cyclotomic_rem=IntPoly((2,)))

    monkeypatch.setattr(cli, "magnitude_direct", skewed)
    code, out, _ = _run(capsys, ["verify", "u34", "--lmax", "2"])
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL mag:cyclotomic_denominator"]


def test_face_check_shares_no_block_with_the_main_run(
        capsys, monkeypatch, tmp_path):
    # every block the main run reduces has its ranks in positive degree
    # doubled, while the face check's localization runs reduce their own
    # blocks: had they read the main run's memo, both sides of the face
    # decomposition would double together and agree
    morse_block = homology._morse_block
    face_check = homology.face_decomposition_check
    inside = []

    def perturbed(into, key, *rest):
        out = morse_block(into, key, *rest)
        if inside:
            return out
        return {k: (2 * b if k else b, tor, dim)
                for k, (b, tor, dim) in out.items()}

    def marked(*args):
        inside.append(True)
        try:
            return face_check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(homology, "_morse_block", perturbed)
    monkeypatch.setattr(homology, "face_decomposition_check", marked)
    code, out, _ = _run(capsys, ["verify", _generic_file(tmp_path),
                                 "--lmax", "4"])
    assert code == 1
    assert "FAIL hom:face_decomposition" in out.splitlines()


@pytest.mark.parametrize("source,graphs", [
    ("generic", 2), ("bracelet", 7), ("nearpencil:5", 3)])
def test_one_localization_run_per_distinct_tope_graph(
        capsys, monkeypatch, tmp_path, source, graphs):
    # the face check runs interior homology once per tope graph among the
    # proper flat orbits' localizations, each enumerated afresh here
    if source == "generic":
        source = _generic_file(tmp_path)
    arr = load_arrangement(source)[0]
    graph = enumerate_chambers(arr)
    lattice = intersection_lattice(graph)
    group = magnitude.chamber_orbits(graph)[2]
    reps = [lattice.flats[members[0]]
            for members in flat_orbits(lattice, group)[1]]
    shapes = {(len(f.hyperplanes),
               enumerate_chambers(localize(arr, f.hyperplanes)).masks)
              for f in reps if 0 < f.rank < lattice.rank}
    runs = []
    run = homology.magnitude_homology

    def counted(graph, **kwargs):
        if kwargs.get("interior_only"):
            runs.append((graph.n, graph.masks))
        return run(graph, **kwargs)

    monkeypatch.setattr(homology, "magnitude_homology", counted)
    code, out, _ = _run(capsys, ["verify", source, "--lmax", "2"])
    assert code == 0 and "PASS hom:face_decomposition" in out.splitlines()
    assert len(runs) == len(set(runs)) == len(shapes) == graphs
    assert set(runs) == shapes


def test_one_flat_orbit_pass_per_verify(capsys, monkeypatch):
    # the face route, the face check and the geodesic formula read one
    # flat orbit partition, memoized on the lattice
    calls = []

    def counted(count, perms):
        calls.append(count)
        return orbits_of_permutations(count, perms)

    monkeypatch.delenv("MAGARR_CACHE", raising=False)
    monkeypatch.setattr(arrangement, "orbits_of_permutations", counted)
    code, out, _ = _run(capsys, ["verify", "braid:4", "--lmax", "3"])
    assert code == 0 and "FAIL" not in out
    assert calls == [15]  # one pass over the 15 flats, the partitions of 4


@pytest.mark.parametrize("task", ["homology", "verify", "conjectures"])
def test_one_magnitude_system_per_task(capsys, monkeypatch, task):
    # the chain-count check reads the system M the magnitude was solved
    # from, so a task that runs both builds M once
    calls = []
    build = magnitude.orbit_matrix

    def counted(graph, orbits):
        calls.append(len(orbits))
        return build(graph, orbits)

    monkeypatch.delenv("MAGARR_CACHE", raising=False)
    monkeypatch.setattr(magnitude, "orbit_matrix", counted)
    monkeypatch.setattr(homology, "orbit_matrix", counted)
    code, out, _ = _run(capsys, [task, "braid:4", "--lmax", "3"])
    assert code == 0 and "FAIL" not in out
    assert calls == [1]  # the 24 orderings of 4 form one orbit


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


def test_three_chain_line_prints_up_to_sixty_chambers(capsys):
    # the closed form in rank 2 (n + 1), from rank 3 on (3) and in rank 1
    # (none), printed only up to FOUR_CUT_LIMIT chambers
    lines = {"nearpencil:16": "3", "nearpencil:17": None, "coxeter:B2": "5",
             "braid:3": "4", "boolean:1": None}
    for name, want in lines.items():
        code, out, _ = _run(capsys, ["homology", name, "--lmax", "2"])
        assert code == 0
        got = [l.rpartition(": ")[2] for l in out.splitlines()
               if l.startswith("shortest non-geodesic 3-chain: ")]
        assert got == ([want] if want else []), name


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
    assert payload["corner_matches_chambers"]["components"] == [[0, 1, 2, 3]]


def test_conjectures_see_a_sum_without_rank2_joins(capsys, tmp_path):
    # U(3,4) plus a line: no rank-2 flat joins the line's complement, yet
    # the input is a direct sum, so the corner probe does not apply
    path = tmp_path / "u34line.json"
    path.write_text(json.dumps({"normals": [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]]}))
    code, out, _ = _run(capsys, ["conjectures", str(path), "--lmax", "5"])
    assert code == 0
    assert out.splitlines()[0].endswith(" 28 chambers")
    payload = json.loads("\n".join(out.splitlines()[1:]))
    corner = payload["corner_matches_chambers"]
    assert corner["decomposable"] is True
    assert corner["components"] == [[0, 1, 2, 3], [4]]
    assert corner["applies"] is False
    # the cyclotomic probe does not exclude decomposable arrangements: in
    # rank 4 it asks for Phi_5, finds a non-uniform distance profile and
    # no Phi_5, and reports a counterexample.  A decision to exclude
    # them must edit this test.
    probe = payload["nonuniform_forces_cyclotomic_factor"]
    assert probe["counterexample"] is True
    assert probe["required_order"] == 5
    assert probe["profile_uniform"] is False
    assert payload["no_counterexample"] is False


def test_lattice_task_lists_flats(capsys):
    code, out, _ = _run(capsys, ["lattice", "braid:3"])
    assert code == 0
    assert "rank 0: 1 flats" in out
    assert "rank 1: 3 flats" in out
    assert "rank 2: 1 flats" in out
    assert "chambers: 6" in out


# sha256 of the `lattice <name> --json` bundle, which lists every flat's
# hyperplanes, rank, mu(0, X) and restriction count in flat order
LATTICE_JSON_DIGESTS = {
    "boolean:1":
        "409df88f6a5df895e33d0df6ec74295f05a5bf8e4324f30560538d76980fac67",
    "boolean:2":
        "8bc1d98f61815aaf376822711b41096024e2da999bb7ec99969e68000d86e771",
    "boolean:3":
        "5c3bf4cc71e9f32a63596e02ae535a534bbd0fbc8a3c9cc371809bcc4f5fe238",
    "boolean:4":
        "06c879edf2342d54651842b5c2eaa7186b9adc24ffe190c53205659b611f03b1",
    "braid:3":
        "9a61bb8ce93bb9d1f3d782f0400aca00c2b786695e461af42474ef2933f5b279",
    "braid:4":
        "98ad854ccb1e71777cbd811deaceff52b78f6a72c731aa18fc738a03cef6aad5",
    "braid:5":
        "f5146ab6782370a5958cbf10780b8de0a9cd5b623022f230d8f6cec408c8bb52",
    "coxeter:B2":
        "8285a57c696102c3db5e30f8efbc5a27732182db6f376b4fecf0ae6828634f4f",
    "coxeter:B3":
        "5bbf35883eb6d775293e32a5259fa8a9da6da4fecdab173506f8b348f7f40d58",
    "u34":
        "fd977497a9a3df179627eb262c6245d038ed89cf2231deb10d3b487810c80551",
    "u45":
        "d6b30e90257501d1ca32c6bc95f5d840218f0c6bb4fbcc588957ecfaa3bb215c",
    "k4me":
        "42df82fa4bd18cfa0b709c093e62ac114cb39c09f4a668849271e1c8f9b4f5bc",
    "k5me":
        "6e84b3d037edd9d47a2a1d46e525c8b9aeabd8bb8eceafdc8f8ee2ead65a95ce",
    "bracelet":
        "44231e604defb23aa7941ebaf9017b695f8bcaa3664f723566d2c91288700e3c",
    "nearpencil:4":
        "016f602b138cbc08441cd2c41733275cbbd455856c56d68463c92b5267b76022",
    "nearpencil:5":
        "d13a0088c02da05d6c7c3b600656a4eec4d6cba04c8c6cc34ac86bab143154ee",
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_lattice_json_matches_frozen_digest(capsys, tmp_path, name):
    path = tmp_path / "lattice.json"
    code, _, _ = _run(capsys, ["lattice", name, "--json", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        LATTICE_JSON_DIGESTS[name]


def test_unknown_name_is_a_parse_error(capsys):
    code, _, err = _run(capsys, ["mag", "no-such-arrangement"])
    assert code == 2
    assert "error:" in err


def test_non_canonical_catalog_spelling_is_a_parse_error(capsys):
    # boolean:03 would build boolean:3 but not be matched against its
    # golden values, so only the plain decimal spelling is a name
    code, out, err = _run(capsys, ["verify", "boolean:03"])
    assert code == 2
    assert out == ""
    assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1
    assert "unknown catalog name" in err
    assert "Traceback" not in err


def test_huge_nearpencil_is_a_parse_error():
    # nearpencil:n builds n rows, so without a bound this run fills any
    # memory; under a 512 MiB address-space cap it must stop at parsing
    def cap_memory():
        limit = 512 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "lattice", "nearpencil:100000000"],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: nearpencil:n needs 3 <= n <= 1025"]


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
    pytest.param('{"normals": [[1%s, 1], [0, 1]]}' % ("0" * 5000),
                 id="int_over_digit_cap"),
    {"normals": [[True, 0], [0, 1]]},  # a boolean is not a number
])
def test_malformed_json_source_is_a_parse_error(capsys, tmp_path, doc):
    src = tmp_path / "arr.json"
    src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc, field", [
    pytest.param({"normals": [[1, 0], [0, 1]], "labels": "ab"}, "labels",
                 id="labels_string"),
    pytest.param({"normals": [[1, 0], [0, 1]], "labels": 5}, "labels",
                 id="labels_int"),
    pytest.param({"normals": [[1, 0], [0, 1]], "labels": [1, 2]}, "labels",
                 id="labels_not_strings"),
    pytest.param({"normals": {"a": 1}}, "normals", id="normals_object"),
    pytest.param({"normals": ["10", "01"]}, "normals", id="rows_strings"),
    pytest.param({"normals": [[1, 0], 5]}, "normals", id="row_int"),
])
def test_json_field_shapes_are_checked(capsys, tmp_path, doc, field):
    # "ab" is not read as the labels a, b, nor "10" as the row (1, 0)
    src = tmp_path / "arr.json"
    src.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    kind = "strings" if field == "labels" else "lists"
    assert err == f"error: {src}: '{field}' must be a list of {kind}\n"


@pytest.mark.parametrize("normals", [
    [[0.1, 0.3, 0], [1, 3, 0], [0, 0, 1]],
    [["0.1", "0.3", 0], [1, 3, 0], [0, 0, 1]],
])
def test_json_decimals_are_read_exactly(capsys, tmp_path, normals):
    # 0.1 and 0.3 are 1/10 and 3/10, so row 0 is row 1 scaled
    src = tmp_path / "arr.json"
    src.write_text(json.dumps({"normals": normals}))
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    assert err == "error: rows 0 and 1 define the same hyperplane\n"


def test_json_decimal_rows_match_integer_rows(capsys, tmp_path):
    outs = []
    for normals in ([[0.5, 1], [0, 1]], [[1, 2], [0, 1]]):
        src = tmp_path / "arr.json"
        src.write_text(json.dumps({"normals": normals}))
        code, out, _ = _run(capsys, ["lattice", str(src)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("dimension", ["2", True, 2.5])
def test_json_dimension_must_be_an_integer(capsys, tmp_path, dimension):
    src = tmp_path / "arr.json"
    src.write_text(json.dumps({"normals": [[1, 0], [0, 1]],
                               "dimension": dimension}))
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code == 2
    assert out == ""
    assert err == f"error: {src}: 'dimension' must be an integer\n"


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


_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "0.5", "1e3", "1/0", "nan", "inf", "x",
                     "#", "0x1", "1_0", "\u00bd", "9" * 5000]),
    st.text(max_size=3),
)
_TEXT_SOURCES = st.lists(
    st.lists(_TOKENS, max_size=4).map(" ".join), max_size=5,
).map("\n".join)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.sampled_from([0.5, 1e300, float("inf"), float("nan")]),
              st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
_JSON_SOURCES = st.one_of(
    st.dictionaries(st.sampled_from(["normals", "labels", "dimension", "x"]),
                    _JSON_VALUES, max_size=4).map(json.dumps),
    _JSON_VALUES.map(lambda v: "{" + json.dumps(v)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.one_of(_TEXT_SOURCES, _JSON_SOURCES,
                        st.binary(max_size=12)))
def test_malformed_sources_exit_cleanly(capsys, tmp_path, source):
    # whatever the file holds, lattice succeeds or gives one error line
    src = tmp_path / "fuzz.txt"
    if isinstance(source, bytes):
        src.write_bytes(source)
    else:
        src.write_text(source, encoding="utf-8")
    code, out, err = _run(capsys, ["lattice", str(src)])
    assert code in (0, 2), (source, code, err)
    if code == 2:
        assert out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1, err


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


@pytest.mark.parametrize("task", cli.TASKS)
def test_closed_stdout_is_a_usage_error(task):
    # stdout is a pipe whose read end is closed before the run starts
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "magarr.cli", task, "boolean:2"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr[-2000:]
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "stdout" in errors[0]
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_negative_lmax_rejected(capsys):
    code, _, err = _run(capsys, ["homology", "boolean:2", "--lmax", "-1"])
    assert code == 2
    assert "lmax" in err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_BUDGET", 3)
    code, _, err = _run(capsys, ["homology", "braid:3", "--lmax", "4"])
    assert code == 3
    assert "lower --lmax" in err


def test_huge_lmax_stops_on_the_chain_budget():
    # the key search goes lmax deep and records every key on the way, so
    # without a budget this run fills any memory; under a 256 MiB
    # address-space cap it must stop on the budget, not on MemoryError
    def cap_memory():
        limit = 256 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "homology", "u34",
         "--lmax", "100000"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("; lower --lmax")
    assert "Traceback" not in proc.stderr


def test_large_block_stops_on_the_reduction_charge():
    # boolean:8 at lmax 8 finds few keys but reduces a 545,835-chain
    # block, which takes over a gigabyte; the per-chain reduction charge
    # stops it on the budget under a 512 MiB address-space cap
    def cap_memory():
        limit = 512 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "homology", "boolean:8",
         "--lmax", "8"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("; lower --lmax")
    assert "Traceback" not in proc.stderr


def test_det_check_stops_on_the_determinant_budget():
    # bracelet's group has no free involution but the antipode, so its
    # determinant splits into two 51 x 51 blocks of 197 bits, which would
    # take minutes to eliminate; the budget stops it before the elimination
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "mag", "bracelet",
         "--det-check"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("; drop --det-check")
    assert "Traceback" not in proc.stderr


def test_det_check_on_1024_chambers_is_quick(capsys):
    # the determinant of boolean:10 splits into 1024 blocks of order 1,
    # 11 of them distinct; each is eliminated and factored once, and no
    # polynomial of the determinant's degree 10240 is formed
    t0 = time.monotonic()
    code, out, _ = _run(capsys, ["mag", "boolean:10", "--det-check"])
    elapsed = time.monotonic() - t0
    assert code == 0 and out.splitlines()[-1] == "checks: 12/12 ok"
    assert elapsed < 10.0, elapsed


def test_many_chamber_orbits_stop_on_the_magnitude_budget():
    # nearpencil:29 has 28 chamber orbits on 29 hyperplanes, so its
    # bordered system has order 29 and 129 Hadamard bits: work 29^3 x
    # (29 x 29 x 129)^2, about 2.87e14, would take over 15 s to eliminate;
    # the budget stops it before the system is built
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "mag", "nearpencil:29"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith(
        "(observed 287055191658069); try a smaller arrangement")
    assert "Traceback" not in proc.stderr


def test_many_chambers_stop_on_the_chamber_budget(tmp_path):
    # the planes with normals (1, t, t^2), t = 1..200, are in general
    # position in R^3, with n^2 - n + 2 = 39,802 chambers, and the lattice
    # alone took about a minute; enumeration stops at the 92nd plane,
    # the first step past the budget (t = 1..91 gives exactly 8192)
    path = tmp_path / "moment.txt"
    path.write_text("".join(f"1 {t} {t * t}\n" for t in range(1, 201)))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "lattice", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert errors == ["error: chambers: budget 8192 exceeded "
                      "(observed 8374); try fewer hyperplanes"]
    assert "Traceback" not in proc.stderr


def test_cache_entry_with_too_few_chambers_stops_at_its_flats(tmp_path):
    # a hand-written entry lists one chamber of the 400 planes (1, t, t^2),
    # which have 159,602 chambers and 79,801 flats; the lattice used to be
    # built whole (about 8 s) before the Zaslavsky count threw the entry
    # away, and now stops at its second flat, so what remains is the fresh
    # enumeration up to the chamber budget
    path = tmp_path / "moment.txt"
    rows = [[1, t, t * t] for t in range(1, 401)]
    path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in rows))
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = {"version": cli.SCHEMA_VERSION, "dimension": 3, "rows": rows,
             "masks": [(1 << 400) - 1], "witnesses": [[1, 0, 0]]}
    key = cache_key(load_arrangement(str(path))[0])
    (cache / f"{key}.json").write_text(json.dumps(entry))
    src = str(Path(cli.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "magarr.cli", "lattice", str(path),
         "--cache", str(cache)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    discards = [l for l in lines if l.startswith("cache: discarding")]
    assert len(discards) == 1
    assert discards[0].endswith(": more flats than the 1 chambers")
    errors = [l for l in lines if l.startswith("error:")]
    assert errors == ["error: chambers: budget 8192 exceeded "
                      "(observed 8374); try fewer hyperplanes"]
    assert "Traceback" not in proc.stderr
    assert elapsed < 8


@pytest.mark.parametrize("target", ["series_expand", "_assert_d2_zero"])
def test_verify_reports_a_homology_failure_by_its_cause(capsys, monkeypatch,
                                                        target):
    def fail(*_args, **_kwargs):
        raise CheckFailedError(f"doctored {target}")

    monkeypatch.setattr(homology, target, fail)
    code, out, err = _run(capsys, ["verify", "boolean:2"])
    assert code == 1
    assert err.splitlines()[-1] == f"error: doctored {target}"
    assert "FAIL hom:" not in out
    assert "Traceback" not in err


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


def test_unwritable_cache_entry_is_a_parse_error(capsys, tmp_path):
    cache = tmp_path / "cache"
    entry = cache / f"{cache_key(catalog('u34'))}.json"
    entry.mkdir(parents=True)  # os.replace onto it fails
    code, out, err = _run(capsys, ["lattice", "u34", "--cache", str(cache)])
    assert code == 2
    assert out == ""
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: --cache")
    assert "Traceback" not in err
    assert list(cache.iterdir()) == [entry]  # no temporary file left


def test_cache_key_follows_the_row_presentation():
    # an entry holds the rows as given, so each presentation has its own
    # key; scaling by a positive number leaves the parsed normals alone
    from magarr.arrangement import parse_arrangement

    a = cache_key(catalog("boolean:2"))
    assert a == cache_key(parse_arrangement([[2, 0], [0, 3]]))
    assert a != cache_key(parse_arrangement([[0, 1], [1, 0]]))  # row order
    assert a != cache_key(parse_arrangement([[-1, 0], [0, 1]]))  # sign
    assert a != cache_key(parse_arrangement([[1, 1], [1, -1]]))


def test_two_presentations_keep_their_own_cache_entries(capsys, tmp_path):
    # the same arrangement with two rows swapped, run alternately
    rows = [list(r) for r in catalog("u34").normals]
    swapped = [rows[1], rows[0]] + rows[2:]
    sources = []
    for stem, normals in (("p1", rows), ("p2", swapped)):
        path = tmp_path / f"{stem}.txt"
        path.write_text("\n".join(" ".join(map(str, r)) for r in normals))
        sources.append(str(path))
    cache = str(tmp_path / "cache")
    notes = []
    for source in sources * 2:
        code, _, err = _run(capsys, ["lattice", source, "--cache", cache])
        assert code == 0 and "discarding" not in err
        notes.append([l for l in err.splitlines() if l.startswith("cache:")])
    assert notes == [["cache: miss"]] * 2 + [["cache: hit"]] * 2


def test_load_arrangement_normalizes_case():
    arr, name, is_file = load_arrangement("U34")
    assert name == "u34" and not is_file
    arr, name, is_file = load_arrangement("coxeter:b2")
    assert name == "coxeter:B2"


def test_unknown_task_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "u34"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "invalid choice: 'frobnicate'" in err and "Traceback" not in err


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
