"""Release gate: every shipped claim, one test per numbered criterion.

All comparisons are exact; there are no tolerances anywhere.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Geometry is cached across criteria, so this module is also
the cheapest way to recompute every shipped fixture from scratch.
"""

from __future__ import annotations

import json
import time

from conftest import (
    EIGHTEEN_LINES,
    NO_SYSTEM,
    check_instance_laws,
    cyclotomic,
    geometry,
    homology_of,
    magnitude_checks_of,
    magnitude_of,
    power,
    random_arrangements,
)
from magarr.arrangement import CATALOG_NAMES
from magarr.cli import golden_betti, golden_magnitude, main
from magarr.homology import (
    conjecture_probes,
    default_length_cap,
    structural_checks,
)
from magarr.magnitude import (
    alternating_violation,
    free_involution_basis,
    rank3_magnitude,
    varchenko_det,
    varchenko_det_product,
)
from magarr.polyq import IntPoly, reduce_fraction, series_expand

MAGNITUDE_FIXTURES = (
    "boolean:1",
    "boolean:2",
    "boolean:3",
    "boolean:4",
    "braid:4",
    "coxeter:B3",
    "u34",
    "k4me",
    "nearpencil:4",
    "nearpencil:5",
)

CLOSED_FORMS = {
    "braid:4": (24, ((2, 2), (3, 1), (4, 1))),
    "coxeter:B3": (48, ((2, 3), (3, 1), (4, 1), (6, 1))),
}

# named magnitude checks made on every input; the rank-3 closed form and
# the determinant join where they apply
MAGNITUDE_CHECKED = (
    "series_integral",
    "one_point_property",
    "degree_gap_is_n",
    "palindromic_num",
    "palindromic_den",
    "cyclotomic_denominator",
    "inversion_symmetry",
    "series_chamber_count",
    "series_edge_count",
    "interior_at_one",
    "face_decomposition_route",
)

# named homology checks made at every cap; the closed forms at lengths
# 0, 1 and 2 join as the cap reaches them
ALWAYS_CHECKED = (
    "chain_counts_match_recursion",
    "euler_of_homology_matches_chains",
    "euler_matches_series",
    "geodesic_two_routes",
    "diagonal_formula",
    "reciprocity",
    "face_decomposition",
)
SMALL_LENGTH_CHECKED = {
    0: ("b00_chambers",),
    1: ("b11_walls",),
    2: ("b12_vanishes", "b22_recursion"),
}


def _cells(table):
    return {k: v for k, v in table.items() if v}


def test_01_magnitude_fixture_values():
    """Reduced fractions and first eleven coefficients, under 10s each."""
    golden = golden_magnitude()
    for name in MAGNITUDE_FIXTURES:
        t0 = time.monotonic()
        geometry(name)
        mag = magnitude_of(name)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, (name, elapsed)
        want = golden[name]
        assert list(mag.magnitude.num.coeffs) == want["num"], name
        assert list(mag.magnitude.den.coeffs) == want["den"], name
        assert list(mag.series) == want["series"], name
    for d in range(1, 5):
        mag = magnitude_of(f"boolean:{d}").magnitude
        assert mag == reduce_fraction(IntPoly.const(2 ** d),
                                      power(IntPoly((1, 1)), d))
    for name, (num, factors) in CLOSED_FORMS.items():
        mag = magnitude_of(name).magnitude
        den = IntPoly((1,))
        for k, mult in factors:
            den = den * power(cyclotomic(k), mult)
        assert mag.num == IntPoly.const(num) and mag.den == den, name
    mag = magnitude_of("u34").magnitude
    assert mag.num == IntPoly((14, -20, 14))
    assert mag.den == power(cyclotomic(2), 2) * cyclotomic(8)
    mag = magnitude_of("k4me").magnitude
    assert mag.num == IntPoly((18, -2, -8, -2, 18))
    assert mag.den == power(cyclotomic(2), 3) * cyclotomic(3) * cyclotomic(10)
    for name in ("nearpencil:4", "nearpencil:5"):
        arr, graph, lattice, _ = geometry(name)
        got = rank3_magnitude(arr.n, len(graph),
                              lattice.rank3_line_multiplicities())
        assert got == magnitude_of(name).magnitude, name
    print("PASS 1: magnitude fixtures, reduced forms and series")


def test_02_varchenko_determinant_product_formula():
    """Eliminated determinant equals the flat product, both in factored
    form, under 60s total."""
    t0 = time.monotonic()
    for name in ("boolean:2", "boolean:3", "boolean:5", "braid:3", "u34",
                 "braid:4", "coxeter:B3"):
        _, graph, lattice, group = geometry(name)
        basis = free_involution_basis(graph, group)
        assert (varchenko_det(graph, basis, NO_SYSTEM)
                == varchenko_det_product(lattice)), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    print("PASS 2: determinant two-route agreement")


def test_03_structural_suite_on_all_fixtures():
    """Every named arrangement passes every magnitude-level check, and
    mag makes exactly the checks that apply to it."""
    for name in CATALOG_NAMES:
        _, graph, lattice, _ = geometry(name)
        checks = magnitude_checks_of(name)
        bad = sorted(k for k, v in checks.items() if not v)
        assert not bad, (name, bad)
        # a check that is dropped, or skipped where it applies, fails here
        want = set(MAGNITUDE_CHECKED)
        if lattice.rank == 3:
            want.add("rank3_closed_form")
        if len(graph) <= 60:
            want.add("varchenko_det_product")
        assert set(checks) == want, name
    print("PASS 3: structural theorems on all catalog arrangements")


def test_04_rank3_closed_form_sign_break():
    """Series of the 18-line statistics breaks alternation at degree 4."""
    t0 = time.monotonic()
    mag = rank3_magnitude(*EIGHTEEN_LINES)
    series = series_expand(mag, 10)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    assert tuple(series)[:9] == (
        216, -672, 792, -360, -72, -48, 720, -1392, 1512,
    )
    assert alternating_violation(series) == 4
    print("PASS 4: non-alternating rank-3 series")


def test_05_betti_tables_cell_for_cell():
    """All eight frozen tables, recomputed exactly and torsion-free."""
    budgets = {"braid:4": 300.0, "braid:5": 3600.0}
    for name, fixture in sorted(golden_betti().items()):
        lmax = fixture["lmax"]
        t0 = time.monotonic()
        res = homology_of(name, lmax)
        elapsed = time.monotonic() - t0
        assert elapsed < budgets.get(name, 300.0), (name, elapsed)
        want = {
            tuple(int(x) for x in key.split(",")): v
            for key, v in fixture["betti"].items()
        }
        assert _cells(res.betti) == _cells(want), name
        assert not res.torsion, name
        assert not fixture["torsion"], name
    print("PASS 5: eight betti tables reproduced")


def test_06_homology_identity_suite(capsys):
    """Every named homology check passes on every catalog arrangement at
    its default cap and on the eight frozen tables at their own cap, and
    verify prints exactly these checks."""
    runs = [(name, default_length_cap(geometry(name)[1]))
            for name in CATALOG_NAMES]
    runs += [(name, fixture["lmax"])
             for name, fixture in sorted(golden_betti().items())]
    named = {}
    for name, lmax in runs:
        arr, _, lattice, group = geometry(name)
        res = homology_of(name, lmax)  # raises if any boundary square fails
        checks = named[name, lmax] = structural_checks(lattice, group, res,
                                                       face_check=True)
        bad = sorted(k for k, v in checks.items() if not v)
        assert not bad, (name, lmax, bad)
        # a check that is dropped, or skipped where it applies, fails here
        want = set(ALWAYS_CHECKED)
        for length, names in SMALL_LENGTH_CHECKED.items():
            if lmax >= length:
                want.update(names)
        if lattice.rank == arr.n:
            want |= {"diagonal_only", "interior_diagonal_boolean"}
        else:
            want.add("interior_diagonal_vanishes")
            if lmax >= arr.n:
                want.add("corner_class_present")
        assert set(checks) == want, (name, lmax)

    # verify braid:4 prints the magnitude checks, the boundary square,
    # the checks above and the golden diffs, and nothing else
    lmax = golden_betti()["braid:4"]["lmax"]
    want = {f"mag:{key}" for key in magnitude_checks_of("braid:4")}
    want.add("hom:boundary_squares_to_zero")
    want |= {f"hom:{key}" for key in named["braid:4", lmax]}
    want |= {"golden:magnitude", "golden:betti"}
    assert main(["verify", "braid:4"]) == 0
    printed = {
        line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    }
    assert printed == want
    print("PASS 6: homology identity suite")


def test_07_randomized_property_sweep():
    """One hundred random small arrangements, all laws, under 5 minutes."""
    t0 = time.monotonic()
    arrs = random_arrangements(100, seed=20260814)
    total_chambers = 0
    for arr in arrs:
        total_chambers += check_instance_laws(arr)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    assert total_chambers >= 100 * 6  # every instance is a real arrangement
    print(f"PASS 7: 100 random instances in {elapsed:.1f}s")


def test_08_conjecture_probes_report_only():
    """Probes stay observational and find no counterexample anywhere."""
    report = {}
    for name in CATALOG_NAMES:
        _, graph, _, _ = geometry(name)
        mag = magnitude_of(name)
        res = homology_of(name, default_length_cap(graph))
        probes = conjecture_probes(graph, mag, res)
        report[name] = probes
        assert probes["no_counterexample"] is True, (name, probes)
        assert probes["torsion_free"]["observed"], name
    # the report must serialize as-is for downstream tooling
    encoded = json.dumps(report, sort_keys=True)
    assert json.loads(encoded) == report
    print("PASS 8: conjecture probes green on all fixtures")
