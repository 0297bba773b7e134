"""Bigraded homology of the proper-chain complex and its identities."""

from __future__ import annotations

import pytest

from conftest import geometry, homology_of, magnitude_of
from magarr.cli import golden_betti
from magarr.errors import BudgetExceededError, CheckFailedError
from magarr.homology import (
    boolean_diagonality,
    chain_count_table,
    default_length_cap,
    diagonal_betti_formula,
    face_decomposition_check,
    four_cut_minimum,
    geodesic_betti_formula,
    interior_diagonal_boolean,
    magnitude_homology,
    reciprocity_check,
    small_length_identities,
)


def _cells(table):
    return {k: v for k, v in table.items() if v}


QUICK_GOLDEN = ["boolean:2", "braid:3", "coxeter:B2"]


@pytest.mark.parametrize("name", QUICK_GOLDEN)
def test_betti_tables_match_frozen_values(name):
    fixture = golden_betti()[name]
    lmax = fixture["lmax"]
    res = homology_of(name, lmax)
    want = {
        tuple(int(x) for x in key.split(",")): v
        for key, v in fixture["betti"].items()
    }
    assert _cells(res.betti) == _cells(want)
    assert not res.torsion
    assert not fixture["torsion"]


@pytest.mark.parametrize("name", QUICK_GOLDEN + ["u34"])
def test_builtin_consistency_checks(name):
    res = homology_of(name, 4)
    assert res.checks["chain_counts_match_recursion"]
    assert res.checks["euler_of_homology_matches_chains"]
    assert res.checks["euler_matches_series"]
    assert res.ok


def test_chain_counts_agree_with_enumeration():
    _, graph, _, _ = geometry("braid:3")
    res = homology_of("braid:3", 5)
    table = chain_count_table(graph, 5)
    assert table == res.chain_dims


def test_chain_count_recursion_small_values():
    _, graph, _, _ = geometry("boolean:1")
    table = chain_count_table(graph, 2)
    # two chambers: constants, one edge pair, and the back-and-forth path
    assert table[(0, 0)] == 2
    assert table[(1, 1)] == 2
    assert table[(2, 2)] == 2
    assert table.get((1, 2), 0) == 0


# k5me: 96 chambers in six orbits of sizes 12 and 24
GEODESIC_CAPS = {"boolean:2": 2, "braid:3": 3, "u34": 4, "k5me": 3}


@pytest.mark.parametrize("name", list(GEODESIC_CAPS))
def test_geodesic_two_routes(name):
    # the geodesic blocks of the main run against the flat-poset formula
    lmax = GEODESIC_CAPS[name]
    arr, graph, lattice, group = geometry(name)
    res = magnitude_homology(arr, graph, lmax=lmax, group=group)
    formula = geodesic_betti_formula(lattice)
    assert not res.geodesic_torsion
    assert _cells(res.geodesic_betti) == {
        k: v for k, v in formula.items() if v and k[1] <= lmax
    }
    for key, v in res.geodesic_betti.items():
        assert 0 < v <= res.betti[key]


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34", "coxeter:B2"])
def test_diagonal_formula(name):
    _, _, lattice, _ = geometry(name)
    res = homology_of(name, 5)
    diag = diagonal_betti_formula(lattice, 5)
    for length in range(6):
        assert res.betti_at(length, length) == diag[length]


def test_interior_diagonal_coordinate_case():
    res = homology_of("boolean:2", 6)
    want = interior_diagonal_boolean(2, 6)
    for length in range(1, 7):
        assert res.interior_betti.get((length, length), 0) == want[length]


@pytest.mark.parametrize("name", ["braid:3", "u34", "nearpencil:4"])
def test_interior_diagonal_vanishes_otherwise(name):
    res = homology_of(name, 5)
    for length in range(1, 6):
        assert res.interior_betti.get((length, length), 0) == 0


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34", "coxeter:B2"])
def test_small_length_identities(name):
    _, _, lattice, _ = geometry(name)
    res = homology_of(name, 4)
    checks = small_length_identities(res, lattice)
    assert checks and all(checks.values()), checks


def test_small_length_identities_respect_cap():
    _, _, lattice, _ = geometry("boolean:2")
    res = homology_of("boolean:2", 0)
    checks = small_length_identities(res, lattice)
    assert set(checks) == {"b00_chambers"}


@pytest.mark.parametrize("name", ["boolean:2", "boolean:3"])
def test_boolean_tables_are_diagonal(name):
    _, _, lattice, _ = geometry(name)
    res = homology_of(name, 5)
    verdict = boolean_diagonality(res, lattice)
    assert verdict == {"diagonal_only": True}


def test_nonboolean_corner_class():
    _, _, lattice, _ = geometry("braid:3")
    res = homology_of("braid:3", 5)
    verdict = boolean_diagonality(res, lattice)
    assert verdict["corner_class_present"]


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34"])
def test_reciprocity(name):
    arr, _, lattice, _ = geometry(name)
    res = homology_of(name, arr.n + 2)
    assert reciprocity_check(res, res.interior_betti, lattice.rank, arr.n)


@pytest.mark.parametrize("name", ["boolean:2", "braid:3"])
def test_face_decomposition_of_tables(name):
    arr, graph, lattice, group = geometry(name)
    res = homology_of(name, 5)
    ok, assembled = face_decomposition_check(arr, lattice, res, group)
    assert ok
    assert assembled == _cells(res.betti)


def test_four_cut_minima():
    values = {"boolean:2": 3, "braid:3": 4, "u34": 3, "coxeter:B2": 5}
    for name, want in values.items():
        _, graph, _, group = geometry(name)
        assert four_cut_minimum(graph, group=group) == want


def test_budget_is_enforced():
    arr, graph, _, _ = geometry("braid:3")
    with pytest.raises(BudgetExceededError) as info:
        magnitude_homology(arr, graph, lmax=4, per_length_budget=5)
    assert info.value.limit == 5
    assert info.value.observed > 5


def test_default_caps_scale_down():
    for name, want in {
        "boolean:2": 4,
        "braid:3": 5,
        "u34": 6,
        "braid:4": 8,
        "braid:5": 6,
    }.items():
        _, graph, _, _ = geometry(name)
        assert default_length_cap(graph) == want


def test_boundary_square_guard_catches_bad_signs():
    # a sign error in a fabricated boundary must trip the guard
    from magarr.homology import _assert_d2_zero

    good = {
        1: {0: {0: -1, 1: 1}},
    }
    _assert_d2_zero(good)
    bad = {
        1: {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}},
        2: {0: {0: 1, 1: 1}},
    }
    with pytest.raises(CheckFailedError):
        _assert_d2_zero(bad)


def test_torsion_free_on_quick_fixtures():
    for name in QUICK_GOLDEN:
        res = homology_of(name, 5)
        assert not res.torsion
        assert not res.interior_torsion
        assert not res.geodesic_torsion


def test_interior_only_run_matches_full_interior_part():
    arr, graph, _, group = geometry("braid:3")
    full = homology_of("braid:3", 4)
    inner = magnitude_homology(
        arr, graph, lmax=4, group=group, interior_only=True, verify_d2=False
    )
    assert _cells(inner.betti) == _cells(full.interior_betti)
