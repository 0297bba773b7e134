"""Bigraded homology of the proper-chain complex and its identities."""

from __future__ import annotations

from dataclasses import replace
from itertools import permutations
import random
import time

import pytest

from conftest import (
    _chain_blocks,
    _raw_memo_key,
    betti_by_every_block,
    every_block,
    geometry,
    homology_of,
    key_orbit_by_closure,
    magnitude_of,
    random_arrangements,
    relabel_bits_by_bits,
    stabilizer_by_closure,
)
import magarr.homology as homology
from magarr.arrangement import CATALOG_NAMES, SymmetryGroup, enumerate_chambers
from magarr.cli import golden_betti
from magarr.errors import BudgetExceededError, CheckFailedError
from magarr.homology import (
    _assert_d2_zero,
    _block_homology,
    _near_lists,
    _relabel_bits,
    _start_blocks,
    canonical_key,
    chain_count_table,
    default_length_cap,
    diagonal_betti_formula,
    face_decomposition_check,
    four_cut_minimum,
    geodesic_betti_formula,
    magnitude_homology,
    structural_checks,
)
from magarr.magnitude import chamber_orbits, magnitude_direct


def _cells(table):
    return {k: v for k, v in table.items() if v}


def _structural(name, lmax, result=None):
    """The named checks of a catalog table, without the face check."""
    _, _, lattice, group = geometry(name)
    if result is None:
        result = homology_of(name, lmax)
    return structural_checks(lattice, group, result, face_check=False)


SMALL_LENGTH = {"b00_chambers", "b11_walls", "b12_vanishes", "b22_recursion"}


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
    assert all(res.checks.values())


def test_chain_counts_agree_with_enumeration():
    _, graph, _, _ = geometry("braid:3")
    res = homology_of("braid:3", 5)
    table = chain_count_table(5, chamber_orbits(graph)[1],
                              _near_lists(graph, 5))
    assert table == res.chain_dims


def test_chain_count_recursion_small_values():
    _, graph, _, _ = geometry("boolean:1")
    table = chain_count_table(2, chamber_orbits(graph)[1],
                              _near_lists(graph, 2))
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
    _, graph, lattice, group = geometry(name)
    res = magnitude_homology(graph, lmax=lmax, group=group)
    formula = geodesic_betti_formula(lattice, group)
    # one sum per flat orbit equals one per flat (the trivial group)
    assert formula == geodesic_betti_formula(lattice, TRIVIAL_GROUP)
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
    # 2^2 * C(l - 1, 1) classes on the interior diagonal of the square
    res = homology_of("boolean:2", 6)
    for length in range(1, 7):
        assert res.interior_betti.get((length, length), 0) == 4 * (length - 1)
    checks = _structural("boolean:2", 6)
    assert checks["interior_diagonal_boolean"]
    assert "interior_diagonal_vanishes" not in checks


@pytest.mark.parametrize("name", ["braid:3", "u34", "nearpencil:4"])
def test_interior_diagonal_vanishes_otherwise(name):
    res = homology_of(name, 5)
    for length in range(1, 6):
        assert res.interior_betti.get((length, length), 0) == 0


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34", "coxeter:B2"])
def test_small_length_identities(name):
    checks = _structural(name, 4)
    assert SMALL_LENGTH <= set(checks)
    assert all(checks[key] for key in SMALL_LENGTH), checks


def test_small_length_identities_respect_cap():
    checks = _structural("boolean:2", 0)
    assert SMALL_LENGTH & set(checks) == {"b00_chambers"}
    assert checks["b00_chambers"]


@pytest.mark.parametrize("name", ["boolean:2", "boolean:3"])
def test_boolean_tables_are_diagonal(name):
    checks = _structural(name, 5)
    assert checks["diagonal_only"]
    assert "corner_class_present" not in checks


def test_nonboolean_corner_class():
    checks = _structural("braid:3", 5)
    assert checks["corner_class_present"]
    assert "diagonal_only" not in checks


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34"])
def test_reciprocity(name):
    arr, _, _, _ = geometry(name)
    assert _structural(name, arr.n + 2)["reciprocity"]


def test_structural_checks_catch_a_wrong_table():
    # one extra class at (1, 1) breaks the wall count and the diagonal
    res = homology_of("braid:3", 4)
    betti = dict(res.betti)
    betti[(1, 1)] += 1
    checks = _structural("braid:3", 4, replace(res, betti=betti))
    assert not checks["b11_walls"] and not checks["diagonal_formula"]
    assert checks["b00_chambers"] and checks["geodesic_two_routes"]


@pytest.mark.parametrize("name", ["boolean:2", "braid:3"])
def test_face_decomposition_of_tables(name):
    _, _, lattice, group = geometry(name)
    res = homology_of(name, 5)
    ok, assembled = face_decomposition_check(lattice, res, group)
    assert ok
    assert assembled == _cells(res.betti)


def test_four_cut_minima():
    values = {"boolean:2": 3, "braid:3": 4, "u34": 3, "coxeter:B2": 5}
    for name, want in values.items():
        _, graph, _, group = geometry(name)
        assert four_cut_minimum(graph, group=group) == want


def test_budget_is_enforced(monkeypatch):
    _, graph, _, _ = geometry("braid:3")
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as info:
        magnitude_homology(graph, lmax=4)
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
    # a sign error in a fabricated boundary must trip the guard, which
    # names the degree and the chain of the failing column
    block = {0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]}
    good = {
        1: {0: {0: -1, 1: 1}},
    }
    _assert_d2_zero(block, good)
    bad = {
        1: {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}},
        2: {0: {0: 1, 1: 1}},
    }
    with pytest.raises(CheckFailedError, match=r"in degree 2 at chain "
                       r"\(0, 1, 2\)$"):
        _assert_d2_zero(block, bad)


def test_boundary_target_outside_block_is_named():
    # (0, 1, 3) is smooth at 1 on the square, so its boundary needs (0, 3)
    _, graph, _, _ = geometry("boolean:2")
    assert list(graph.masks) == [0, 1, 2, 3]
    for block in ({2: [(0, 1, 3)]}, {1: [(0, 1)], 2: [(0, 1, 3)]}):
        with pytest.raises(CheckFailedError,
                           match=r"^boundary target \(0, 3\) outside block$"):
            _block_homology(block, graph.masks)


def test_torsion_free_on_quick_fixtures():
    for name in QUICK_GOLDEN:
        res = homology_of(name, 5)
        assert not res.torsion
        assert not res.interior_torsion
        assert not res.geodesic_torsion


def test_interior_only_run_matches_full_interior_part():
    _, graph, _, group = geometry("braid:3")
    full = homology_of("braid:3", 4)
    inner = magnitude_homology(graph, lmax=4, group=group, interior_only=True)
    assert _cells(inner.betti) == _cells(full.interior_betti)


TRIVIAL_GROUP = SymmetryGroup((), (), 1)


@pytest.mark.parametrize("name, lmax, interior_only", [
    ("braid:4", 5, False),
    ("u45", 4, False),
    ("k5me", 3, False),
    ("boolean:4", 4, False),
    ("coxeter:B3", 4, False),
    ("braid:4", 6, True),
])
def test_stabilizer_collapse_matches_trivial_group(name, lmax, interior_only):
    # one start per chamber orbit, weighted, against every block of
    # every start: each field of the result, the checks included
    _, graph, _, group = geometry(name)
    kwargs = dict(lmax=lmax, interior_only=interior_only,
                  magnitude=magnitude_of(name).magnitude)
    collapsed = magnitude_homology(graph, group=group, **kwargs)
    plain = magnitude_homology(graph, group=TRIVIAL_GROUP, **kwargs)
    assert collapsed == plain
    assert collapsed.betti and all(collapsed.checks.values())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stabilizer_orbits_share_a_memo_key(name):
    # an element fixing the start relabels each block's support and local
    # sign vectors, so the memo alone reduces one block per orbit of the
    # start's stabilizer: every key of an orbit is found, with one memo key
    _, graph, _, group = geometry(name)
    assert len(group) <= 384
    around = _near_lists(graph, 3)
    for orbit in chamber_orbits(graph, group)[1]:
        start = orbit[0]
        blocks, _ = _start_blocks(graph, start, 3, 0, False, around, {}, {})
        stabilizer = stabilizer_by_closure(graph, group, start)
        assert len(stabilizer) * len(orbit) == len(group)
        for key, (memo_key, _block) in blocks.items():
            for image in key_orbit_by_closure(
                    stabilizer, graph.masks[start], graph, key):
                assert blocks[image][0] == memo_key, (name, key, image)


RANDOM_MEMO_CASES = random_arrangements(4, seed=20261018)
MEMO_CASES = [
    ("braid:4", 5, False),
    ("u45", 4, False),
    ("k5me", 3, False),
    ("bracelet", 3, False),
    ("boolean:4", 4, False),
    *((i, 5, False) for i in range(len(RANDOM_MEMO_CASES))),
    ("braid:4", 6, True),
]


def _memo_case(source):
    """(graph, group, magnitude) of a catalog name or of the random
    instance with that index."""
    if isinstance(source, str):
        _, graph, _, group = geometry(source)
        return graph, group, magnitude_of(source).magnitude
    graph = enumerate_chambers(RANDOM_MEMO_CASES[source])
    _, _, group = chamber_orbits(graph)
    return graph, group, magnitude_direct(graph, group).magnitude


@pytest.mark.parametrize("source, lmax, interior_only", MEMO_CASES)
def test_collapsed_run_matches_every_block(source, lmax, interior_only):
    # chamber orbits and the memo against every block of every start
    # reduced on its own: each field, the checks included
    graph, group, magnitude = _memo_case(source)
    collapsed = magnitude_homology(graph, lmax=lmax, group=group,
                                   interior_only=interior_only,
                                   magnitude=magnitude)
    assert collapsed == betti_by_every_block(graph, lmax, interior_only,
                                             magnitude)
    assert collapsed.betti and all(collapsed.checks.values())


@pytest.mark.parametrize("source, lmax, interior_only", MEMO_CASES)
def test_equal_memo_keys_have_equal_summaries(source, lmax, interior_only):
    # the memo is used: some two blocks share a key on every input
    graph, _, _ = _memo_case(source)
    by_key = {}
    shared = 0
    for _start, _key, memo_key, summary in every_block(
            graph, lmax, interior_only):
        first = by_key.setdefault(memo_key, summary)
        assert first == summary, memo_key
        shared += first is not summary
    assert shared


# the random instances at lmax 4, and one past their n for the interior
REVERSAL_CASES = [
    *((name, lmax, False) for name, lmax in
      (("braid:4", 5), ("u34", 5), ("k4me", 4))),
    *((name, lmax, True) for name, lmax in
      (("braid:4", 6), ("u34", 5), ("k4me", 6))),
    *((i, 4, False) for i in range(len(RANDOM_MEMO_CASES))),
    *((i, arr.n + 1, True) for i, arr in enumerate(RANDOM_MEMO_CASES)),
]


@pytest.mark.parametrize("source, lmax, interior_only", REVERSAL_CASES)
def test_reversal_classes(source, lmax, interior_only, monkeypatch):
    # reversing its chains maps the block (a -> b, l, p) onto (b -> a, l, p)
    # with the same summary, and flips the odd-count bits of its tops; the
    # run reduces one block per class of memo keys under reversal
    graph, group, _ = _memo_case(source)
    masks = graph.masks
    blocks = [_chain_blocks(graph, s, lmax, interior_only)
              for s in range(len(graph))]
    summaries = {}

    def summary(start, key):
        if (start, key) not in summaries:
            summaries[start, key] = _block_homology(blocks[start][key], masks)
        return summaries[start, key]

    classes = set()
    for start, by_key in enumerate(blocks):
        for (length, end, profile), block in by_key.items():
            back = (length, start, profile)
            assert {k: sorted(c[::-1] for c in chains)
                    for k, chains in block.items()} == {
                k: sorted(chains) for k, chains in blocks[end][back].items()}
            assert summary(start, (length, end, profile)) == summary(end, back)
            counts, tops = _raw_memo_key(graph, start, profile)
            odd = sum((c & 1) << i for i, c in enumerate(counts))
            flipped = (counts, frozenset(x ^ odd for x in tops))
            assert _raw_memo_key(graph, end, profile) == flipped
            classes.add(frozenset({canonical_key(counts, tops),
                                   canonical_key(*flipped)}))
    reduced = []

    def counted(block, masks):
        reduced.append(block)
        return _block_homology(block, masks)

    monkeypatch.setattr(homology, "_block_homology", counted)
    magnitude_homology(graph, lmax=lmax, group=group,
                       interior_only=interior_only)
    assert len(reduced) == len(classes)


def test_relabel_bits_matches_bit_by_bit():
    rng = random.Random(20261019)
    for k in range(9):
        for _ in range(30):
            perm = list(range(k))
            rng.shuffle(perm)
            xs = rng.sample(range(1 << k), rng.randint(0, 1 << k))
            assert _relabel_bits(xs, perm) == relabel_bits_by_bits(xs, perm)


def _relabelled(counts, tops, perm):
    """(counts, tops) with coordinate i renamed perm[i]."""
    image = [0] * len(counts)
    for i, c in enumerate(counts):
        image[perm[i]] = c
    return tuple(image), frozenset(
        sum((x >> i & 1) << perm[i] for i in range(len(perm))) for x in tops)


def _random_memo_key(rng, k):
    """A random (counts, tops) on k coordinates.  Counts come from {1, 2}
    and tops are often the edges of a graph on the coordinates, so that
    many coordinates tie on the invariant without tops being symmetric
    under swapping them."""
    counts = tuple(rng.choice((1, 1, 2)) for _ in range(k))
    if k >= 3 and rng.random() < 0.5:
        pairs = [(1 << i) | (1 << j) for i in range(k) for j in range(i)]
        tops = {0, *rng.sample(pairs, rng.randint(1, len(pairs)))}
    else:
        tops = {0, *(x for x in range(1 << k) if rng.random() < 0.4)}
    return counts, frozenset(tops)


def test_canonical_key_ignores_relabelling():
    rng = random.Random(20261018)
    for _ in range(400):
        k = rng.randint(1, 7)
        counts, tops = _random_memo_key(rng, k)
        perm = list(range(k))
        rng.shuffle(perm)
        assert canonical_key(counts, tops) == canonical_key(
            *_relabelled(counts, tops, perm)), (counts, sorted(tops), perm)


def test_canonical_key_matches_brute_force_equivalence():
    # equal keys exactly when one of the k! relabellings maps one input
    # to the other; relabelled copies make the equal pairs
    rng = random.Random(7)
    inputs = []
    for _ in range(60):
        k = rng.randint(1, 5)
        counts, tops = _random_memo_key(rng, k)
        inputs.append((counts, tops))
        perm = list(range(k))
        rng.shuffle(perm)
        inputs.append(_relabelled(counts, tops, perm))
    # and near misses: one top toggled, or one count changed
    for counts, tops in inputs[:60:2]:
        k = len(counts)
        inputs.append((counts, tops ^ {rng.randrange(1, 1 << k)}))
        inputs.append(((3,) + counts[1:], tops))

    def brute(counts, tops):
        return min((_relabelled(counts, tops, perm)[0],
                    sorted(_relabelled(counts, tops, perm)[1]))
                   for perm in permutations(range(len(counts))))

    forms = [brute(*x) for x in inputs]
    keys = [canonical_key(*x) for x in inputs]
    equal_pairs = 0
    for i in range(len(inputs)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (forms[i] == forms[j]), (
                inputs[i], inputs[j])
            equal_pairs += forms[i] == forms[j]
    assert equal_pairs >= 60


def test_canonical_key_of_the_whole_cube_is_fast():
    # one run of 8 tied coordinates whose every swap fixes the tops:
    # trying all 8! orders of it took about 19 s
    began = time.perf_counter()
    key = canonical_key((1,) * 8, frozenset(range(256)))
    assert time.perf_counter() - began < 1.0
    assert key == ((1,) * 8, tuple(range(256)))
