"""Bigraded homology of the proper-chain complex and its identities."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import permutations
import random
import time

import pytest

from conftest import (
    _block_homology,
    _chain_blocks,
    _raw_memo_key,
    betti_by_every_block,
    dag_chains,
    dag_of,
    every_block,
    face_sum_by_orbit_runs,
    four_cut_by_search,
    general_position_rows,
    generic_arrangements,
    geometry,
    homology_of,
    key_orbit_by_closure,
    magnitude_of,
    random_arrangements,
    recording_blocks,
    reduced_blocks_of,
    relabel_bits_by_bits,
    stabilizer_by_closure,
    unpack_key,
)
import magarr.homology as homology
from magarr.arrangement import (
    CATALOG_NAMES,
    SymmetryGroup,
    enumerate_chambers,
    flat_orbits,
    intersection_lattice,
    parse_arrangement,
)
from magarr.cli import golden_betti
from magarr.errors import BudgetExceededError, CheckFailedError
from magarr.linalg import complex_homology
from magarr.homology import (
    _assert_d2_zero,
    _ball,
    _faces,
    _key_search,
    _morse_block,
    _near_lists,
    _partner,
    _relabel_bits,
    _relabelling,
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
from magarr.magnitude import chamber_orbits, magnitude_direct, orbit_matrix
from magarr.polyq import reduce_fraction


def _cells(table):
    return {k: v for k, v in table.items() if v}


def _dims(into, key):
    """{degree: chain count} of the block of ``key``, from the oracle."""
    return {d: len(cs) for d, cs in dag_chains(into, key).items()}


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


def _count_off_by_one(monkeypatch):
    table = homology.chain_count_table

    def off(*args):
        counted = table(*args)
        counted[1, 1] += 1
        return counted

    monkeypatch.setattr(homology, "chain_count_table", off)


def _positive_degrees_doubled(monkeypatch):
    morse_block = homology._morse_block

    def doubled(*args):
        return {k: (2 * b if k else b, tor, dim)
                for k, (b, tor, dim) in morse_block(*args).items()}

    monkeypatch.setattr(homology, "_morse_block", doubled)


@pytest.mark.parametrize("doctor,shifted,failing", [
    (_count_off_by_one, None, {"chain_counts_match_recursion"}),
    (None, 3, {"euler_matches_series"}),
    (_positive_degrees_doubled, None, {"euler_of_homology_matches_chains"}),
], ids=["count", "series", "betti"])
def test_the_run_checks_fail_on_doctored_inputs(monkeypatch, doctor,
                                                 shifted, failing):
    # each doctored input fails exactly its own check: a chain count table
    # off by one at (1, 1), a magnitude plus q^shifted, whose series is one
    # higher at that length, and a reduction doubling every Betti number in
    # positive degree, which moves the Euler sum at length 1 (b_11 > 0)
    _, graph, _, group = geometry("braid:3")
    magnitude = magnitude_of("braid:3").magnitude
    if shifted is not None:
        magnitude = reduce_fraction(
            magnitude.num + magnitude.den.shift(shifted), magnitude.den)
    if doctor is not None:
        doctor(monkeypatch)
    res = magnitude_homology(graph, lmax=4, group=group, magnitude=magnitude)
    assert set(res.checks) == {"chain_counts_match_recursion",
                               "euler_of_homology_matches_chains",
                               "euler_matches_series"}
    assert {name for name, ok in res.checks.items() if not ok} == failing


def test_chain_counts_agree_with_enumeration():
    _, graph, _, _ = geometry("braid:3")
    res = homology_of("braid:3", 5)
    orbits = chamber_orbits(graph)[1]
    table = chain_count_table(orbit_matrix(graph, orbits), orbits, 5)
    assert table == res.chain_dims


@pytest.mark.parametrize("name", [
    name for name in CATALOG_NAMES if len(geometry(name)[1]) <= 60])
def test_chain_count_orbits_match_singletons(name):
    # the collapsed steps of M - I, weighted by orbit size, against the
    # same recursion on the whole chamber matrix, with no symmetry
    _, graph, _, group = geometry(name)
    orbits = chamber_orbits(graph, group)[1]
    table = chain_count_table(orbit_matrix(graph, orbits), orbits, 5)
    singletons = [[c] for c in range(len(graph))]
    assert table == chain_count_table(orbit_matrix(graph, singletons),
                                      singletons, 5)
    assert table[(0, 0)] == len(graph)
    assert any(len(o) > 1 for o in orbits)


def test_chain_count_recursion_small_values():
    _, graph, _, _ = geometry("boolean:1")
    orbits = chamber_orbits(graph)[1]
    table = chain_count_table(orbit_matrix(graph, orbits), orbits, 2)
    # two chambers: constants, one edge pair, and the back-and-forth path
    assert table[(0, 0)] == 2
    assert table[(1, 1)] == 2
    assert table[(2, 2)] == 2
    assert table.get((1, 2), 0) == 0
    assert table == {(0, 0): 2, (1, 1): 2, (2, 2): 2}  # no step of length 0


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


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_face_check_matches_one_run_per_flat_orbit(name):
    # the table kept per localization tope graph sums to what a run of
    # its own for every proper flat orbit gives
    _, graph, lattice, group = geometry(name)
    res = homology_of(name, default_length_cap(graph))
    assert (face_decomposition_check(lattice, res, group)[1]
            == face_sum_by_orbit_runs(lattice, res, group))


def test_face_check_reduces_each_block_once_over_its_localizations(
        monkeypatch):
    # six planes in general position: the 15 localizations at two planes
    # project to one 4-chamber tope graph and the 6 at one plane to one
    # 2-chamber graph, and the face check keeps one interior table per
    # graph, so its two runs reduce each of their memo keys once, fewer
    # blocks than a run for every localization reduces
    graph = enumerate_chambers(parse_arrangement(general_position_rows(1)))
    lattice = intersection_lattice(graph)
    group = chamber_orbits(graph)[2]
    assert len(flat_orbits(lattice, group)[1]) == len(lattice.flats) == 23
    res = magnitude_homology(graph, lmax=4, group=group)
    runs, calls = [], []

    def run(*args, **kwargs):
        runs.append(set())
        return magnitude_homology(*args, **kwargs)

    def start_blocks(*args):
        blocks, spent, searched = _start_blocks(*args)
        runs[-1].update(memo_key for *_, memo_key in blocks)
        return blocks, spent, searched

    def morse_block(into, key, *rest):
        calls.append(key)
        return _morse_block(into, key, *rest)

    monkeypatch.setattr(homology, "magnitude_homology", run)
    monkeypatch.setattr(homology, "_start_blocks", start_blocks)
    monkeypatch.setattr(homology, "_morse_block", morse_block)
    ok, _ = face_decomposition_check(lattice, res, group)
    assert ok
    assert len(runs) == 2
    assert len(calls) == sum(map(len, runs))
    shared = len(calls)
    calls.clear()
    for f in lattice.flats[1:-1]:
        magnitude_homology(graph.localization(f.hyperplanes), lmax=4,
                           interior_only=True)
    assert shared < len(calls)


@pytest.mark.parametrize("name", ["bracelet", "k5me"])
def test_each_raw_memo_key_is_canonicalized_once(monkeypatch, name):
    # a run keeps the memo key of every raw key it meets, reversals too
    _, graph, _, group = geometry(name)
    args = []

    def counted(counts, tops):
        args.append((counts, tops))
        return canonical_key(counts, tops)

    monkeypatch.setattr(homology, "canonical_key", counted)
    magnitude_homology(graph, lmax=5, group=group)
    assert args and len(args) == len(set(args))


def test_four_cut_minima():
    # the closed form against the chamber-triple search: the catalog,
    # pencils of 1 to 15 lines in the plane, and seeded random
    # arrangements of at most 60 chambers in R^2 to R^5
    values = {"boolean:2": 3, "braid:3": 4, "u34": 3, "coxeter:B2": 5}
    for name, want in values.items():
        _, graph, lattice, _ = geometry(name)
        assert four_cut_minimum(lattice.rank, graph.n) == want
    cases = [geometry(name)[1:] for name in CATALOG_NAMES]
    arrangements = [parse_arrangement([[1, t] for t in range(count)])
                    for count in range(1, 16)]
    for dim in range(2, 6):
        arrangements += random_arrangements(20, seed=3800 + dim, nmin=2,
                                            nmax=6, dim=dim)
    for arr in arrangements:
        graph = enumerate_chambers(arr)
        if len(graph) <= 60:
            cases.append((graph, intersection_lattice(graph), None))
    assert len(cases) >= len(CATALOG_NAMES) + 15 + 50
    ranks = Counter()
    for graph, lattice, group in cases:
        want = four_cut_by_search(graph, group)
        assert four_cut_minimum(lattice.rank, graph.n) == want
        ranks[min(lattice.rank, 3), want == 3] += 1
    # rank 2 with n > 2 tells n + 1 from 3, and rank 3 and up from n + 1
    assert ranks[2, False] and ranks[3, True] and not ranks[3, False]


def test_budget_is_enforced(monkeypatch):
    _, graph, _, _ = geometry("braid:3")
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as info:
        magnitude_homology(graph, lmax=4)
    assert info.value.limit == 5
    assert info.value.observed > 5


@pytest.mark.parametrize("name, lmax", [
    ("boolean:3", 4), ("braid:3", 5), ("u34", 5), ("coxeter:B2", 6)])
def test_a_start_charges_its_chains_before_reducing_a_block(
        monkeypatch, name, lmax):
    # each start charges length + 1 + n per key its search finds, one
    # per in-edge it records past a key's first, and
    # len(chain) + 1 + n + REDUCTION_CHARGE per chain of each block it
    # reduces, built or not, all before its first block is reduced; a
    # start whose ball is a relabelled ball searched before charges, once
    # and outside any search, what that search's keys and in-edges cost
    _, graph, _, group = geometry(name)
    n = graph.n
    events = []

    def start_blocks(*args):
        events.append(("start", None))
        out = _start_blocks(*args)
        events.append(("end", None))
        return out

    def key_search(graph, start, lmax, *args):
        into, spent = _key_search(graph, start, lmax, *args)
        events.append(("keys", [(unpack_key(graph, start, lmax, key)[0],
                                 len(ins)) for key, (*_, ins) in into.items()]))
        return into, spent

    def charge(spent, entries):
        events.append(("charge", entries))
        return spent + entries

    def morse_block(into, key, *rest):
        events.append(("reduce", dag_chains(into, key)))
        return _morse_block(into, key, *rest)

    monkeypatch.setattr(homology, "_start_blocks", start_blocks)
    monkeypatch.setattr(homology, "_key_search", key_search)
    monkeypatch.setattr(homology, "_charge", charge)
    monkeypatch.setattr(homology, "_morse_block", morse_block)
    magnitude_homology(graph, lmax=lmax, group=group)
    searched, twins, key_charges, inside = 0, [], set(), False
    for kind, value in events:
        if kind == "start":
            charged, want, reducing, inside = 0, 0, False, True
        elif kind == "charge" and not inside:
            twins.append(value)
        elif kind == "charge":
            assert not reducing
            charged += value
        elif kind == "reduce":
            reducing = True
            want += sum(len(c) + 1 + n + homology.REDUCTION_CHARGE
                        for chains in value.values() for c in chains)
        elif kind == "keys":  # every key the search found, and the root
            want += sum(length + 1 + n + (ins - 1)
                        for length, ins in value if length)
            key_charges.add(want)
        else:
            assert charged == want
            searched += 1
            inside = False
    assert set(twins) <= key_charges
    assert searched + len(twins) == len(chamber_orbits(graph, group)[1])


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
    cells = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    good = [{}, {}, {}, {0: -1, 1: 1}, {}, {}]
    _assert_d2_zero(cells, good)
    bad = [{}, {}, {}, {0: 1, 1: 1}, {1: 1, 2: 1}, {3: 1, 4: 1}]
    with pytest.raises(CheckFailedError, match=r"in degree 2 at chain "
                       r"\(0, 1, 2\)$"):
        _assert_d2_zero(cells, bad)


@pytest.mark.parametrize("name, lmax", [
    ("braid:4", 5), ("u34", 5), ("coxeter:B2", 6), ("bracelet", 3)])
def test_block_summary_does_not_depend_on_chain_order(name, lmax):
    # each block's chains are numbered in the order given, so shuffling
    # them within each degree renumbers the cells and nothing else
    _, graph, _, _ = geometry(name)
    rng = random.Random(20261020)
    checked = 0
    for start in range(min(len(graph), 4)):
        for block in _chain_blocks(graph, start, lmax).values():
            shuffled = {k: rng.sample(chains, len(chains))
                        for k, chains in block.items()}
            want = _block_homology(block, graph.masks)
            assert _block_homology(shuffled, graph.masks) == want
            checked += sum(map(len, block.values())) > 2
    assert checked


def test_boundary_target_outside_block_is_named():
    # (0, 1, 3) is smooth at 1 on the square, so its boundary needs (0, 3)
    _, graph, _, _ = geometry("boolean:2")
    assert list(graph.masks) == [0, 1, 2, 3]
    for block in ({2: [(0, 1, 3)]}, {1: [(0, 1)], 2: [(0, 1, 3)]}):
        with pytest.raises(CheckFailedError,
                           match=r"^boundary target \(0, 3\) outside block$"):
            _block_homology(block, graph.masks)
    # on the hexagon, (0, 3, 4) crosses h2 then h1, a run, and (0, 4)
    # crosses both at once from 0, whose flip at h1 is no chamber: both
    # are critical, and in-edges without the step 0 -> 4 hold only the
    # first, so its Morse boundary reaches a critical face never built
    _, graph, _, _ = geometry("braid:3")
    assert graph.masks == (0, 1, 3, 4, 6, 7)
    into = dag_of(graph, 3, [(0, 3, 4)])
    assert dag_chains(into, max(into)) == {2: [(0, 3, 4)]}
    with pytest.raises(CheckFailedError,
                       match=r"^boundary target \(0, 4\) outside block$"):
        _morse_block(into, max(into), _dims(into, max(into)), graph.masks,
                     graph.index)


def _word(chain, masks):
    """(least hyperplane's bit, size) of each step's crossing set."""
    seps = [masks[u] ^ masks[v] for u, v in zip(chain, chain[1:])]
    return [(sep & -sep, sep.bit_count()) for sep in seps]


def _deletions(graph, chain):
    """(i, face) per inner chamber lying between its two neighbours in
    the chamber metric: the terms of the boundary, read from distances."""
    return [(i, chain[:i] + chain[i + 1 :]) for i in range(1, len(chain) - 1)
            if graph.dist(chain[i - 1], chain[i + 1])
            == graph.dist(chain[i - 1], chain[i])
            + graph.dist(chain[i], chain[i + 1])]


@pytest.mark.parametrize("name, lmax", [
    ("boolean:3", 4), ("braid:4", 5), ("u34", 5), ("coxeter:B2", 6),
    ("bracelet", 3)])
def test_matching_is_an_acyclic_involution_of_unit_incidences(name, lmax):
    # on every chain of every block: the partner's partner is the chain,
    # in the same block, the shorter of the two is the longer's face with
    # coefficient +-1, and every other face of an up-partner has a
    # smaller word than the chain, so no zig-zag path closes
    _, graph, _, _ = geometry(name)
    masks, index = graph.masks, graph.index
    paired = critical = 0
    for start in range(len(graph)):
        for block in _chain_blocks(graph, start, lmax).values():
            chains = {chain for cs in block.values() for chain in cs}
            for chain in chains:
                pair = _partner(chain, masks, index)
                if pair is None:
                    critical += 1
                    continue
                i, other = pair
                assert other in chains, (chain, other)
                assert _partner(other, masks, index) == (i, chain)
                up, down = sorted((chain, other), key=len, reverse=True)
                faces = _deletions(graph, up)
                assert sum((-1) ** j for j, face in faces
                           if face == down) == (-1) ** i, (up, down)
                if up is other:
                    word = _word(chain, masks)
                    assert all(_word(face, masks) < word
                               for j, face in faces if j != i), chain
                paired += 1
    assert paired > critical > 0


def test_only_critical_cells_reach_the_smith_reduction(monkeypatch):
    # u45 at lmax 6 reduces blocks of 12,105 chains in all, of which the
    # matching leaves 195 critical: complex_homology sees those alone,
    # one call per reduced block, so its call count is the block count
    _, graph, _, group = geometry("u45")
    calls = []

    def counted(degrees, columns):
        calls.append(len(degrees))
        return complex_homology(degrees, columns)

    monkeypatch.setattr(homology, "complex_homology", counted)
    with recording_blocks() as reduced:
        magnitude_homology(graph, lmax=6, group=group)
    assert len(calls) == len(reduced) == 69
    assert sum(calls) == 195
    assert sum(dim for _, _, summary in reduced
               for _, _, dim in summary.values()) == 12105


def test_boundary_square_guard_reads_the_deletion_rule(monkeypatch):
    # (0, 1, 3, 7) on the cube crosses h0, h1, h2 and may delete 1 or 2,
    # each face then deleting its other inner chamber: a rule that forgets
    # the last deletion of a degree-3 chain leaves (0, 7) once in the
    # boundary of the boundary, and every run reading such a boundary stops
    _, graph, _, _ = geometry("boolean:3")
    assert graph.masks == tuple(range(8))
    chain = (0, 1, 3, 7)
    assert _faces(chain, graph.masks) == [(1, (0, 3, 7)), (2, (0, 1, 7))]
    inner = homology._inner
    monkeypatch.setattr(homology, "_inner",
                        lambda ms: inner(ms)[: 1 if len(ms) == 4 else None])
    with pytest.raises(CheckFailedError, match=r"^boundary composed with "
                       r"itself is nonzero in degree 3 at chain "
                       r"\(0, 1, 3, 7\)$"):
        _faces(chain, graph.masks)
    with pytest.raises(CheckFailedError, match="boundary composed with"):
        magnitude_homology(graph, lmax=4)


def test_critical_chains_must_have_the_euler_characteristic(monkeypatch):
    named = (r"^critical chains of the block from \d+ to \d+ at length \d+ "
             r"have Euler characteristic -?\d+, its chains -?\d+$")
    # counts handed in that miss the block: its own, one degree raised
    _, graph, _, _ = geometry("braid:3")
    block = max(_chain_blocks(graph, 0, 4).values(),
                key=lambda b: sum(map(len, b.values())))
    into = dag_of(graph, 4, [c for cs in block.values() for c in cs])
    key = max(into)
    dims = _dims(into, key)
    assert dims == {d: len(cs) for d, cs in block.items()}
    _morse_block(into, key, dims, graph.masks, graph.index)
    dims[min(dims)] += 1
    with pytest.raises(CheckFailedError, match=named):
        _morse_block(into, key, dims, graph.masks, graph.index)
    # a rule that matches the chains it should leave critical, with no
    # partner to show for it, loses them from the enumeration
    rule = homology._rule

    def lossy(prev, mu, sep, index):
        kind, value = rule(prev, mu, sep, index)
        return (homology._DOWN, None) if kind == homology._CRITICAL else (
            kind, value)

    monkeypatch.setattr(homology, "_rule", lossy)
    with pytest.raises(CheckFailedError, match=named):
        magnitude_homology(graph, lmax=4)


def test_a_cycle_of_the_matching_is_named(monkeypatch):
    # pair a second face b' of some U(b) with U(b) as well, b being a face
    # of a critical chain: the image of b then needs that of b', which
    # needs that of b
    _, graph, _, _ = geometry("braid:3")
    masks, index = graph.masks, graph.index

    def doubled(chains):
        """(U(b), position, b') for the first such b' in the block."""
        for c in chains:
            if _partner(c, masks, index) is not None:
                continue
            for _, b in _faces(c, masks):
                pair = _partner(b, masks, index)
                if pair is None or len(pair[1]) < len(b):
                    continue
                for j, other in _faces(pair[1], masks):
                    if other != b:
                        return pair[1], j, other
        return None

    for block in _chain_blocks(graph, 0, 4).values():
        chains = [chain for cs in block.values() for chain in cs]
        if found := doubled(chains):
            break
    up, j, other = found
    partner = homology._partner
    monkeypatch.setattr(homology, "_partner", lambda chain, *args: (
        (j, up) if chain == other else partner(chain, *args)))
    into = dag_of(graph, 4, chains)
    with pytest.raises(CheckFailedError,
                       match=r"^matching has a cycle at \(\d+(, \d+)*\)$"):
        _morse_block(into, max(into), _dims(into, max(into)), masks, index)


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
        blocks = {}
        for key in _key_search(graph, start, 3, 0, False, around)[0]:
            key = unpack_key(graph, start, 3, key)
            blocks[key] = canonical_key(*_raw_memo_key(graph, start, key[2]))
        stabilizer = stabilizer_by_closure(graph, group, start)
        assert len(stabilizer) * len(orbit) == len(group)
        for key, memo_key in blocks.items():
            for image in key_orbit_by_closure(
                    stabilizer, graph.masks[start], graph, key):
                assert blocks[image] == memo_key, (name, key, image)


@pytest.mark.parametrize("name, lmax", [
    *((name, lmax) for name in CATALOG_NAMES for lmax in (1, 2, 4)),
    ("boolean:12", 4)])
def test_near_lists_match_a_scan_of_every_chamber(name, lmax):
    # each chamber's neighbours by distance, ascending, with the packed
    # step to each, whether read by flipping every set of at most lmax
    # hyperplanes (fewer than the chambers) or by a pass over all
    _, graph, _, _ = geometry(name)
    n, w = graph.n, lmax.bit_length()
    around = _near_lists(graph, lmax)
    for u in range(0, len(graph), max(1, len(graph) // 40)):
        want = [([], []) for _ in range(min(lmax, n) + 1)]
        for v, m in enumerate(graph.masks):
            sep = graph.masks[u] ^ m
            if 0 < sep.bit_count() <= lmax:
                want[sep.bit_count()][0].append(v)
                want[sep.bit_count()][1].append((sep, sum(
                    1 << w * h for h in range(n) if sep >> h & 1)))
        assert around(u) == want, u


# every field width from 0 to 4 bits, each at a full field (lmax 1, 3, 7)
# and just past one (lmax 4, 8); boolean:3 stops at lmax 4, since its
# chains outnumber the others' tenfold at lmax 7
PACKING_CASES = [(name, lmax) for name in ("boolean:2", "braid:3")
                 for lmax in (0, 1, 3, 4, 7, 8)] + [
    ("boolean:3", lmax) for lmax in (0, 1, 3, 4)]


@pytest.mark.parametrize("interior_only", [False, True])
@pytest.mark.parametrize("name, lmax", PACKING_CASES)
def test_packed_keys_match_chain_blocks(name, lmax, interior_only):
    # each start's packed keys unpack to the (length, end, profile) keys
    # of the whole-chain search, and the start's tally of summary flags,
    # read once per shape of local tope set over one run's starts,
    # counts the whole-chain blocks by length, profile and distance
    _, graph, _, _ = geometry(name)
    around = _near_lists(graph, lmax)
    everything = (1 << graph.n) - 1
    memo, canon, tallies = {}, {}, {}
    for start in range(len(graph)):
        into, _ = _key_search(graph, start, lmax, 0, interior_only, around)
        keys = {}
        for key, (length, end, support, _) in into.items():
            unpacked = unpack_key(graph, start, lmax, key)
            assert unpacked[:2] == (length, end)
            assert support == sum(1 << h for h, c in enumerate(unpacked[2])
                                  if c)
            keys[unpacked] = support
        want = _chain_blocks(graph, start, lmax, interior_only)
        assert {key for key, support in keys.items()
                if not interior_only or support == everything} == set(want)
        blocks, _, _ = _start_blocks(graph, start, lmax, 0, interior_only,
                                     around, memo, canon, tallies)
        assert Counter(summary[:3] for summary in blocks.elements()) == Counter(
            (length, 0 not in profile, length == graph.dist(start, end))
            for length, end, profile in want)


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


# small catalog names both ways and the random instances' interior runs,
# one past n so that they have blocks: the runs tallied once per shape of
# local tope set
SHAPE_CASES = [
    *((name, lmax, interior_only)
      for name, lmax, interior_lmax in (
          ("boolean:3", 4, 4), ("braid:3", 5, 4), ("u34", 5, 5),
          ("coxeter:B2", 5, 5), ("k4me", 4, 6))
      for lmax, interior_only in ((lmax, False), (interior_lmax, True))),
    *((i, arr.n + 1, True) for i, arr in enumerate(RANDOM_MEMO_CASES)),
]


@pytest.mark.parametrize("source, lmax, interior_only",
                         MEMO_CASES + SHAPE_CASES)
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


@pytest.mark.parametrize("source, lmax, interior_only", [
    *((name, None, False) for name in CATALOG_NAMES),
    *((i, 5, False) for i in range(len(RANDOM_MEMO_CASES))),
    *((i, arr.n + 1, True) for i, arr in enumerate(RANDOM_MEMO_CASES)),
])
def test_each_reduced_block_matches_the_full_reduction(
        source, lmax, interior_only):
    # every block a run reduces through its Morse complex has the Betti
    # numbers, torsion and chain count per degree that reducing all its
    # chains gives; a catalog name is read from the cached run at its
    # default cap
    graph, group, _ = _memo_case(source)
    if lmax is None:
        reduced = reduced_blocks_of(source, default_length_cap(graph))
    else:
        with recording_blocks() as reduced:
            magnitude_homology(graph, lmax=lmax, group=group,
                               interior_only=interior_only)
    assert reduced
    for into, key, summary in reduced:
        assert summary == _block_homology(dag_chains(into, key),
                                          graph.masks), (source, key)


@pytest.mark.parametrize("source, lmax, interior_only",
                         MEMO_CASES + SHAPE_CASES)
def test_each_shape_is_classified_once_per_run(
        source, lmax, interior_only, monkeypatch):
    # one tally per shape met in the run, the least relabelling of a
    # group's local tope set, kept over the run's starts; with every
    # support kept, the starts' groups outnumber the shapes, so some
    # group reads a tally it did not classify
    graph, group, _ = _memo_case(source)
    kept = []

    def start_blocks(*args):
        kept.append(args[-1])
        return _start_blocks(*args)

    monkeypatch.setattr(homology, "_start_blocks", start_blocks)
    magnitude_homology(graph, lmax=lmax, group=group,
                       interior_only=interior_only)
    tallies = kept[0]
    assert all(t is tallies for t in kept)
    shapes, groups = set(), set()
    for orbit in chamber_orbits(graph, group)[1]:
        for _, _, profile in _chain_blocks(graph, orbit[0], lmax,
                                           interior_only):
            counts, tops = _raw_memo_key(graph, orbit[0], profile)
            shapes.add(canonical_key((0,) * len(counts), tops))
            groups.add((orbit[0], tuple(c > 0 for c in profile)))
    assert set(tallies) == shapes
    assert len(groups) > len(shapes) or interior_only


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

    def counted(into, key, *rest):
        reduced.append(key)
        return _morse_block(into, key, *rest)

    monkeypatch.setattr(homology, "_morse_block", counted)
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


# ---------------------------------------------------------------------------
# starts whose balls match up to relabelling share one search


def _traced_run(monkeypatch, graph, lmax, reuse, **kwargs):
    """(result, final spent, starts searched, twin charges) of one run,
    a twin charge being (spent before it, entries).  Without ``reuse``
    the relabelling search always misses, so every start is searched.
    A run past its budget gives its error as the result and its observed
    figure as the final spent."""
    trace = {"spent": 0, "searched": 0, "twins": []}
    charge, start_blocks = homology._charge, homology._start_blocks
    inside = []

    def charged(spent, entries):
        if not inside:
            trace["twins"].append((spent, entries))
        trace["spent"] = charge(spent, entries)
        return trace["spent"]

    def searched(*args):
        inside.append(True)
        trace["searched"] += 1
        try:
            return start_blocks(*args)
        finally:
            inside.pop()

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_charge", charged)
        patch.setattr(homology, "_start_blocks", searched)
        if not reuse:
            patch.setattr(homology, "_relabelling", lambda *args: None)
        try:
            result = magnitude_homology(graph, lmax=lmax, **kwargs)
        except BudgetExceededError as error:
            result, trace["spent"] = error, error.observed
    return result, trace["spent"], trace["searched"], trace["twins"]


def _twin_case(source):
    """(graph, group, lmax, interior_only) of a catalog name at its
    default cap, a seed-1 generic file at lmax 4, or a random instance,
    (index, interior_only), at lmax 5 or one past its n."""
    if isinstance(source, str):
        _, graph, _, group = geometry(source)
        return graph, group, default_length_cap(graph), False
    if isinstance(source, int):
        rows = generic_arrangements(1)[source]
        graph = enumerate_chambers(parse_arrangement(rows))
        return graph, chamber_orbits(graph)[2], 4, False
    index, interior_only = source
    arr = RANDOM_MEMO_CASES[index]
    graph = enumerate_chambers(arr)
    return (graph, chamber_orbits(graph)[2],
            arr.n + 1 if interior_only else 5, interior_only)


TWIN_CASES = [
    *CATALOG_NAMES,
    *range(12),
    *((i, interior_only) for i in range(len(RANDOM_MEMO_CASES))
      for interior_only in (False, True)),
]


@pytest.mark.parametrize("source", TWIN_CASES)
def test_twin_starts_change_no_field_and_no_charge(source, monkeypatch):
    # a start whose ball is a relabelled earlier ball reads that start's
    # blocks and charges its search: every field of the result and the
    # run's final charge are those of a run searching every start
    graph, group, lmax, interior_only = _twin_case(source)
    runs = [_traced_run(monkeypatch, graph, lmax, reuse, group=group,
                        interior_only=interior_only)
            for reuse in (True, False)]
    (result, spent, searched, twins), (want, want_spent, every, none) = runs
    assert result == want and spent == want_spent
    assert searched + len(twins) == every == len(
        chamber_orbits(graph, group)[1])
    assert not none
    if source == "bracelet":
        assert len(twins) == 13 and every == 16
    if isinstance(source, int):  # the generic files
        assert 2 * len(twins) >= every


@pytest.mark.parametrize("source", ["bracelet", 0, "u34"])
@pytest.mark.parametrize("short", ["half", "one", "none"])
def test_a_budget_inside_a_twin_charge_stops_as_its_search_would(
        source, short, monkeypatch):
    # a budget that the first twin's charge would pass by half of it or by
    # one entry makes the run search that start, and stop with the figure
    # a run searching every start observes; a budget it just meets lets
    # the twin through, and the run still ends as that run does
    graph, group, lmax, _ = _twin_case(source)
    spent, entries = _traced_run(monkeypatch, graph, lmax, True,
                                 group=group)[3][0]
    budget = spent + entries - {"half": entries // 2, "one": 1, "none": 0}[
        short]
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_BUDGET", budget)
    got = _traced_run(monkeypatch, graph, lmax, True, group=group)
    want = _traced_run(monkeypatch, graph, lmax, False, group=group)
    stopped = isinstance(want[0], BudgetExceededError)
    assert stopped or short == "none"
    assert got[1] == want[1]
    if stopped:
        assert isinstance(got[0], BudgetExceededError)
        assert str(got[0]) == str(want[0]) and got[0].limit == budget
    else:
        assert got[0] == want[0]


def _relabelled_ball(members, pi):
    """Each member with hyperplane h renamed pi[h]."""
    return [sum(1 << g for h, g in enumerate(pi) if x >> h & 1)
            for x in members]


def test_relabelling_search_finds_each_relabelled_ball():
    # balls of catalog starts at two radii and random sets of masks, each
    # against a shuffled copy relabelled by a random pi: the search finds
    # a relabelling carrying the copy onto the ball, and past its
    # allowance it gives up
    rng = random.Random(20261022)
    balls = []
    for name in ("bracelet", "k5me", "u45", "nearpencil:5"):
        _, graph, _, _ = geometry(name)
        for lmax in (2, 4):
            around = _near_lists(graph, lmax)
            for start in rng.sample(range(len(graph)), 4):
                balls.append((graph.n, [0, *(
                    sep for _, steps in around(start) for sep, _ in steps)]))
    for _ in range(300):
        n = rng.randint(1, 8)
        balls.append((n, [0, *rng.sample(range(1, 1 << n), rng.randint(
            0, min(40, (1 << n) - 1)))]))
    for n, members in balls:
        pi = list(range(n))
        rng.shuffle(pi)
        image = _relabelled_ball(members, pi)
        rng.shuffle(image)
        a, b = _ball(members, n), _ball(image, n)
        assert a[0] == b[0]
        found = _relabelling(a, b, 10**9)
        assert found is not None, (n, members, pi)
        assert set(_relabelled_ball(image, found)) == set(members)
    _, graph, _, _ = geometry("bracelet")
    ball = _ball([0, *(sep for _, steps in _near_lists(graph, 4)(0)
                       for sep, _ in steps)], graph.n)
    assert _relabelling(ball, ball, 10**9) is not None
    assert _relabelling(ball, ball, 0) is None


# balls on five hyperplanes with one signature, not relabellings of each
# other: they agree on hyperplanes 0 to 3 and differ in which members
# hold hyperplane 4, so only the exact test on the last hyperplane tells
# them apart; and 0, the singletons and the edges of a 6-cycle against
# those of two triangles, every hyperplane of either on two edges
NEAR_TWINS = [
    (5, [0, 1, 3, 11, 12, 21, 26], [0, 1, 5, 10, 11, 19, 28]),
    (6, [0, *(1 << h for h in range(6)),
         *(1 << h | 1 << (h + 1) % 6 for h in range(6))],
     [0, *(1 << h for h in range(6)), 3, 5, 6, 24, 40, 48]),
]


@pytest.mark.parametrize("n, first, second", NEAR_TWINS)
def test_relabelling_search_misses_balls_of_one_signature(n, first, second):
    a, b = _ball(first, n), _ball(second, n)
    assert a[0] == b[0]
    assert all(set(_relabelled_ball(second, pi)) != set(first)
               for pi in permutations(range(n)))
    assert _relabelling(a, b, 10**9) is None
    assert _relabelling(b, a, 10**9) is None
