"""Parsing, chamber enumeration, tope graph metrics, and the flat poset."""

from __future__ import annotations

import hashlib
import random
import time
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_localizations_project,
    beta_by_scan,
    bfs_distances,
    counts_below_by_pairs,
    flats_by_closure,
    geometry,
    localize,
    mobius_by_sum,
    neighbours,
    restriction_count_by_enumeration,
    sign_feasible,
    tits_product,
)
import magarr.arrangement as arrangement
from magarr.arrangement import (
    CATALOG_NAMES,
    SymmetryGroup,
    TopeGraph,
    _dot,
    _restrict_with_basis,
    catalog,
    enumerate_chambers,
    flat_orbits,
    intersection_lattice,
    orbits_of_permutations,
    parse_arrangement,
    tope_symmetries,
)
from magarr.errors import CheckFailedError, ParseError
from magarr.magnitude import magnitude_by_face_decomposition


def test_parse_normalizes_to_primitive_integer_rows():
    arr = parse_arrangement([["1/2", "-3"], [0, 1]])
    assert arr.normals == ((1, -6), (0, 1))
    assert arr.labels == ("H0", "H1")
    assert arr.n == 2 and arr.dimension == 2


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_arrangement([[0, 0], [1, 0]])
    with pytest.raises(ParseError):
        parse_arrangement([[1, 1], [2, 2]])
    with pytest.raises(ParseError):
        parse_arrangement([[1, 1], [-1, -1]])
    with pytest.raises(ParseError):
        parse_arrangement([[1, 2], [1]])
    with pytest.raises(ParseError):
        parse_arrangement([["a", "b"]])
    with pytest.raises(ParseError):
        parse_arrangement([])
    with pytest.raises(ParseError):
        parse_arrangement([[1, 0], [0, 1]], labels=("only-one",))


KNOWN_CHAMBERS = {
    "boolean:1": 2,
    "boolean:2": 4,
    "boolean:3": 8,
    "boolean:4": 16,
    "braid:3": 6,
    "braid:4": 24,
    "braid:5": 120,
    "coxeter:B2": 8,
    "coxeter:B3": 48,
    "u34": 14,
    "u45": 30,
    "k4me": 18,
    "k5me": 96,
    "nearpencil:4": 12,
    "nearpencil:5": 16,
    "bracelet": 102,
}


@pytest.mark.parametrize("name", sorted(KNOWN_CHAMBERS))
def test_catalog_chamber_counts(name):
    _, graph, lattice, _ = geometry(name)
    assert len(graph) == KNOWN_CHAMBERS[name]
    # sign-count route equals the alternating Moebius route
    chi = lattice.characteristic_polynomial()
    at_minus_one = sum(c * (-1) ** k for k, c in enumerate(chi))
    assert abs(at_minus_one) == len(graph)


def test_catalog_names_cover_fixture_list():
    assert set(KNOWN_CHAMBERS) == set(CATALOG_NAMES)
    assert catalog("nearpencil:1025").n == 1025
    for name in ("boolean:0", "boolean:13", "braid:7", "nearpencil:2",
                 "nearpencil:1026", "no-such-name",
                 "boolean:03", "boolean: 3", "braid:+4"):
        with pytest.raises(ParseError):
            catalog(name)


@pytest.mark.parametrize("d", range(1, 13))
def test_boolean_chambers_are_all_masks(d):
    # only the enumeration: the lattice of boolean:12 has 3^12 comparable pairs
    graph = enumerate_chambers(catalog(f"boolean:{d}"))
    assert graph.masks == tuple(range(1 << d))


def test_witness_check_tests_every_witness_against_every_normal():
    # each chamber of braid:4 with one mask bit flipped, alone in a graph,
    # is rejected on that hyperplane; in the whole graph, a chamber given
    # the next chamber's witness is rejected on the first hyperplane where
    # the two masks differ
    arr, graph, _, _ = geometry("braid:4")
    masks, witnesses = graph.masks, graph.witnesses
    for mask, w in zip(masks, witnesses):
        for h in range(arr.n):
            with pytest.raises(CheckFailedError) as info:
                TopeGraph(arr, [mask ^ 1 << h], [w])
            assert str(info.value) == (
                f"chamber 0: witness lies off mask {mask ^ 1 << h:b} at "
                f"hyperplane {h}")
    for k in range(len(masks)):
        moved = list(witnesses)
        moved[k] = witnesses[(k + 1) % len(masks)]
        first = masks[k] ^ masks[(k + 1) % len(masks)]
        with pytest.raises(CheckFailedError, match=(
                f"^chamber {k}: witness lies off mask [01]+ at hyperplane "
                f"{(first & -first).bit_length() - 1}$")):
            TopeGraph(arr, masks, moved)


def test_witness_on_a_hyperplane_is_rejected():
    # (1, -1) lies on x + y = 0: a zero product is neither side, so both
    # masks that agree elsewhere are rejected
    arr = parse_arrangement([[1, 0], [0, 1], [1, 1]])
    for mask in (0b001, 0b101):
        with pytest.raises(CheckFailedError, match=(
                "^chamber 0: witness lies on hyperplane 2$")):
            TopeGraph(arr, [mask], [(1, -1)])
    # (1, -2) has sign vector 0b001; a wrong bit, or one past the three
    # hyperplanes, is named too
    with pytest.raises(CheckFailedError, match="off mask 11 at hyperplane 1$"):
        TopeGraph(arr, [0b011], [(1, -2)])
    with pytest.raises(CheckFailedError, match="1001 has bits past hyperplane 2$"):
        TopeGraph(arr, [0b1001], [(1, -2)])
    with pytest.raises(CheckFailedError, match="witness has length 3"):
        TopeGraph(arr, [0b001], [(1, -2, 0)])


def test_witness_products_at_the_packing_bound_are_read_exactly():
    # (M, M, M) against (1, 1, 1) is |a|_1 max|w|, the bound the packing
    # width is chosen for, on both sides and with M across byte edges
    arr = parse_arrangement([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    for bits in range(1, 100):
        for m in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1):
            graph = TopeGraph(arr, [0b000, 0b111], [(-m, -m, -m), (m, m, m)])
            assert graph.masks == (0, 7)
            with pytest.raises(CheckFailedError, match="at hyperplane 0$"):
                TopeGraph(arr, [0b000, 0b110], [(-m, -m, -m), (m, m, m)])


@pytest.mark.parametrize("m", range(2, 7))
def test_braid_chambers_are_the_orderings(m):
    arr = catalog(f"braid:{m}")
    pairs = [tuple(v.index(s) for s in (1, -1)) for v in arr.normals]
    want = set()
    for order in permutations(range(m)):  # order[k] is the value of x_k
        want.add(sum(1 << h for h, (i, j) in enumerate(pairs)
                     if order[i] > order[j]))
    assert len(want) == factorial(m)
    assert enumerate_chambers(arr).masks == tuple(sorted(want))


# sha256 of the comma-joined sorted masks, as produced by the exact-LP
# insertion enumeration that deletion-restriction replaced
MASK_DIGESTS = {
    "boolean:1": "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    "boolean:2": "84deff01f1994516ca1e83d3a07d9ef1a8499dea8dbb783f2a17f56cefa330cf",
    "boolean:3": "1eacc8c10d0cdd8e4fef3d60fc25e5f32b3e29675e63ec3cbe4d9f244d1bfb40",
    "boolean:4": "b9ad7606160a067ebb4fb2935c415d51dc1dea3fb8aba28a42f5734a2f88e14a",
    "braid:3": "4e6d1ff0d6eb74062e518385f542af341380c870fff072cdadb2c424581f3ee9",
    "braid:4": "4adfcfc9789266184387e0ff05859cb9699938047ff9257b5d151331cfa74435",
    "braid:5": "862ae87cc056b8a13e72522417a08a4307b92c42f662fea38a412ec3706994c8",
    "coxeter:B2": "c17a1ab597b3a9883048a231820882d08a0cb8fe32ec87a439c26903a22c41e7",
    "coxeter:B3": "b10108004ded57c8cba827fb34128a255339c881dd86917821714ba5cc6ca60f",
    "u34": "6648d102121600644981289a7e98a4ab36658967277d6e167be8872502abdaae",
    "u45": "c1660c578a6010f632bd9789dcdd730377f7474c44d91de076ba06c097345260",
    "k4me": "65e2316f5a11bcec114287506db35a6363016ec0106fce5e8d325bf89918f6cc",
    "k5me": "d228e8e3f3c7c52ce5837c7b817f8d9c4a3ce5cd58292e84818a85f6bb309dc9",
    "bracelet": "52ce2e28f5ec4559e79169be3760086e3c4cef171bf021e0ababe46cafb52659",
    "nearpencil:4": "015506970ddc9aa0d54ddd3b1c419f81867185bb3bc8cf1702694b50708d59ba",
    "nearpencil:5": "e3cd230bd0dda7a326cc26f36affb270da4cffb19467912b4962145785daa34c",
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_masks_match_frozen_digest(name):
    masks = enumerate_chambers(catalog(name)).masks
    text = ",".join(str(m) for m in masks)
    assert hashlib.sha256(text.encode()).hexdigest() == MASK_DIGESTS[name]


def test_characteristic_polynomials():
    cases = {
        "boolean:2": (1, -2, 1),
        "braid:3": (0, 2, -3, 1),
        "u34": (-3, 6, -4, 1),
        "coxeter:B2": (3, -4, 1),
    }
    for name, coeffs in cases.items():
        _, _, lattice, _ = geometry(name)
        assert lattice.characteristic_polynomial() == coeffs


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "u34"])
def test_tope_graph_is_partial_cube(name):
    _, graph, _, _ = geometry(name)
    for a in range(len(graph)):
        byfs = bfs_distances(graph, a)
        for b in range(len(graph)):
            assert byfs[b] == graph.dist(a, b)
            assert graph.dist(a, b) == (graph.masks[a] ^ graph.masks[b]).bit_count()


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "nearpencil:4"])
def test_antipodal_involution(name):
    arr, graph, _, _ = geometry(name)
    for a in range(len(graph)):
        b = graph.antipode(a)
        assert graph.antipode(b) == a
        assert graph.dist(a, b) == arr.n


def test_edges_cross_one_hyperplane():
    _, graph, _, _ = geometry("braid:4")
    for a, b in graph.edges():
        assert graph.dist(a, b) == 1
    for a in range(len(graph)):
        for b in neighbours(graph, a):
            assert (graph.masks[a] ^ graph.masks[b]).bit_count() == 1


@st.composite
def _sign_triples(draw):
    n = draw(st.integers(1, 6))
    vec = st.tuples(*([st.sampled_from((-1, 0, 1))] * n))
    return draw(vec), draw(vec), draw(vec)


@given(_sign_triples())
def test_tits_product_band_laws(fgh):
    f, g, h = fgh
    assert tits_product(f, f) == f
    assert tits_product(tits_product(f, g), h) == tits_product(
        f, tits_product(g, h)
    )
    assert tits_product(tits_product(f, g), f) == tits_product(f, g)


def test_tits_product_length_mismatch():
    with pytest.raises(ValueError):
        tits_product((1, 0), (1,))


def _all_faces(arr):
    return [
        s for s in product((-1, 0, 1), repeat=arr.n) if sign_feasible(arr, s)
    ]


@pytest.mark.parametrize("name", ["boolean:2", "braid:3", "nearpencil:4"])
def test_gate_property(name):
    """Projecting a chamber to a face lands on the nearest chamber above
    the face, and every chamber above the face routes through it."""
    arr, graph, _, _ = geometry(name)
    faces = _all_faces(arr)
    chamber_signs = [
        tuple(1 if graph.masks[i] >> h & 1 else -1 for h in range(arr.n))
        for i in range(len(graph))
    ]
    index_of = {s: i for i, s in enumerate(chamber_signs)}
    for f in faces:
        above = [
            i
            for i, s in enumerate(chamber_signs)
            if all(fv == 0 or fv == sv for fv, sv in zip(f, s))
        ]
        for c in range(len(graph)):
            fc = tits_product(f, chamber_signs[c])
            gate = index_of[fc]
            assert gate in above
            for d in above:
                assert graph.dist(d, c) == graph.dist(d, gate) + graph.dist(
                    gate, c
                )


def test_faces_counted_by_zaslavsky_sum():
    # total face count equals sum over flats of the restriction chambers
    arr, graph, lattice, _ = geometry("braid:3")
    faces = _all_faces(arr)
    total = sum(
        lattice.restriction_chamber_count(f.index) for f in lattice.flats
    )
    assert len(faces) == total == 13


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_restriction_counts_match_enumeration(name):
    # c^X comes from the Euler relation below the top flat; enumerating
    # the chambers of the restriction to X is the independent route
    arr, _, lattice, _ = geometry(name)
    for f in lattice.flats:
        assert lattice.restriction_chamber_count(f.index) == \
            restriction_count_by_enumeration(arr, f.hyperplanes), f


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_interval_counts_match_enumeration(name):
    # c[Y, X] for every interval [Y, X]: the chambers of the localization
    # A_X restricted to Y, enumerated with Y's hyperplanes renumbered in A_X
    arr, _, lattice, _ = geometry(name)
    for x in lattice.flats:
        local = localize(arr, x.hyperplanes)
        position = {h: k for k, h in enumerate(x.hyperplanes)}
        counts = lattice.counts_below(x.index)
        assert sorted(counts) == lattice.lower(x.index)
        for y, c in counts.items():
            ys = [position[h] for h in lattice.flats[y].hyperplanes]
            assert c == restriction_count_by_enumeration(local, ys), (x, y)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "boolean:12"])
def test_counts_below_match_the_pairwise_sum(name):
    # the upper sets read from the cover pairs against the test of every
    # pair of flats: below every flat on the catalog, and below the top
    # (the restriction counts) on boolean:12, where one pairwise sum over
    # its 4096 flats takes about a third of a second
    lattice = geometry(name)[2]
    top = len(lattice.flats) - 1
    for j in ([top] if name == "boolean:12" else range(top + 1)):
        assert lattice.counts_below(j) == counts_below_by_pairs(lattice, j)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "boolean:8",
                                  "nearpencil:40"])
def test_beta_invariants_match_their_defining_sum(name):
    # the one pass over cover pairs against the sum over the flats below
    # each flat, found by scanning; a rank-1 flat has beta 1, and a
    # rank-2 flat of k hyperplanes, with chi = t^2 - k t + k - 1, k - 2
    lattice = geometry(name)[2]
    for f in lattice.flats:
        beta = lattice.beta_invariant(f.index)
        assert beta == beta_by_scan(lattice, f.index), f
        if f.rank in (1, 2):
            assert beta == (1 if f.rank == 1 else f.size - 2), f


def test_boolean_restriction_counts_at_scale():
    # the restriction of boolean:10 to a flat of rank r is boolean:(10 - r)
    _, _, lattice, _ = geometry("boolean:10")
    assert len(lattice.flats) == 1024
    for f in lattice.flats:
        assert lattice.restriction_chamber_count(f.index) == 2 ** (10 - f.rank)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "boolean:8", "braid:6"])
def test_localizations_project_from_the_tope_graph(name):
    # random instances are checked in ``check_instance_laws``
    arr, graph, lattice, _ = geometry(name)
    assert_localizations_project(arr, graph, lattice)


def test_localize_and_restrict_shapes():
    arr = catalog("braid:3")
    loc = localize(arr, (0, 1))
    assert loc.n == 2 and loc.dimension == arr.dimension
    res, basis, images = _restrict_with_basis(arr, (0,))
    # the two other reflection planes cut the same line on the wall
    assert res.n == 1 and res.dimension == arr.dimension - 1
    assert len(basis) == res.dimension
    assert images == {1: (0, 1), 2: (0, 1)}


def _assert_restriction_map(arr, flat):
    # each hyperplane cutting the flat has a row in the kernel coordinates
    # that is a positive multiple of s times restricted normal j; the rest
    # contain the flat and have a zero row
    sub, basis, images = _restrict_with_basis(arr, flat)
    assert sorted({j for j, _ in images.values()}) == list(range(sub.n))
    for h, a in enumerate(arr.normals):
        row = [_dot(a, b) for b in basis]
        if h not in images:
            assert not any(row), (h, row)
            continue
        j, s = images[h]
        target = [s * x for x in sub.normals[j]]
        ratio = next(r // t for r, t in zip(row, target) if t)
        assert ratio > 0 and row == [ratio * t for t in target], (h, row)
    return images


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_restriction_map_on_every_hyperplane(name):
    arr = catalog(name)
    for h in range(arr.n):
        assert h not in _assert_restriction_map(arr, (h,))


def test_restriction_map_signs_and_zero_rows():
    # on x = 0 in B3, x - y and x - z cut the lines of y and z reversed
    assert _assert_restriction_map(catalog("coxeter:B3"), (0,)) == {
        1: (0, 1), 2: (1, 1), 3: (0, 1), 4: (0, -1), 5: (1, 1), 6: (1, -1),
        7: (2, 1), 8: (3, 1)}
    # x2 - x3 contains the flat of x1 - x2 and x1 - x3, so it has no image
    assert _assert_restriction_map(catalog("braid:4"), (0, 1)) == {
        2: (0, 1), 4: (0, 1), 5: (0, 1)}


@pytest.mark.parametrize(
    "name", CATALOG_NAMES + ("boolean:8", "braid:6", "nearpencil:40"))
def test_lattice_matches_closure_search(name):
    # covers from grouped remainders against the closure search, which
    # tests every outside hyperplane of every closure by rank
    arr = catalog(name)
    lattice = intersection_lattice(enumerate_chambers(arr))
    assert {f.mask: f.rank for f in lattice.flats} == flats_by_closure(arr)
    # Weisner's recursion over lower covers against the defining sum
    assert {f.mask: f.mobius for f in lattice.flats} == mobius_by_sum(lattice)


def test_essentialize_preserves_chambers():
    # braid:4 lives in R^4 with rank 3.  Each normal's entries sum to 0,
    # so a . x = a[:3] . y with y_k = x_k - x_4: the rows a[:3] in R^3
    # have the same sign vectors, hence the same chamber masks
    arr = catalog("braid:4")
    ess = parse_arrangement([r[:3] for r in arr.normals])
    assert ess.dimension == 3
    assert enumerate_chambers(ess).masks == enumerate_chambers(arr).masks
    assert len(enumerate_chambers(ess)) == 24


WIDE = [[1] * 40, list(range(1, 41)), [k * k for k in range(1, 41)],
        [1] + [0] * 39]


@pytest.mark.parametrize("rows, rank, chambers", [
    (WIDE, 4, 16),
    (catalog("braid:4").normals, 3, 24),
], ids=["wide", "braid:4"])
def test_enumeration_builds_no_restriction_past_the_rank(
        monkeypatch, rows, rank, chambers):
    # four normals in R^40 span a 4-dimensional row space, and braid:4's
    # span 3 dimensions of R^4: the chambers are enumerated on a column
    # basis, so no restriction is built in more than rank dimensions
    dims = []

    def recorded(arr, hyperplanes):
        dims.append(arr.dimension)
        return _restrict_with_basis(arr, hyperplanes)

    monkeypatch.setattr(arrangement, "_restrict_with_basis", recorded)
    graph = enumerate_chambers(parse_arrangement(rows))
    assert len(graph) == chambers
    assert dims and max(dims) <= rank


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_dependent_columns_keep_the_masks(name):
    # zero columns, or a column that is a sum of other columns, add no
    # sign vector: each witness, padded from the column basis, is checked
    # against the padded normals when the tope graph is built
    arr = catalog(name)
    masks = enumerate_chambers(arr).masks
    for pad in (lambda r: (0,) + r + (0, 0),
                lambda r: r + (sum(r),),
                lambda r: (r[0] + r[-1],) + r):
        padded = parse_arrangement([pad(r) for r in arr.normals])
        assert enumerate_chambers(padded).masks == masks


def test_direct_sum_multiplies_chambers():
    a = catalog("boolean:1")
    b = catalog("braid:3")
    ds = parse_arrangement(
        [list(r) + [0] * b.dimension for r in a.normals]
        + [[0] * a.dimension + list(r) for r in b.normals]
    )
    assert ds.n == a.n + b.n
    assert len(enumerate_chambers(ds)) == 2 * 6


# ---------------------------------------------------------------------------
# symmetry group


def _edge_relabelling(graph, perm):
    """Hyperplane relabelling of a chamber permutation, read off the edges:
    chambers adjacent across h must go to chambers adjacent across one g."""
    hmap = [None] * graph.n
    for i, j in graph.edges():
        h = (graph.masks[i] ^ graph.masks[j]).bit_length() - 1
        image = graph.masks[perm[i]] ^ graph.masks[perm[j]]
        assert image.bit_count() == 1
        g = image.bit_length() - 1
        assert hmap[h] in (None, g)
        hmap[h] = g
    return tuple(hmap)


def _enumerated_symmetries(graph):
    """{chamber permutation: hyperplane relabelling} over all 2^d * d!
    signed coordinate permutations, tried one by one."""
    arr = graph.arrangement
    d = arr.dimension
    signed = {}
    for h, a in enumerate(arr.normals):
        signed[a] = (h, 1)
        signed[tuple(-x for x in a)] = (h, -1)
    found = {}
    for pi in permutations(range(d)):
        for signs in product((1, -1), repeat=d):
            hyper_map = []
            for a in arr.normals:
                image = [0] * d
                for k in range(d):
                    image[pi[k]] = signs[k] * a[k]
                hit = signed.get(tuple(image))
                if hit is None:
                    break
                hyper_map.append(hit)
            else:
                # sign on h of the image chamber = eps * sign on g
                perm = tuple(
                    graph.index[sum(((mask >> g & 1) ^ (eps < 0)) << h
                                    for h, (g, eps) in enumerate(hyper_map))]
                    for mask in graph.masks
                )
                found[perm] = _edge_relabelling(graph, perm)
    return found


def _assert_group_matches_enumeration(graph, lattice):
    group = tope_symmetries(graph)
    every = _enumerated_symmetries(graph)
    assert group.order == len(group) == len(every)
    assert len(group.generators) == len(group.hyperplane_perms)
    for perm, relabelling in zip(group.generators, group.hyperplane_perms):
        assert every[perm] == relabelling
    size = len(graph)
    assert orbits_of_permutations(size, group.generators) == \
        orbits_of_permutations(size, list(every))
    flat_perms = [
        tuple(lattice.index[sum(1 << hp[h] for h in f.hyperplanes)]
              for f in lattice.flats)
        for hp in every.values()
    ]
    assert flat_orbits(lattice, group) == \
        orbits_of_permutations(len(lattice.flats), flat_perms)


@pytest.mark.parametrize(
    "name", CATALOG_NAMES + ("boolean:5", "braid:2", "nearpencil:3"))
def test_symmetry_group_matches_enumeration(name):
    arr = catalog(name)
    graph = enumerate_chambers(arr)
    _assert_group_matches_enumeration(graph, intersection_lattice(graph))


def _random_symmetric_arrangements(count, seed):
    """Arrangements with entries in {-1, 0, 1} in R^2..R^4, which often
    have symmetries; about 30% get a zero coordinate, so they are not
    essential and some signed maps fix every normal."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        rows = [[rng.randint(-1, 1) for _ in range(d)]
                for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.3:
            dead = rng.randrange(d)
            for row in rows:
                row[dead] = 0
        try:
            out.append(parse_arrangement(rows))
        except ParseError:
            continue
    return out


def test_symmetry_group_matches_enumeration_on_random_arrangements():
    arrangements = _random_symmetric_arrangements(220, seed=5)
    essential = 0
    for arr in arrangements:
        graph = enumerate_chambers(arr)
        lattice = intersection_lattice(graph)
        essential += lattice.rank == arr.dimension
        _assert_group_matches_enumeration(graph, lattice)
    assert 0 < essential < len(arrangements)


KNOWN_SYMMETRY_ORDERS = {
    **{f"boolean:{d}": 2 ** d * factorial(d) for d in range(1, 13)},
    "braid:2": 2,  # the swap composed with -I fixes x1 - x2
    **{f"braid:{m}": 2 * factorial(m) for m in range(3, 7)},
    "u34": 12,
    "coxeter:B2": 8,
    "nearpencil:5": 4,
}


@pytest.mark.parametrize("name", list(KNOWN_SYMMETRY_ORDERS))
def test_tope_symmetry_orders(name):
    graph = enumerate_chambers(catalog(name))
    group = tope_symmetries(graph)
    assert group.order == len(group) == KNOWN_SYMMETRY_ORDERS[name]
    for p in group.generators:
        assert sorted(p) == list(range(len(graph)))
        for a in range(len(graph)):
            for b in neighbours(graph, a):
                assert graph.dist(p[a], p[b]) == 1


def _group_closure_size(perms):
    seen = {tuple(range(len(perms[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = tuple(p[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def test_dense_symmetry_search_is_pruned():
    # 10 distinct +-1 normals in R^8: without the prune on partial images
    # the backtrack tries most of the 2^8 * 8! signed maps
    rng = random.Random(0)
    rows = []
    while len(rows) < 10:
        row = [rng.choice((1, -1)) for _ in range(8)]
        if row not in rows and [-x for x in row] not in rows:
            rows.append(row)
    graph = enumerate_chambers(parse_arrangement(rows))
    start = time.perf_counter()
    group = tope_symmetries(graph)
    assert time.perf_counter() - start < 5
    # an exhaustive run over all 2^8 * 8! signed maps finds 4 of them
    assert group.order == _group_closure_size(group.generators) == 4


def _chamber_orbits_by_mask(graph, group):
    return {frozenset(graph.masks[c] for c in members) for members in
            orbits_of_permutations(len(graph), group.generators)[1]}


@pytest.mark.parametrize("name, pad", [("boolean:3", 2), ("u34", 3)])
def test_zero_columns_change_no_symmetry(name, pad):
    # coordinates that no normal uses, in front, in the middle and at
    # the end: the chamber group keeps its order and its chamber orbits
    plain = enumerate_chambers(catalog(name))
    padded = enumerate_chambers(parse_arrangement(
        [[0, a[0]] + [0] * pad + list(a[1:]) + [0]
         for a in catalog(name).normals]))
    assert padded.masks == plain.masks
    want, got = tope_symmetries(plain), tope_symmetries(padded)
    assert got.order == want.order == _group_closure_size(got.generators)
    assert (_chamber_orbits_by_mask(padded, got)
            == _chamber_orbits_by_mask(plain, want))


def test_wide_zero_padding_is_searched_quickly():
    # three lines in the plane of the first two of 400 coordinates: the
    # 398 coordinates no normal uses stay out of the signed-map search
    rows = [[1, 0] + [0] * 398, [0, 1] + [0] * 398, [1, 1] + [0] * 398]
    graph = enumerate_chambers(parse_arrangement(rows))
    start = time.perf_counter()
    group = tope_symmetries(graph)
    assert time.perf_counter() - start < 5
    assert group.order == 4
    assert len(_chamber_orbits_by_mask(graph, group)) == 2


def test_wide_distinct_columns_are_searched_quickly():
    # three planes in R^300 whose 300 columns (1, t, t^2) are pairwise
    # distinct in absolute value: no coordinate can go to another, so the
    # signed-map search tries no image but the identity's, where trying
    # every coordinate at every level took about 6 s
    rows = [[1] * 300, list(range(1, 301)), [t * t for t in range(1, 301)]]
    graph = enumerate_chambers(parse_arrangement(rows))
    start = time.perf_counter()
    group = tope_symmetries(graph)
    assert time.perf_counter() - start < 2
    assert group.order == _group_closure_size(group.generators) == 2
    assert len(_chamber_orbits_by_mask(graph, group)) == 4


@pytest.mark.parametrize("relabelling, message", [
    ((1, 0, 2, 3), r"generator 0 sends flat \(0, 2\) of rank 2 to no flat"),
    ((0, 0, 2, 3), "generator 0 does not permute the 4 hyperplanes"),
    ((0, 1, 2), "generator 0 does not permute the 4 hyperplanes"),
])
def test_flat_orbits_reject_a_bad_group(relabelling, message):
    # nearpencil:4 has the pencil {1, 2, 3}: swapping hyperplanes 0 and 1
    # sends the flat {0, 2} to {1, 2}, which is not closed
    _, _, lattice, _ = geometry("nearpencil:4")
    bad = SymmetryGroup((), (relabelling,), 2)
    for _ in range(2):  # a failed check is not memoized
        with pytest.raises(CheckFailedError, match=message):
            flat_orbits(lattice, bad)
    with pytest.raises(CheckFailedError, match=message):
        magnitude_by_face_decomposition(lattice, bad)


def test_orbit_partitions():
    _, graph, lattice, group = geometry("braid:3")
    orbit_id, orbits = orbits_of_permutations(len(graph), group.generators)
    assert sorted(x for o in orbits for x in o) == list(range(len(graph)))
    assert len(orbits) == 1  # reflection group acts transitively
    _, forbits = flat_orbits(lattice, group)
    sizes = sorted(len(o) for o in forbits)
    assert sizes == [1, 1, 3]
    # memoized on the lattice, by the hyperplane relabellings
    assert flat_orbits(lattice, group) is flat_orbits(lattice, group)
    trivial = flat_orbits(lattice, SymmetryGroup((), (), 1))
    assert len(trivial[1]) == len(lattice.flats)


def test_rank2_flat_multiplicities():
    for name, want in {
        "u34": {2: 6},
        "k4me": {2: 4, 3: 2},
        "nearpencil:4": {2: 3, 3: 1},
    }.items():
        _, _, lattice, _ = geometry(name)
        assert lattice.rank3_line_multiplicities() == want
