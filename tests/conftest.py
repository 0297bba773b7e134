"""Shared fixtures: geometry is expensive, so catalog arrangements are
enumerated once per run and reused across test modules.  Also the
oracles only tests use: values of rational functions, face sign
vectors, their product, restriction chambers by enumeration, flats by
closure, Moebius numbers by their defining sum, matroid components by
separators, distances found by walking edges, relabelled bits one at a
time, the Betti table reduced block by block, and invariant factors
from minors."""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from magarr.arrangement import (
    _chamber_witnesses,
    _dot,
    _lift,
    _restrict_with_basis,
    catalog,
    enumerate_chambers,
    intersection_lattice,
    parse_arrangement,
)
from magarr.linalg import matrix_rank, rref
from magarr.homology import (
    HomologyResult,
    _block_homology,
    _near_lists,
    _tidy_torsion,
    canonical_key,
    chain_count_table,
    magnitude_homology,
    structural_checks,
)
from magarr.polyq import series_expand
from magarr.magnitude import chamber_orbits, magnitude_direct
from magarr.magnitude import structural_checks as magnitude_checks

# 18 lines, 216 chambers, 15 ordinary and 46 triple points: the arguments
# of ``rank3_magnitude`` for a line arrangement whose series coefficients
# stop alternating in sign.
EIGHTEEN_LINES = (18, 216, {2: 15, 3: 46})

_GEOMETRY = {}
_MAGNITUDE = {}
_MAGNITUDE_CHECKS = {}
_HOMOLOGY = {}


def value_at(f, x):
    """The value of the rational function f at x, exactly."""
    return Fraction(f.num.evaluate(x), f.den.evaluate(x))


def geometry(name):
    """(arrangement, tope graph, flat poset, symmetry group) for a catalog
    name."""
    if name not in _GEOMETRY:
        arr = catalog(name)
        graph = enumerate_chambers(arr)
        lattice = intersection_lattice(graph)
        _, _, group = chamber_orbits(graph)
        _GEOMETRY[name] = (arr, graph, lattice, group)
    return _GEOMETRY[name]


def magnitude_of(name):
    if name not in _MAGNITUDE:
        _, graph, _, group = geometry(name)
        _MAGNITUDE[name] = magnitude_direct(graph, group)
    return _MAGNITUDE[name]


def magnitude_checks_of(name):
    """The named magnitude checks of a catalog name, as ``mag`` makes
    them by default."""
    if name not in _MAGNITUDE_CHECKS:
        _, graph, lattice, group = geometry(name)
        _MAGNITUDE_CHECKS[name] = magnitude_checks(
            graph, lattice, group, magnitude_of(name), face_check=True,
            det_check=False)
    return _MAGNITUDE_CHECKS[name]


def homology_of(name, lmax):
    """Betti data at the given cap, with the Euler check against the
    magnitude series."""
    key = (name, lmax)
    if key not in _HOMOLOGY:
        _, graph, _, group = geometry(name)
        _HOMOLOGY[key] = magnitude_homology(
            graph, lmax=lmax, group=group,
            magnitude=magnitude_of(name).magnitude,
        )
    return _HOMOLOGY[key]


# ---------------------------------------------------------------------------
# oracles: independent descriptions of the face structure and the metric


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sign_feasible(arrangement, signs):
    """Integer point with the given sign vector, or None when no face has it.

    ``signs`` is a sequence over {+1, 0, -1}, one entry per hyperplane.
    Such points lie in the flat cut out by the zero entries and fill one
    chamber of the restriction to that flat, so each restricted chamber
    witness is lifted back and the one whose full sign vector matches is
    returned.
    """
    if len(signs) != arrangement.n:
        raise ValueError("sign vector length mismatch")
    zeros = [h for h, s in enumerate(signs) if s == 0]
    sub, basis, _ = _restrict_with_basis(arrangement, zeros)
    want = tuple(signs)
    for p in _chamber_witnesses(sub).values():
        point = _lift(p, basis, arrangement.dimension)
        if tuple(_sign(_dot(a, point)) for a in arrangement.normals) == want:
            return point
    return None


def restriction_count_by_enumeration(arrangement, hyperplanes):
    """Chambers of the restriction to the flat cut out by ``hyperplanes``,
    by enumerating them: the cross-check of the Euler-relation counts."""
    sub, _, _ = _restrict_with_basis(arrangement, hyperplanes)
    return len(_chamber_witnesses(sub))


def flats_by_closure(arrangement):
    """{flat mask: rank}, the cross-check of ``intersection_lattice``: the
    flats covering X are the closures of X plus one hyperplane outside
    it, and hyperplane g lies in a closure when adding its normal leaves
    the rank of the closure's echelon basis unchanged.  Every flat of
    every rank is searched, the top one too."""
    normals = arrangement.normals
    rank_of = {0: 0}
    frontier = [(0, [])]  # (flat mask, echelon basis of its normals)
    rank = 0
    while frontier:
        rank += 1
        nxt = []
        for mask, basis in frontier:
            outside = [g for g in range(arrangement.n) if not mask >> g & 1]
            todo = outside
            while todo:
                reduced, _ = rref(basis + [normals[todo[0]]])
                closed = mask | sum(
                    1 << g for g in outside
                    if matrix_rank(reduced + [normals[g]]) == len(reduced))
                todo = [g for g in todo if not closed >> g & 1]
                if closed not in rank_of:
                    rank_of[closed] = rank
                    nxt.append((closed, reduced))
        frontier = nxt
    return rank_of


def mobius_by_sum(lattice):
    """{flat mask: mu(0, flat)} from the definition, mu(0, Z) = -(sum of
    mu(0, W) over the flats W < Z), scanning every earlier flat: the
    cross-check of the Weisner recursion in ``intersection_lattice``."""
    mobius = {0: 1}
    for f in lattice.flats[1:]:
        mobius[f.mask] = -sum(v for w, v in mobius.items()
                              if w & f.mask == w)
    return mobius


def components_by_separators(arrangement):
    """Matroid components by brute force, the cross-check of
    ``components``: a set S of hyperplanes is a separator when
    rank(S) + rank(rest) = rank(all), and the component of h is the
    intersection of the separators that contain h."""
    n = arrangement.n
    full = (1 << n) - 1

    def rank(mask):
        return matrix_rank([arrangement.normals[h] for h in range(n)
                            if mask >> h & 1]) if mask else 0

    total = rank(full)
    separators = [s for s in range(1, full + 1)
                  if rank(s) + rank(full ^ s) == total]
    comps = set()
    for h in range(n):
        meet = full
        for s in separators:
            if s >> h & 1:
                meet &= s
        comps.add(tuple(g for g in range(n) if meet >> g & 1))
    return sorted(comps)


def tits_product(f, g):
    """Composition of sign vectors: entries of f, with zeros filled from g."""
    if len(f) != len(g):
        raise ValueError("sign vector length mismatch")
    return tuple(fi if fi != 0 else gi for fi, gi in zip(f, g))


def neighbours(graph, i):
    """Chambers one wall away from chamber i."""
    m = graph.masks[i]
    out = []
    for h in range(graph.n):
        j = graph.index.get(m ^ (1 << h))
        if j is not None:
            out.append(j)
    return out


def bfs_distances(graph, i):
    """Graph distances from chamber i, walking edges only."""
    dist = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbours(graph, u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def stabilizer_by_closure(graph, group, start):
    """Hyperplane relabellings of every element fixing chamber ``start``.

    The group is closed on chambers from its chamber generators, so it
    must be small; its size is checked against ``group.order``.  Each
    relabelling is read off the chamber action: an edge across h goes to
    an edge across the image of h.
    """
    identity = tuple(range(len(graph)))
    elements = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = tuple(g[c] for c in x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    assert len(elements) == group.order
    wall = {}
    for i, j in graph.edges():
        wall.setdefault((graph.masks[i] ^ graph.masks[j]).bit_length() - 1,
                        (i, j))
    assert len(wall) == graph.n
    out = []
    for x in elements:
        if x[start] != start:
            continue
        perm = [0] * graph.n
        for h, (i, j) in wall.items():
            perm[h] = (graph.masks[x[i]] ^ graph.masks[x[j]]).bit_length() - 1
        out.append(tuple(perm))
    return out


def key_orbit_by_closure(stabilizer, start_mask, graph, key):
    """Orbit of a block key (length, end, profile) under the relabellings
    of ``stabilizer_by_closure``: the profile's counts move with the
    hyperplanes, and the end is the start with the oddly crossed
    hyperplanes flipped."""
    length, _end, profile = key
    orbit = set()
    for perm in stabilizer:
        image = [0] * len(profile)
        for h, c in enumerate(profile):
            image[perm[h]] = c
        odd = sum(1 << h for h, c in enumerate(image) if c % 2)
        orbit.add((length, graph.index[start_mask ^ odd], tuple(image)))
    return orbit


def random_arrangements(count, seed, nmin=3, nmax=5, dim=3, span=2):
    """Deduplicated random integer arrangements for the property suite."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(nmin, nmax)
        rows = [
            [rng.randint(-span, span) for _ in range(dim)] for _ in range(n)
        ]
        try:
            arr = parse_arrangement(rows)
        except Exception:
            continue
        out.append(arr)
    return out


def check_instance_laws(arr):
    """Invariants every central arrangement must satisfy, end to end."""
    graph = enumerate_chambers(arr)
    lattice = intersection_lattice(graph)
    _, _, group = chamber_orbits(graph)
    size = len(graph)
    assert {f.mask: f.rank for f in lattice.flats} == flats_by_closure(arr)
    assert {f.mask: f.mobius for f in lattice.flats} == mobius_by_sum(lattice)

    # sign enumeration agrees with the alternating Moebius count
    chi = lattice.characteristic_polynomial()
    assert abs(sum(c * (-1) ** k for k, c in enumerate(chi))) == size
    for f in lattice.flats:
        assert (lattice.restriction_chamber_count(f.index)
                == restriction_count_by_enumeration(arr, f.hyperplanes))

    # edge metric is the separation metric, antipodes exist
    for a in range(size):
        bfs = bfs_distances(graph, a)
        for b in range(size):
            assert bfs[b] == graph.dist(a, b)
        anti = graph.antipode(a)
        assert graph.antipode(anti) == a
        assert graph.dist(a, anti) == arr.n

    # gate property of the projection onto each face
    faces = [
        s for s in product((-1, 0, 1), repeat=arr.n) if sign_feasible(arr, s)
    ]
    chamber_signs = [
        tuple(1 if graph.masks[i] >> h & 1 else -1 for h in range(arr.n))
        for i in range(size)
    ]
    index_of = {s: i for i, s in enumerate(chamber_signs)}
    for f in faces:
        above = [
            i
            for i, s in enumerate(chamber_signs)
            if all(fv == 0 or fv == sv for fv, sv in zip(f, s))
        ]
        for c in range(size):
            fc = tits_product(f, chamber_signs[c])
            gate = index_of[fc]
            assert gate in above
            for d in above:
                assert graph.dist(d, c) == graph.dist(d, gate) + graph.dist(gate, c)

    # series, chain counts, homology and every structural identity agree
    mag = magnitude_direct(graph, group)
    checks = magnitude_checks(graph, lattice, group, mag, face_check=True,
                              det_check=False)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
    hom = magnitude_homology(
        graph, lmax=5, group=group, magnitude=mag.magnitude,
    )
    checks = structural_checks(lattice, group, hom, face_check=True)
    assert set(hom.checks) < set(checks)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
    return size


# ---------------------------------------------------------------------------
# oracle: the homology run with nothing collapsed


def _chain_blocks(graph, start, lmax, interior_only=False):
    """{(length, end, profile): {degree: [chains]}} of one start, by a
    plain depth-first search over whole chains: every chamber at
    distance 1 to the remaining length is tried as the next step, with
    no key search, no stabilizer and no memo.  With ``interior_only``,
    a chain that can no longer cross every hyperplane within ``lmax``
    is cut, and only blocks crossing every hyperplane are kept."""
    masks = graph.masks
    blocks = {}
    stack = [((start,), 0, (0,) * graph.n)]
    while stack:
        chain, length, profile = stack.pop()
        if not interior_only or 0 not in profile:
            key = (length, chain[-1], profile)
            blocks.setdefault(key, {}).setdefault(
                len(chain) - 1, []).append(chain)
        for v, m in enumerate(masks):
            sep = masks[chain[-1]] ^ m
            nlength = length + sep.bit_count()
            if sep == 0 or nlength > lmax:
                continue
            nprofile = tuple(c + (sep >> h & 1) for h, c in enumerate(profile))
            if interior_only and nprofile.count(0) > lmax - nlength:
                continue
            stack.append((chain + (v,), nlength, nprofile))
    return blocks


def _raw_memo_key(graph, start, profile):
    """(profile on its support S, packed x ^ start of the chambers x that
    agree with ``start`` off S), the memo key before relabelling."""
    support = [h for h, c in enumerate(profile) if c]
    inside = sum(1 << h for h in support)
    tops = frozenset(
        sum(1 << i for i, h in enumerate(support) if x >> h & 1)
        for x in (m ^ graph.masks[start] for m in graph.masks)
        if x & inside == x)
    return tuple(profile[h] for h in support), tops


def relabel_bits_by_bits(xs, perm):
    """Each x with its bit perm[p] moved to bit p, one bit at a time: the
    cross-check of the table in ``homology._relabel_bits``."""
    return [sum((x >> c & 1) << p for p, c in enumerate(perm)) for x in xs]


def every_block(graph, lmax, interior_only=False):
    """(start, block key, memo key, summary) for every block of every
    start: ``_chain_blocks``, each block reduced on its own, and the memo
    key that ``canonical_key`` gives it."""
    for start in range(len(graph)):
        for key, block in _chain_blocks(
                graph, start, lmax, interior_only).items():
            memo_key = canonical_key(*_raw_memo_key(graph, start, key[2]))
            yield start, key, memo_key, _block_homology(block, graph.masks)


def _euler(table):
    out = defaultdict(int)
    for (k, length), v in table.items():
        out[length] += -v if k % 2 else v
    return dict(out)


def betti_by_every_block(graph, lmax, interior_only=False, magnitude=None):
    """What ``magnitude_homology`` returns, from ``every_block``: no
    chamber orbits and no memo, every field and check rebuilt here."""
    parts = ("all", "interior", "geodesic")
    betti = {part: defaultdict(int) for part in parts}
    torsion = {part: defaultdict(list) for part in parts}
    dims = defaultdict(int)
    for start, (length, end, profile), _memo_key, summary in every_block(
            graph, lmax, interior_only):
        tallied = ["all"]
        if 0 not in profile:
            tallied.append("interior")
        if length == graph.dist(start, end):
            tallied.append("geodesic")
        for k, (b, tor, dim) in summary.items():
            dims[(k, length)] += dim
            for part in tallied:
                if b:
                    betti[part][(k, length)] += b
                torsion[part][(k, length)].extend(tor)
    checks = {}
    if not interior_only:
        checks["chain_counts_match_recursion"] = (
            chain_count_table(lmax, [[c] for c in range(len(graph))],
                              _near_lists(graph, lmax)) == dict(dims))
        euler = _euler(dims)
        checks["euler_of_homology_matches_chains"] = euler == _euler(
            betti["all"])
        if magnitude is not None:
            series = series_expand(magnitude, lmax)
            checks["euler_matches_series"] = all(
                euler.get(l, 0) == series[l] for l in range(lmax + 1))
    main = "interior" if interior_only else "all"
    return HomologyResult(
        lmax=lmax,
        betti=dict(betti[main]),
        torsion=_tidy_torsion(torsion[main]),
        chain_dims=dict(dims),
        interior_betti=dict(betti["interior"]),
        interior_torsion=_tidy_torsion(torsion["interior"]),
        geodesic_betti=dict(betti["geodesic"]),
        geodesic_torsion=_tidy_torsion(torsion["geodesic"]),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# oracle: Smith normal form from determinantal divisors


def _det(m):
    """Exact integer determinant by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def smith_by_minors(entries):
    """Invariant factors of a sparse integer matrix {(i, j): value}, as
    ``snf_diagonal`` returns them: the product d1...dk is the gcd of all
    k x k minors, so dk is the ratio of two consecutive gcds, up to the
    rank, the largest k with a nonzero minor."""
    rows = sorted({i for i, _ in entries})
    cols = sorted({j for _, j in entries})
    factors = []
    previous = 1
    for k in range(1, min(len(rows), len(cols)) + 1):
        divisor = 0
        for rs in combinations(rows, k):
            for cs in combinations(cols, k):
                minor = [[entries.get((i, j), 0) for j in cs] for i in rs]
                divisor = gcd(divisor, _det(minor))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors)
