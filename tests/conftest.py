"""Shared fixtures: geometry is expensive, so catalog arrangements are
enumerated once per run and reused across test modules.  Also the
oracles only tests use: values of rational functions, face sign
vectors, their product, localizations as subarrangements to enumerate
afresh, restriction chambers by enumeration, flats by closure, Moebius
numbers by their defining sum, polynomial powers, cyclotomic
polynomials, cyclotomic factors by trial division, factored forms
expanded, the determinant's product formula flat by flat, matroid
components by separators, distances found by walking edges, relabelled
bits one at a time, a block reduced from all its chains (with the
blocks each cached homology run reduced, for comparing with it), the
Betti table reduced block by block, the face
decomposition summed with one homology run per flat orbit, invariant
factors from minors, beta invariants by scanning every flat, leading
minors at q = 2**b with the magnitude they give on the full chamber
matrix, and distance profiles by scanning every pair of chambers."""

from __future__ import annotations

import contextlib
import functools
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from magarr.arrangement import (
    Arrangement,
    _chamber_witnesses,
    _dot,
    _lift,
    _restrict_with_basis,
    catalog,
    enumerate_chambers,
    flat_orbits,
    intersection_lattice,
    parse_arrangement,
)
from magarr.linalg import complex_homology, matrix_rank, rref
import magarr.homology as homology
from magarr.homology import (
    HomologyResult,
    _assert_d2_zero,
    _tidy_torsion,
    canonical_key,
    chain_count_table,
    face_decomposition_check,
    magnitude_homology,
    structural_checks,
)
from magarr.errors import CheckFailedError
from magarr.polyq import (
    ONE,
    IntPoly,
    euler_phi,
    reduce_fraction,
    series_expand,
)
from magarr.magnitude import (
    _hadamard_bits,
    _kronecker_decode,
    chamber_orbits,
    magnitude_direct,
    orbit_matrix,
    varchenko_det_product,
)
from magarr.magnitude import structural_checks as magnitude_checks

# 18 lines, 216 chambers, 15 ordinary and 46 triple points: the arguments
# of ``rank3_magnitude`` for a line arrangement whose series coefficients
# stop alternating in sign.
EIGHTEEN_LINES = (18, 216, {2: 15, 3: 46})
# a (matrix, (g, det S)) pair that no determinant block equals, so
# ``varchenko_det`` eliminates every block
NO_SYSTEM = ((), (ONE, ONE))

_GEOMETRY = {}
_MAGNITUDE = {}
_MAGNITUDE_CHECKS = {}
_HOMOLOGY = {}
_REDUCED = {}


def elimination_work(order, n, bits):
    """The work estimate of one ``_bareiss_minors`` call, restated:
    order^3 (order n bits)^2 for an order x order matrix with entries of
    degree at most n, at ``bits`` Hadamard bits."""
    return order ** 3 * (order * n * bits) ** 2


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
        _, _, lattice, group = geometry(name)
        _MAGNITUDE_CHECKS[name] = magnitude_checks(
            lattice, group, magnitude_of(name), face_check=True,
            det_check=False)
    return _MAGNITUDE_CHECKS[name]


def homology_of(name, lmax):
    """Betti data at the given cap, with the Euler check against the
    magnitude series."""
    key = (name, lmax)
    if key not in _HOMOLOGY:
        _, graph, _, group = geometry(name)
        with recording_blocks() as reduced:
            _HOMOLOGY[key] = magnitude_homology(
                graph, lmax=lmax, group=group,
                magnitude=magnitude_of(name).magnitude,
            )
        _REDUCED[key] = reduced
    return _HOMOLOGY[key]


def reduced_blocks_of(name, lmax):
    """What ``recording_blocks`` saw in the run of ``homology_of``."""
    homology_of(name, lmax)
    return _REDUCED[name, lmax]


@contextlib.contextmanager
def recording_blocks():
    """A list of (in-edges, key, summary) for every block that
    ``homology._morse_block`` reduces inside: the entries of the
    search's in-edges for the keys on the block's paths, the block's
    key and what the reduction returned."""
    reduced = []
    reduce = homology._morse_block

    def recorded(into, key, masks, index):
        summary = reduce(into, key, masks, index)
        above, todo = {key: into[key]}, [key]
        while todo:
            for prev in into[todo.pop()][3]:
                if prev not in above:
                    above[prev] = into[prev]
                    todo.append(prev)
        reduced.append((above, key, summary))
        return summary

    homology._morse_block = recorded
    try:
        yield reduced
    finally:
        homology._morse_block = reduce


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


def localize(arrangement, hyperplanes):
    """Subarrangement of the hyperplanes through a flat, in the same
    space; enumerated afresh, it is the oracle for the tope graphs that
    ``TopeGraph.localization`` projects."""
    hs = sorted(hyperplanes)
    return Arrangement(arrangement.dimension,
                       tuple(arrangement.normals[h] for h in hs),
                       tuple(arrangement.labels[h] for h in hs))


def assert_localizations_project(arr, graph, lattice):
    """At every flat above the bottom, the tope graph projected from the
    arrangement's is the one enumerated afresh on the subarrangement."""
    for f in lattice.flats:
        if f.rank:
            got = graph.localization(f.hyperplanes)
            want = enumerate_chambers(localize(arr, f.hyperplanes))
            assert got.arrangement == want.arrangement, f
            assert got.masks == want.masks, f


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


def beta_by_scan(lattice, j):
    """|chi'(1)| of the localization at flat j from its definition, the
    sum of mu(0, Y) (d - rank Y) over the flats Y <= X found by scanning
    every flat: the cross-check of ``FaceLattice.beta_invariant``."""
    d = lattice.graph.arrangement.dimension
    top = lattice.flats[j].mask
    return abs(sum(f.mobius * (d - f.rank) for f in lattice.flats
                   if not f.mask & ~top))


def counts_below_by_pairs(lattice, j):
    """{index of Y: c[Y, X]} over the flats Y <= X = flat j from the
    Euler relation read top down, testing every pair of flats below X
    for Y <= Z: the cross-check of ``FaceLattice.counts_below``."""
    counts, signed = {}, []  # signed: (mask of Z, (-1)^rank(Z) c)
    for y in reversed(lattice.lower(j)):
        f = lattice.flats[y]
        m, sign = f.mask, -1 if f.rank % 2 else 1
        s = sign - sum(v for z, v in signed if z & m == m)
        signed.append((m, s))
        counts[y] = sign * s
    return counts


def kronecker_minors(matrix, weights, bits=None):
    """Every leading principal minor of the IntPoly matrix B by symmetric
    fraction-free elimination at q = 2**b, each decoded from its signed
    base-2**b digits: the cross-check of the palindromic route.  It needs
    no symmetry of the entries, only w_i B[i][j] = w_j B[j][i] and
    nonzero minors but the last; b defaults to the Hadamard bits of B,
    at which every minor's coefficients are below 2**(b - 1)."""
    if bits is None:
        bits = _hadamard_bits(matrix)
    a = [[p.evaluate(1 << bits) for p in row] for row in matrix]
    n = len(a)
    if any(weights[i] * a[i][j] != weights[j] * a[j][i]
           for i in range(n) for j in range(i)):
        raise CheckFailedError("matrix is not symmetric under its weights")
    prev, minors = 1, []
    for k in range(n):
        pk = a[k][k]
        if not pk and k < n - 1:
            raise CheckFailedError("zero pivot in fraction-free elimination")
        for i in range(k + 1, n):
            aik, rem = divmod(a[k][i] * weights[k], weights[i])
            if rem:
                raise CheckFailedError(
                    "inexact weight division in fraction-free elimination")
            for j in range(i, n):
                a[i][j], rem = divmod(pk * a[i][j] - aik * a[k][j], prev)
                if rem:
                    raise CheckFailedError(
                        "inexact division in fraction-free elimination")
        minors.append(pk)
        prev = pk
    return [_kronecker_decode(m, bits) for m in minors]


def chamber_matrix(graph):
    """Full chamber-by-chamber matrix of q powers (small inputs only)."""
    size = len(graph)
    return [[IntPoly.monomial(graph.dist(i, j)) for j in range(size)]
            for i in range(size)]


def magnitude_by_chamber_matrix(graph):
    """Magnitude from the full chamber matrix Z, no symmetry used: the
    bordered [[Z, 1], [1^T, 0]] by ``kronecker_minors``, whose last two
    minors are det Z and minus the sum of Z^-1's entries times it."""
    size = len(graph)
    m = [row + [ONE] for row in chamber_matrix(graph)]
    m.append([ONE] * size + [IntPoly()])
    *_, det, border = kronecker_minors(m, [1] * (size + 1))
    return reduce_fraction(-border, det)


def power(p, k):
    """The polynomial p to the k-th power, by repeated squaring."""
    out = ONE
    while k:
        if k & 1:
            out = out * p
        p = p * p
        k >>= 1
    return out


@functools.cache
def cyclotomic(k):
    """The k-th cyclotomic polynomial, by exact division of q**k - 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = IntPoly.monomial(k) - ONE
    for d in range(1, k):
        if k % d == 0:
            p = p.divexact(cyclotomic(d))
    return p


def cyclotomic_factor_by_division(p):
    """Every cyclotomic factor of p by trial division, the cross-check of
    ``cyclotomic_factor``: (factors, remainder), factors the (k,
    multiplicity) pairs sorted by k.  Only k with phi(k) <= deg p can
    divide, and phi(k) >= sqrt(k/2), so k <= 2 deg**2 bounds the search."""
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    rem, factors, deg = p, [], p.degree
    k = 1
    while k <= max(1, 2 * deg * deg):
        if euler_phi(k) <= rem.degree:
            mult = 0
            while True:
                try:
                    rem = rem.divexact(cyclotomic(k))
                except ArithmeticError:
                    break
                mult += 1
            if mult:
                factors.append((k, mult))
        k += 1
        if rem.degree == 0 and k > deg + 1:
            break
    return tuple(factors), rem


def expand(form):
    """The polynomial unit * prod Phi_k**e_k of a factored form
    (factors, unit), as ``cyclotomic_factor`` and the determinant routes
    return it."""
    factors, out = form
    for k, e in factors:
        out = out * power(cyclotomic(k), e)
    return out


def det_product_by_flats(lattice):
    """The determinant's product formula one flat at a time, in factored
    form: each 1 - q^(2 #X) split by ``cyclotomic_factor_by_division``
    and its factors counted c^X beta(A_X) times, beta by
    ``beta_by_scan``: the cross-check of ``varchenko_det_product``."""
    exponents, sign = defaultdict(int), 1
    for f in lattice.flats[1:]:
        beta = beta_by_scan(lattice, f.index)
        if beta == 0:
            continue
        e = beta * lattice.restriction_chamber_count(f.index)
        factors, rem = cyclotomic_factor_by_division(
            ONE - IntPoly.monomial(2 * f.size))
        for k, m in factors:
            exponents[k] += m * e
        sign *= rem.constant() ** e
    return tuple(sorted(exponents.items())), IntPoly.const(sign)


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


def general_position_rows(seed, count=6, span=2):
    """Integer normals of ``count`` planes in general position in R^3,
    entries in [-span, span], drawn from one seeded stream: a row is
    drawn again unless it is independent of every two rows before it."""
    return _general_position_draw(random.Random(seed), count, span)


def generic_arrangements(seed, files=12):
    """The rows of ``files`` arrangements of six planes in general
    position in R^3, drawn one after another from one seeded stream as
    ``general_position_rows`` draws one: the inputs of the ``generic``
    workload of perfbench/run.py."""
    rng = random.Random(seed)
    return [_general_position_draw(rng, 6, 2) for _ in range(files)]


def _general_position_draw(rng, count, span):
    rows = []
    while len(rows) < count:
        row = [rng.randint(-span, span) for _ in range(3)]
        if all(matrix_rank([*others, row]) == len(others) + 1
               for others in combinations(rows, min(2, len(rows)))):
            rows.append(row)
    return rows


def check_instance_laws(arr):
    """Invariants every central arrangement must satisfy, end to end."""
    graph = enumerate_chambers(arr)
    lattice = intersection_lattice(graph)
    _, _, group = chamber_orbits(graph)
    size = len(graph)
    assert {f.mask: f.rank for f in lattice.flats} == flats_by_closure(arr)
    assert {f.mask: f.mobius for f in lattice.flats} == mobius_by_sum(lattice)
    assert varchenko_det_product(lattice) == det_product_by_flats(lattice)

    # sign enumeration agrees with the alternating Moebius count
    chi = lattice.characteristic_polynomial()
    assert abs(sum(c * (-1) ** k for k, c in enumerate(chi))) == size
    for f in lattice.flats:
        assert (lattice.restriction_chamber_count(f.index)
                == restriction_count_by_enumeration(arr, f.hyperplanes))
    assert_localizations_project(arr, graph, lattice)

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
    checks = magnitude_checks(lattice, group, mag, face_check=True,
                              det_check=False)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
    hom = magnitude_homology(
        graph, lmax=5, group=group, magnitude=mag.magnitude,
    )
    checks = structural_checks(lattice, group, hom, face_check=True)
    assert set(hom.checks) < set(checks)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
    assert (face_decomposition_check(lattice, hom, group)[1]
            == face_sum_by_orbit_runs(lattice, hom, group))
    return size


def profile_uniform_by_scan(graph):
    """Whether every chamber sees one multiset of distances, by sorting
    the distances from each chamber to every chamber."""
    size = len(graph)
    return len({tuple(sorted(graph.dist(i, j) for j in range(size)))
                for i in range(size)}) == 1


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


def _block_homology(block, masks):
    """Betti numbers and torsion of one block, graded by degree, from
    every chain: the oracle of ``homology._morse_block``.

    The chains of ``block`` ({degree: [chains]}) are numbered once,
    degree by degree, and each one's boundary column is built in those
    numbers and checked to square to zero.  Returns {degree: (betti,
    torsion factors, chain count)}.
    """
    degrees = sorted(block)
    cells = [chain for k in degrees for chain in block[k]]
    number = {chain: c for c, chain in enumerate(cells)}
    columns = []
    for chain in cells:
        ms = [masks[x] for x in chain]
        col = {}  # one entry per deletion: a chain's neighbours differ
        for i in range(1, len(chain) - 1):
            if (ms[i - 1] ^ ms[i]) & (ms[i] ^ ms[i + 1]):
                continue
            target = chain[:i] + chain[i + 1 :]
            if target not in number:
                raise CheckFailedError(
                    f"boundary target {target} outside block")
            col[number[target]] = -1 if i % 2 else 1
        columns.append(col)
    _assert_d2_zero(cells, columns)
    hom = complex_homology([len(chain) - 1 for chain in cells], columns)
    return {k: (*hom[k], len(block[k])) for k in degrees}


def dag_chains(into, key):
    """{degree: [chains]} of the block of ``key``: every path of the
    in-edges of ``into`` from ``key`` back to the root, as chambers."""
    chains = {}
    paths = [(key, (into[key][1],))]
    while paths:
        state, chain = paths.pop()
        ins = into[state][3]
        paths += [(prev, (into[prev][1],) + chain) for prev in ins]
        if not ins:
            chains.setdefault(len(chain) - 1, []).append(chain)
    return chains


def dag_of(graph, lmax, chains):
    """In-edges as ``homology._key_search`` returns them, through the
    keys that ``chains`` (all from one start) step through: each
    prefix's packed profile is a key, and the root is 0.  Its paths are
    these chains and any others that their shared keys join."""
    w = lmax.bit_length()
    masks = graph.masks
    into = {0: (0, chains[0][0], 0, [])}
    for chain in chains:
        key = support = length = 0
        for u, v in zip(chain, chain[1:]):
            sep = masks[u] ^ masks[v]
            prev, support, length = key, support | sep, length + sep.bit_count()
            key += sum(1 << w * h for h in range(graph.n) if sep >> h & 1)
            entry = into.setdefault(key, (length, v, support, []))
            if prev not in entry[3]:
                entry[3].append(prev)
    return into


def unpack_key(graph, start, lmax, key):
    """(length, end, profile) of a packed block key of ``_start_blocks``
    from ``start``: count h is read from bits w*h to w*h + w - 1,
    w = lmax.bit_length(), one field at a time, and the end is the start
    with the oddly crossed hyperplanes flipped.  No bit may lie past the
    last field."""
    w = lmax.bit_length()
    assert key >> w * graph.n == 0, key
    profile = tuple(key >> w * h & (1 << w) - 1 for h in range(graph.n))
    odd = sum((c & 1) << h for h, c in enumerate(profile))
    return sum(profile), graph.index[graph.masks[start] ^ odd], profile


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
        singletons = [[c] for c in range(len(graph))]
        checks["chain_counts_match_recursion"] = chain_count_table(
            orbit_matrix(graph, singletons), singletons, lmax) == dict(dims)
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


def face_sum_by_orbit_runs(lattice, result, group):
    """The nonzero cells of sum over flats X of c^X * interior b(A_X),
    with a homology run of its own, on a fresh memo, for every proper
    flat orbit's localization, however often its tope graph repeats;
    the top term is ``result``'s interior table."""
    total = defaultdict(int)
    for members in flat_orbits(lattice, group)[1]:
        f = lattice.flats[members[0]]
        if f.rank == 0:
            table = {(0, 0): 1}
        elif f is lattice.flats[-1]:
            table = result.interior_betti
        else:
            table = magnitude_homology(
                lattice.graph.localization(f.hyperplanes), lmax=result.lmax,
                interior_only=True).betti
        weight = len(members) * lattice.restriction_chamber_count(f.index)
        for key, v in table.items():
            total[key] += weight * v
    return {k: v for k, v in total.items() if v}


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
