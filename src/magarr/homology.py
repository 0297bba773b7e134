"""Bigraded magnitude homology of the chamber metric.

Generators in degree k and length l are proper chains of k+1 chambers
whose step distances sum to l.  The differential deletes an inner
chamber when the two adjacent steps cross disjoint hyperplane sets
(deletion then preserves the length).  Start, end, and the number of
times each hyperplane is crossed are all preserved, so the complex
splits into finite blocks which are resolved independently over the
integers.  The search from a start walks block keys, recording each
key's in-edges, and builds chains, the in-edge paths back to the start,
only for the blocks it reduces.  Chamber symmetries act freely on
blocks by relabelling the start, so one start per orbit is searched,
weighted by the orbit size.  A block is fixed by its profile on its
support S and the sign vectors on S of the chambers agreeing with its
start off S, up to relabelling S, so one block per least relabelling of
that memo key is reduced.  This covers the start's stabilizer too: an
element g fixing the start, with hyperplane relabelling pi, has
g(m) ^ start = pi(m ^ start), so it maps a block's support and sign
vectors by pi, and the blocks of one orbit share a memo key.

Reversing each chain maps the block (a -> b, l, p) onto (b -> a, l, p)
and deletion at i, sign (-1)^i, onto deletion at k - i, sign (-1)^k
(-1)^i, so (-1)^(k(k+1)/2) times the reversal is a chain isomorphism.
Its sign vectors are the block's xor a ^ b, the oddly crossed
hyperplanes, so one block is reduced per reversal class of memo keys.

A block whose length equals the distance from its start to its end is
geodesic: its chains run through the interval between the two chambers,
and the block is the order complex of that interval (Kaneta-Yoshinaga),
shifted up by two degrees.  The main run tallies these blocks as the
geodesic part, which ``geodesic_betti_formula`` predicts from the flat
poset alone; the two are the two routes of the geodesic check.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby, permutations, product
import math

from .arrangement import (
    components,
    enumerate_chambers,
    flat_orbits,
    localize,
)
from .errors import BudgetExceededError, CheckFailedError
from .linalg import complex_homology
from .magnitude import alternating_violation, chamber_orbits
from .polyq import series_expand

# entries one homology run may charge, for keys found and chains built;
# 10.6 times what u45 at lmax 7 charges (5.64 million)
DEFAULT_CHAIN_BUDGET = 60_000_000
# entries charged per chain built for its share of the reduction: its
# rows in the index dicts, its boundary column and complex_homology's state
REDUCTION_CHARGE = 64


def default_length_cap(graph):
    """Length cap keeping desk-size runs in minutes, not hours."""
    n = graph.n
    size = len(graph)
    if size <= 30:
        return min(n + 2, 8)
    if size <= 130:
        return min(n + 2, 6)
    return min(n + 2, 4)


# ---------------------------------------------------------------------------
# chain enumeration


def _near_lists(graph, lmax):
    """``around(u)[d]`` is ([v], [hyperplanes crossed]) over the chambers v
    at distance d from u, 1 <= d <= min(lmax, n); each chamber's lists
    are built the first time it is asked for."""
    masks = graph.masks
    n = graph.n
    chambers = list(range(len(masks)))  # shared ints keep the rows small
    near, bits_of = {}, {}

    def around(u):
        row = near.get(u)
        if row is None:
            row = near[u] = [([], []) for _ in range(min(lmax, n) + 1)]
            mu = masks[u]
            for v, m in zip(chambers, masks):
                sep = mu ^ m
                d = sep.bit_count()
                if 0 < d <= lmax:
                    bits = bits_of.get(sep)
                    if bits is None:
                        bits = bits_of[sep] = tuple(
                            h for h in range(n) if sep >> h & 1)
                    row[d][0].append(v)
                    row[d][1].append(bits)
        return row

    return around


def _start_blocks(graph, start, lmax, spent, full_support_only, around,
                  memo, canon):
    """Boundary blocks of the proper chains from one start.

    Returns ({(length, end, profile): (memo key, {degree: [chains]} or
    None)}, spent); profile counts the crossings of each hyperplane,
    which the differential preserves, and fixes length (its sum) and end
    (the start with the oddly crossed hyperplanes flipped).  The search
    walks keys: a step to chamber v takes (length, u, p) to
    (length + d(u, v), v, p + the hyperplanes crossed), and the key
    reached keeps the existing tuple it came from as an in-edge.  Two
    keys fix the step between them, so a block's chains are the paths of
    in-edges back to (0, start, 0...0).  ``full_support_only`` drops the
    keys that cannot cross every hyperplane within ``lmax``.

    A block's chains cross only the profile's support S, so their
    chambers x have x ^ start inside S, and distances and smoothness read
    only S: the memo key, ``canonical_key`` of the profile on S and the
    set of all such x ^ start packed to S's bits (cached in ``canon``),
    fixes the complex.  Keys related by a symmetry fixing the start
    share a memo key.  A key new to ``memo`` reads the entry of its
    reversal (the same counts, every top xored by the odd-count bits) if
    known, and ``canon`` then maps the raw key to it; else chains are
    built and ``memo`` maps it to None until the caller, which reduces a
    start's built blocks before it reads any, fills it in.
    ``spent`` counts what the run has charged, length + 1 + n per key
    found (the longest chain its block could hold, and its profile) and
    len(chain) + 1 + n + REDUCTION_CHARGE per chain built; past
    ``DEFAULT_CHAIN_BUDGET`` (read at call time) it raises
    BudgetExceededError.  ``around`` is the run's ``_near_lists``.
    """
    index = graph.index
    start_mask = graph.masks[start]
    n = graph.n
    root = (0, start, (0,) * n)
    into = {root: []}  # key -> the keys one step before it
    stack = [root]
    while stack:
        state = stack.pop()
        length, u, profile = state
        remaining = lmax - length
        if remaining < 1:
            continue
        near = around(u)[1 : remaining + 1]
        for d, (ends, crossed) in enumerate(near, 1):
            for v, bits in zip(ends, crossed):
                nprofile = list(profile)
                for h in bits:
                    nprofile[h] += 1
                if full_support_only and nprofile.count(0) > remaining - d:
                    continue
                key = (length + d, v, tuple(nprofile))
                edges = into.get(key)
                if edges is None:
                    spent = _charge(spent, length + d + 1 + n)
                    into[key] = [state]
                    stack.append(key)
                else:
                    edges.append(state)

    blocks = {}  # key -> (memo key, chains or None)
    local = {}  # support -> packed x of the chambers agreeing off it
    for key in into:
        profile = key[2]
        if full_support_only and 0 in profile:
            continue
        support = tuple(h for h, c in enumerate(profile) if c)
        if support not in local:
            spread = [0]  # spread[x]: bit support[i] set for each bit i of x
            for h in support:
                spread += [s | 1 << h for s in spread]
            local[support] = frozenset(
                x for x, s in enumerate(spread) if start_mask ^ s in index)
        raw = (tuple(profile[h] for h in support), local[support])
        if raw not in canon:
            canon[raw] = canonical_key(*raw)
        memo_key = canon[raw]
        if memo_key not in memo:  # the reversed block's entry, if known
            odd = sum((c & 1) << i for i, c in enumerate(raw[0]))
            back = canonical_key(raw[0], frozenset(x ^ odd for x in raw[1]))
            if back in memo:
                memo_key = canon[raw] = back
        chains = None
        if memo_key not in memo:
            memo[memo_key] = None
            chains = {}
            paths = [(key, (key[1],))]
            while paths:
                state, chain = paths.pop()
                paths += [(prev, (prev[1],) + chain) for prev in into[state]]
                if not into[state]:
                    spent = _charge(spent,
                                    len(chain) + 1 + n + REDUCTION_CHARGE)
                    chains.setdefault(len(chain) - 1, []).append(chain)
        blocks[key] = (memo_key, chains)
    return blocks, spent


def _charge(spent, entries):
    spent += entries
    if spent > DEFAULT_CHAIN_BUDGET:
        raise BudgetExceededError("searched keys and built chain entries",
                                  DEFAULT_CHAIN_BUDGET, spent, "lower --lmax")
    return spent


def canonical_key(counts, tops):
    """Least form of a memo key under relabellings of its support S.

    ``counts`` is the profile on S and ``tops`` the local sign vectors,
    bit i for the i-th hyperplane of S.  A relabelling of S maps a
    block's chains one to one, keeps two steps' crossing sets disjoint
    exactly where they were, and keeps positions in the chain, so blocks
    whose keys differ by one are isomorphic with the same signs.  The
    coordinates are sorted by an invariant, their count and the weights
    of the tops containing them, and only reorderings within runs of
    tied coordinates are tried, keeping the least sorted tops.  A run
    whose adjacent swaps all fix the tops is fixed by every reordering
    and is not tried, so the whole k-cube costs one pass, not k!.
    """
    k = len(counts)
    weighted = [(x, x.bit_count()) for x in tops]
    invariant = [(c, sorted(w for x, w in weighted if x >> i & 1))
                 for i, c in enumerate(counts)]
    order = sorted(range(k), key=invariant.__getitem__)
    base = frozenset(_relabel_bits(tops, order))
    choices, permuted = [], False
    for _, tied in groupby(range(k), key=lambda p: invariant[order[p]]):
        run = tuple(tied)
        if any({x ^ ((x >> q ^ x >> q + 1) & 1) * (3 << q) for x in base}
               != base for q in run[:-1]):
            choices.append(permutations(run))
            permuted = True
        else:
            choices.append((run,))
    best = min(sorted(_relabel_bits(base, [p for part in parts for p in part]))
               for parts in product(*choices)) if permuted else sorted(base)
    return tuple(counts[i] for i in order), tuple(best)


def _relabel_bits(xs, perm):
    """Each x with its bit perm[p] moved to bit p, read from a table of
    all 2^k images."""
    table = [0]
    for c in range(len(perm)):
        bit = 1 << perm.index(c)
        table += [y | bit for y in table]
    return [table[x] for x in xs]


def _block_homology(block, masks):
    """Betti numbers and torsion of one block, graded by degree.

    Returns {degree: (betti, torsion factors, chain count)}.
    """
    degrees = sorted(block)
    index = {k: {c: i for i, c in enumerate(block[k])} for k in degrees}
    boundaries = {}
    for k in degrees:
        if k == 0:
            continue
        lower = index.get(k - 1)
        cols = {}
        for col, chain in enumerate(block[k]):
            ms = [masks[x] for x in chain]
            colmap = {}
            for i in range(1, k):
                if (ms[i - 1] ^ ms[i]) & (ms[i] ^ ms[i + 1]):
                    continue
                target = chain[:i] + chain[i + 1 :]
                row = lower.get(target) if lower else None
                if row is None:
                    raise CheckFailedError(
                        f"boundary target {target} outside block")
                coeff = colmap.get(row, 0) + (-1 if i % 2 else 1)
                if coeff:
                    colmap[row] = coeff
                else:
                    del colmap[row]
            if colmap:
                cols[col] = colmap
        if cols:
            boundaries[k] = cols
    _assert_d2_zero(block, boundaries)
    dims = {k: len(block[k]) for k in degrees}
    hom = complex_homology(dims, boundaries)
    return {k: (hom[k][0], hom[k][1], dims[k]) for k in degrees}


def _assert_d2_zero(block, boundaries):
    for k, upper in boundaries.items():
        lower = boundaries.get(k - 1)
        if not lower:
            continue
        for col, colmap in upper.items():
            acc = defaultdict(int)
            for mid, v in colmap.items():
                for row, w in lower.get(mid, {}).items():
                    acc[row] += v * w
            if any(acc.values()):
                raise CheckFailedError(
                    f"boundary composed with itself is nonzero in degree "
                    f"{k} at chain {block[k][col]}")


# ---------------------------------------------------------------------------
# dynamic chain counting (no enumeration)


def chain_count_table(lmax, orbits, around):
    """Number of generating chains per (degree, length), all starts.

    Pure counting recursion over (end chamber, length) per degree, from
    one start per chamber orbit; a cross-check of the enumeration and
    the Euler characteristics.  ``around`` is a ``_near_lists``.
    """
    totals = defaultdict(int)
    for members in orbits:
        rep = members[0]
        weight = len(members)
        cur = {rep: [1] + [0] * lmax}
        k = 0
        while cur:
            for row in cur.values():
                for length, c in enumerate(row):
                    if c:
                        totals[(k, length)] += weight * c
            if k == lmax:
                break
            nxt = {}
            for u, row in cur.items():
                if not any(row[:lmax]):
                    continue  # every count here has used up lmax
                by_distance = around(u)
                for length in range(lmax):
                    c = row[length]
                    if not c:
                        continue
                    near = by_distance[1 : lmax - length + 1]
                    for d, (ends, _crossed) in enumerate(near, 1):
                        nl = length + d
                        for v in ends:
                            counts = nxt.get(v)
                            if counts is None:
                                counts = nxt[v] = [0] * (lmax + 1)
                            counts[nl] += c
            cur = nxt
            k += 1
    return dict(totals)


# ---------------------------------------------------------------------------
# main computation


@dataclass
class HomologyResult:
    """Betti table with torsion and consistency data.

    ``geodesic_betti`` and ``geodesic_torsion`` are the part of the
    table carried by the geodesic blocks (length = d(start, end)).
    """

    lmax: int
    betti: dict
    torsion: dict
    chain_dims: dict
    interior_betti: dict
    interior_torsion: dict
    geodesic_betti: dict
    geodesic_torsion: dict
    checks: dict

    def betti_at(self, k, length):
        return self.betti.get((k, length), 0)


def magnitude_homology(graph, *, lmax, group=None, interior_only=False,
                       magnitude=None):
    """Bigraded Betti table of ``graph`` through total length ``lmax``.

    The tope graph is the whole input; the run enumerates no chambers.
    ``interior_only`` restricts the complex to chains crossing every
    hyperplane, which is the summand entering the face decomposition.
    When ``magnitude`` (a RatFunc) is given, the per-length Euler
    characteristics of the chain spaces are checked against its series.
    Every block that is reduced has its boundary checked to square to
    zero, and a run that would charge more than ``DEFAULT_CHAIN_BUDGET``
    entries (read at call time) for the keys it finds and the chains it
    builds (see ``_start_blocks``) stops with BudgetExceededError.
    """
    _, orbits, _ = chamber_orbits(graph, group)
    masks = graph.masks
    betti = {part: defaultdict(int) for part in ("all", "inner", "geodesic")}
    torsion = {part: defaultdict(list) for part in betti}
    dims = defaultdict(int)
    spent = 0
    around = _near_lists(graph, lmax)
    memo = {}  # memo key -> summary of the first block with that key
    canon = {}  # raw memo key -> its canonical form
    for members in orbits:
        rep = members[0]
        weight = len(members)
        blocks, spent = _start_blocks(graph, rep, lmax, spent, interior_only,
                                      around, memo, canon)
        for memo_key, block in blocks.values():
            if block is not None:
                memo[memo_key] = _block_homology(block, masks)
        for (length, end, profile), (memo_key, _) in blocks.items():
            parts = ["all"]
            if 0 not in profile:
                parts.append("inner")
            if length == graph.dist(rep, end):
                parts.append("geodesic")
            for k, (b, tor, dim) in memo[memo_key].items():
                dims[(k, length)] += weight * dim
                for part in parts:
                    if b:
                        betti[part][(k, length)] += weight * b
                    if tor:
                        torsion[part][(k, length)].extend(tor * weight)

    checks = {}
    if not interior_only:
        counted = chain_count_table(lmax, orbits, around)
        checks["chain_counts_match_recursion"] = counted == dict(dims)
        euler_enum = _euler_by_length(dims, lmax)
        checks["euler_of_homology_matches_chains"] = (
            euler_enum == _euler_by_length(betti["all"], lmax))
        if magnitude is not None:
            series = series_expand(magnitude, lmax)
            checks["euler_matches_series"] = all(
                euler_enum.get(l, 0) == series[l] for l in range(lmax + 1)
            )
    main = "inner" if interior_only else "all"
    return HomologyResult(
        lmax=lmax,
        betti=dict(betti[main]),
        torsion=_tidy_torsion(torsion[main]),
        chain_dims=dict(dims),
        interior_betti=dict(betti["inner"]),
        interior_torsion=_tidy_torsion(torsion["inner"]),
        geodesic_betti=dict(betti["geodesic"]),
        geodesic_torsion=_tidy_torsion(torsion["geodesic"]),
        checks=checks,
    )


def _euler_by_length(table, lmax):
    out = {}
    for (k, length), v in table.items():
        if length <= lmax:
            out[length] = out.get(length, 0) + (v if k % 2 == 0 else -v)
    return out


def _tidy_torsion(torsion):
    return {key: tuple(sorted(vals)) for key, vals in torsion.items() if vals}


# ---------------------------------------------------------------------------
# geodesic part from the flat poset


def geodesic_betti_formula(lattice, group):
    """Geodesic ranks from the flat poset alone.

    The block of chains between chambers a, b at exact distance d(a,b)
    only sees the hyperplanes separating a from b, whose closure is a
    flat X; summing the order-complex homology over all such pairs
    collapses to c^X (restriction chambers) times c_X (chambers meeting
    the flat) at bidegree (rank X, #A_X): c^X from the Euler relation,
    c_X as the Zaslavsky sum of |mu(0, Y)| over Y <= X.  Both counts
    are constant on the flat orbits of ``group``, so each is taken once
    per orbit.  ``magnitude_homology`` tallies the same blocks directly
    from the tope graph as its geodesic part.
    """
    out = {}
    for members in flat_orbits(lattice, group)[1]:
        f = lattice.flats[members[0]]
        c_upper = lattice.restriction_chamber_count(f.index)
        c_lower = sum(abs(y.mobius) for y in lattice.flats
                      if y.mask & f.mask == y.mask)
        key = (f.rank, f.size)
        out[key] = out.get(key, 0) + len(members) * c_upper * c_lower
    return out


# ---------------------------------------------------------------------------
# structural formulas and the named checks


def diagonal_betti_formula(lattice, lmax):
    """Ranks on the diagonal from flats whose rank equals their size."""
    out = {}
    for length in range(lmax + 1):
        total = 0
        for f in lattice.flats:
            if f.rank != f.size:
                continue
            c = lattice.restriction_chamber_count(f.index)
            if f.rank == 0:
                total += c if length == 0 else 0
            elif length:
                total += c * (1 << f.rank) * math.comb(length - 1, f.rank - 1)
        out[length] = total
    return out


def structural_checks(lattice, group, result, face_check):
    """Every homology-level check of ``result``, by name.

    The run's own checks, then the paper's identities against the flat
    poset: the geodesic part, the closed forms at lengths 0 to 2, the
    diagonal ranks, diagonal concentration for coordinate-like
    arrangements and the corner class otherwise (needs lmax >= n), the
    interior diagonal, reciprocity (interior Euler characteristics
    vanish below length n and repeat the plain ones shifted by n), and
    the face decomposition.
    """
    lmax = result.lmax
    n = lattice.arrangement.n
    rank = lattice.rank
    betti_at = result.betti_at
    restricted = lattice.restriction_chamber_count
    checks = dict(result.checks)
    geodesic = geodesic_betti_formula(lattice, group)
    checks["geodesic_two_routes"] = not result.geodesic_torsion and {
        k: v for k, v in result.geodesic_betti.items() if v
    } == {k: v for k, v in geodesic.items() if v and k[1] <= lmax}

    checks["b00_chambers"] = betti_at(0, 0) == lattice.chamber_count
    if lmax >= 1:
        edge_sum = sum(restricted(f.index) for f in lattice.flats_of_rank(1))
        checks["b11_walls"] = betti_at(1, 1) == 2 * edge_sum
    if lmax >= 2:
        pair_sum = sum(
            restricted(f.index) for f in lattice.flats_of_rank(2) if f.size == 2
        )
        checks["b12_vanishes"] = betti_at(1, 2) == 0
        checks["b22_recursion"] = betti_at(2, 2) == betti_at(1, 1) + 4 * pair_sum

    diag = diagonal_betti_formula(lattice, lmax)
    checks["diagonal_formula"] = all(
        betti_at(l, l) == diag[l] for l in range(lmax + 1)
    )
    interior_diag = [
        result.interior_betti.get((l, l), 0) for l in range(1, lmax + 1)
    ]
    if rank == n:
        checks["diagonal_only"] = all(
            k == length for (k, length), v in result.betti.items() if v
        )
        checks["interior_diagonal_boolean"] = interior_diag == [
            (1 << n) * math.comb(l - 1, n - 1) for l in range(1, lmax + 1)
        ]
    else:
        if lmax >= n:
            checks["corner_class_present"] = (
                betti_at(rank, n) >= lattice.chamber_count
            )
        checks["interior_diagonal_vanishes"] = not any(interior_diag)

    plain = _euler_by_length(result.betti, lmax)
    interior = _euler_by_length(result.interior_betti, lmax)
    sign = -1 if rank % 2 else 1
    checks["reciprocity"] = not any(
        interior.get(l, 0) for l in range(min(n, lmax + 1))
    ) and all(
        interior.get(l + n, 0) == sign * plain.get(l, 0)
        for l in range(lmax + 1 - n)
    )
    if face_check:
        checks["face_decomposition"] = face_decomposition_check(
            lattice, result, group)[0]
    return checks


def face_decomposition_check(lattice, result, group):
    """Betti table equals the flat-indexed sum of interior tables.

    Every chain crosses the hyperplanes of some flat's localization and
    sits over one chamber of the restriction, giving

        b_{k,l}(A) = sum over flats X of c^X * interior b_{k,l}(A_X).

    Proper flats are recomputed independently (one representative per
    symmetry orbit); the top term is the interior part of the main run.
    """
    _oid, forbits = flat_orbits(lattice, group)
    top = lattice.flats[-1]
    total = defaultdict(int)
    for members in forbits:
        rep = lattice.flats[members[0]]
        weight = len(members)
        c = lattice.restriction_chamber_count(rep.index)
        if rep.index == top.index:
            for key, v in result.interior_betti.items():
                total[key] += weight * c * v
            continue
        if rep.rank == 0:
            total[(0, 0)] += weight * c
            continue
        sub = enumerate_chambers(localize(lattice.arrangement, rep.hyperplanes))
        sub_res = magnitude_homology(sub, lmax=result.lmax, interior_only=True)
        for key, v in sub_res.betti.items():
            total[key] += weight * c * v
    want = {k: v for k, v in result.betti.items() if v}
    got = {k: v for k, v in total.items() if v}
    return got == want, got


def four_cut_minimum(graph, group):
    """Shortest degree-3 chain whose halves are geodesic but which is not.

    Crossing sets s1, s2, s3 of the three steps must satisfy s1 and s2
    disjoint, s2 and s3 disjoint, s1 meeting s3.  Returns the minimal
    total length, or None when none exists up to n + 2.
    """
    cap = graph.n + 2
    _, orbits, _ = chamber_orbits(graph, group)
    masks = graph.masks
    size = len(graph)
    best = None
    for members in orbits:
        x0 = members[0]
        m0 = masks[x0]
        for x1 in range(size):
            if x1 == x0:
                continue
            s1 = m0 ^ masks[x1]
            d1 = s1.bit_count()
            if best is not None and d1 + 2 >= best:
                continue
            for x2 in range(size):
                if x2 == x1:
                    continue
                s2 = masks[x1] ^ masks[x2]
                if s1 & s2:
                    continue
                d2 = s2.bit_count()
                if best is not None and d1 + d2 + 1 >= best:
                    continue
                for x3 in range(size):
                    if x3 == x2:
                        continue
                    s3 = masks[x2] ^ masks[x3]
                    if s2 & s3 or not s1 & s3:
                        continue
                    total = d1 + d2 + s3.bit_count()
                    if total <= cap and (best is None or total < best):
                        best = total
    return best


# ---------------------------------------------------------------------------
# report-only probes


def conjecture_probes(graph, mag_result, hom_result):
    """Machine-readable observations; never asserted as theorems.

    The uniformity probe can only certify non-transitivity (a uniform
    distance profile does not imply a transitive group), so it is
    one-directional: a counterexample needs a non-uniform profile (not
    every chamber sees one multiset of distances) and a missing
    cyclotomic factor.  The corner probe applies to indecomposable
    arrangements: those with one matroid component.
    """
    probes = {}
    probes["torsion_free"] = {
        "observed": not any(hom_result.torsion.values()),
        "detail": {f"{k},{l}": list(v) for (k, l), v in hom_result.torsion.items()},
    }
    violation = alternating_violation(mag_result.series)
    probes["euler_signs_alternate"] = {
        "observed": violation is None,
        "first_violation": violation,
    }

    n = mag_result.n
    rank = mag_result.rank
    uniform_needed = None
    if rank >= 3 and rank % 2 == 1:
        uniform_needed = 2 * n
    elif rank >= 4 and rank % 2 == 0:
        uniform_needed = n
    factor_orders = {k for k, _mult in mag_result.cyclotomic_den}
    size = len(graph)
    uniform = len({tuple(sorted(graph.dist(i, j) for j in range(size)))
                   for i in range(size)}) == 1
    counterexample = bool(
        uniform_needed is not None
        and not uniform
        and uniform_needed not in factor_orders
    )
    probes["nonuniform_forces_cyclotomic_factor"] = {
        "applies": uniform_needed is not None,
        "required_order": uniform_needed,
        "profile_uniform": uniform,
        "factor_present": (
            uniform_needed in factor_orders if uniform_needed else None
        ),
        "counterexample": counterexample,
    }

    comps = components(graph.arrangement)
    decomposable = len(comps) > 1
    corner = None
    if hom_result.lmax >= n:
        corner = hom_result.betti_at(rank, n) == hom_result.betti_at(0, 0)
    applies = hom_result.lmax >= n and not decomposable
    probes["corner_matches_chambers"] = {
        "applies": applies,
        "decomposable": decomposable,
        "components": [list(c) for c in comps],
        "observed": corner if applies else None,
    }
    probes["no_counterexample"] = bool(
        probes["torsion_free"]["observed"]
        and probes["euler_signs_alternate"]["observed"]
        and not counterexample
        and (not applies or corner)
    )
    return probes
