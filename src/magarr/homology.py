"""Bigraded magnitude homology of the chamber metric.

Generators in degree k and length l are proper chains of k+1 chambers
whose step distances sum to l.  The differential deletes an inner
chamber when the two adjacent steps cross disjoint hyperplane sets
(deletion then preserves the length).  Start, end, and the number of
times each hyperplane is crossed are all preserved, so the complex
splits into finite blocks which are resolved independently over the
integers.  The search from a start walks block keys, each profile
packed into one int so that a step is one add, recording each key's
in-edges; a block's chains are the in-edge paths back to the start, and
of the blocks it reduces only the critical chains of a matching are
built.  Chamber symmetries act freely on
blocks by relabelling the start, so one start per orbit is searched,
weighted by the orbit size.  A block is fixed by its profile on its
support S and the sign vectors on S of the chambers agreeing with its
start off S, up to relabelling S, so one block per least relabelling of
that memo key is reduced.  This covers the start's stabilizer too: an
element g fixing the start, with hyperplane relabelling pi, has
g(m) ^ start = pi(m ^ start), so it maps a block's support and sign
vectors by pi, and the blocks of one orbit share a memo key.  The same
fact makes the keys with support S, and their summaries, a function of
that local tope set up to relabelling S: each start's keys are grouped
by support and tallied once per shape of local tope set in a run, and a
later group of a shape already met reads that tally and classifies no
key.

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

Each reduced block goes through an algebraic Morse matching (Skoldberg,
Trans. AMS 358, 2006; Y. Gu, arXiv:1809.07240 for matchings on graph
magnitude chains).  A chain x_0 ... x_k has steps s_i = x_(i-1) ^ x_i;
let h_1 >= ... >= h_r be its longest prefix of single-hyperplane steps
with non-increasing index.  When r = k the chain is critical.  Else let
s = s_(r+1) and m = min s.  If r >= 1 and m > h_r, the chain is paired
down with its face deleting x_r ({h_r} and s are disjoint).  Otherwise,
if x_r with m flipped is a chamber y, it is paired up with the chain
that has y inserted after x_r; if not, it is critical.

- The rule is an involution.  In the up case |s| >= 2, since a single s
  would extend the run, so y differs from x_r and x_(r+1).  The chain
  with y inserted has the run h_1 ... h_r, m, and its next step s - {m}
  has least element above m, so it is paired down by deleting y.  In
  the down case the face has the run h_1 ... h_(r-1), then the step
  {h_r} | s with least element h_r <= h_(r-1), so it is paired up, and
  flipping h_r in x_(r-1) inserts x_r again.
- Each pair is a unit incidence.  The shorter chain is the longer with
  the chamber at i deleted, which keeps the length, and the faces of a
  chain are distinct chains, so the coefficient is (-1)^i.  Both lie in
  one block: the start, the end and the profile are kept.
- The matching is acyclic.  Give a chain the word ((min s_1, |s_1|),
  ..., (min s_k, |s_k|)), compared lexicographically, and let U be the
  up-partner of c.  In U, deleting x_j, 1 <= j < r, needs h_j > h_(j+1),
  and position j of the word drops from (h_j, 1) to (h_(j+1), 2);
  deleting x_r needs m < h_r, and position r drops from (h_r, 1) to
  (m, 2); deleting a chamber after y keeps the step {m}, and position
  r + 1 drops from (m, |s|) to (m, 1).  So every other face of U has a
  smaller word than c, the words strictly decrease along every zig-zag
  path c, U(c), c', U(c'), ..., and no path closes.

So a block's critical chains are enumerated forward over its in-edges,
dropping a prefix as soon as it decides that its chains are matched,
and the Morse complex on them, with the differential summed over
zig-zag paths, has the homology of the block.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, groupby, permutations, product
import math
from operator import itemgetter

from .arrangement import components, flat_orbits
from .errors import BudgetExceededError, CheckFailedError
from .linalg import complex_homology
from .magnitude import alternating_violation, chamber_orbits, orbit_matrix
from .polyq import ZERO, series_expand

# entries one homology run may charge, for keys found and chains built;
# 10.6 times what u45 at lmax 7 charges (5.64 million)
DEFAULT_CHAIN_BUDGET = 60_000_000
# entries charged per chain of a reduced block, built or not, for its
# share of the reduction: it bounds the critical chains built and the
# chains whose images the zig-zags keep, a fraction of those charged
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
    """``around(u)[d]`` is ([v], [(separating mask, packed increment)])
    over the chambers v at distance d from u, 1 <= d <= min(lmax, n),
    ascending in v; an increment, one crossing of each separating
    hyperplane packed as in ``_key_search``, is built once per distinct
    mask, and each chamber's lists the first time it is asked for.  When
    there are fewer sets of at most min(lmax, n) hyperplanes than
    chambers, a chamber's lists flip each such set of its mask and look
    the result up in ``graph.index``; else they are a pass over every
    chamber."""
    masks, index = graph.masks, graph.index
    n = graph.n
    w = lmax.bit_length()
    top = min(lmax, n)
    chambers = list(range(len(masks)))  # shared ints keep the rows small
    near, step_of = {}, {}

    def step(sep):
        step_of[sep] = (sep, sum(1 << w * h for h in range(n) if sep >> h & 1))
        return step_of[sep]

    flips = {}  # distance -> the masks and steps of that many hyperplanes
    if sum(math.comb(n, d) for d in range(1, top + 1)) < len(masks):
        for d in range(1, top + 1):
            steps = [step(sum(1 << h for h in hs))
                     for hs in combinations(range(n), d)]
            flips[d] = ([sep for sep, _ in steps], steps)

    def around(u):
        row = near.get(u)
        if row is None:
            row = near[u] = [([], []) for _ in range(top + 1)]
            mu = masks[u]
            for d, (seps, steps) in flips.items():
                found = [(v, st) for v, st in zip(
                    map(index.get, map(mu.__xor__, seps)), steps)
                    if v is not None]
                found.sort(key=itemgetter(0))
                row[d] = ([v for v, _ in found], [st for _, st in found])
            if not flips:  # a pass over every chamber
                for v, m in zip(chambers, masks):
                    sep = mu ^ m
                    d = sep.bit_count()
                    if 0 < d <= lmax:
                        row[d][0].append(v)
                        row[d][1].append(step_of.get(sep) or step(sep))
        return row

    return around


def _key_search(graph, start, lmax, spent, full_support_only, around):
    """Every block key of the proper chains from one start.

    Returns ({key: (length, end, support, in-edges)}, spent).  A key is a
    block's profile, how often its chains cross each hyperplane (the
    differential preserves it), packed into one int: count h in bits w*h
    up to w*h + w, w = lmax.bit_length().  No field carries into the
    next, since a chain of at most lmax steps crosses each hyperplane at
    most once per step, so every count is at most lmax < 2^w.  The
    profile fixes the length (its sum), the end (the start with the
    oddly crossed hyperplanes flipped) and the support S.  A step to
    chamber v adds the packed increment of the hyperplanes crossed, one
    int add, and each key reached records the keys one step before it.
    Two keys fix the step between them, so a block's chains are the
    paths of in-edges back to the root, key 0.  ``full_support_only``
    cuts the steps after which every hyperplane can no longer be crossed
    within ``lmax``.  Each key found is charged length + 1 + n (the
    longest chain its block could hold, and its profile); ``around`` is
    the run's ``_near_lists``.
    """
    n = graph.n
    into = {0: (0, start, 0, [])}  # key -> length, end, support, in-edges
    stack = [0]
    while stack:
        key = stack.pop()
        length, u, support, _ = into[key]
        remaining = lmax - length
        if remaining < 1:
            continue
        near = around(u)[1 : remaining + 1]
        for d, (ends, steps) in enumerate(near, 1):
            least = n - remaining + d  # least support lmax can still fill
            for v, (sep, inc) in zip(ends, steps):
                if full_support_only and (support | sep).bit_count() < least:
                    continue
                reached = key + inc
                entry = into.get(reached)
                if entry is None:
                    spent = _charge(spent, length + d + 1 + n)
                    into[reached] = (length + d, v, support | sep, [key])
                    stack.append(reached)
                else:
                    entry[3].append(key)
    return into, spent


def _start_blocks(graph, start, lmax, spent, full_support_only, around,
                  memo, canon, tallies):
    """Boundary blocks of the proper chains from one start, tallied.

    Returns (Counter of summaries (length, inner, geodesic, memo key),
    spent), over the keys of ``_key_search`` (with ``full_support_only``,
    those crossing every hyperplane).  Inner is S = every hyperplane, and
    geodesic is length = |S|, which holds exactly when every count is 0
    or 1, that is when the length is d(start, end).

    A block's chains cross only the profile's support S, so their
    chambers x have x ^ start inside S, and distances and smoothness read
    only S: the memo key, ``canonical_key`` of the profile on S and the
    set of all such x ^ start packed to S's bits (``canon`` maps each raw
    key met, reversals too, to its memo key), fixes the complex.  Keys
    related by a symmetry fixing the start share a memo key.  The keys
    with support S are those of the chains inside that local tope set
    from its origin, so a relabelling of S carrying one start's set onto
    another's carries keys to keys with the same summaries.  So the keys
    are grouped by support, and a group's tally is kept in ``tallies``
    under its shape, ``canonical_key`` of the local tope set with every
    count 0 (through ``canon``): only the first group of each shape in a
    run has its keys classified, and every later one adds that tally.
    A key new to ``memo`` reads the entry of its reversal (the same
    counts, every top xored by the odd-count bits) if known; else its
    block is reduced by ``_morse_block``, one block at a time, and
    ``memo`` maps it to the block's summary.  ``spent`` counts what the
    run has charged: the keys found and len(chain) + 1 + n +
    REDUCTION_CHARGE per chain of each block to be reduced, whether the
    matching builds it or not, all charged before the first block is
    reduced; past ``DEFAULT_CHAIN_BUDGET`` (read at call time) it raises
    BudgetExceededError.
    """
    into, spent = _key_search(graph, start, lmax, spent, full_support_only,
                              around)
    index = graph.index
    start_mask = graph.masks[start]
    n = graph.n
    w = lmax.bit_length()
    field = (1 << w) - 1
    everything = (1 << n) - 1
    groups = {}  # support -> its keys, in the order found
    for key, (_, _, support, _) in into.items():
        if not full_support_only or support == everything:
            groups.setdefault(support, []).append(key)
    # shape -> groups of this start with that shape, and new memo key -> key
    shapes, new = Counter(), {}
    for support, keys in groups.items():
        # spread[x]: the i-th hyperplane of S set for each bit i of x
        spread, shifts = [0], []
        for h in range(n):
            if support >> h & 1:
                spread += [s | 1 << h for s in spread]
                shifts.append(w * h)
        tops = frozenset(
            x for x, s in enumerate(spread) if start_mask ^ s in index)
        blank = ((0,) * len(shifts), tops)
        shape = canon.get(blank)
        if shape is None:
            shape = canon[blank] = canonical_key(*blank)
        shapes[shape] += 1
        if shape in tallies:
            continue
        tally = tallies[shape] = Counter()
        for key in keys:
            raw = (tuple(key >> s & field for s in shifts), tops)
            memo_key = canon.get(raw)
            if memo_key is None:
                memo_key = canon[raw] = canonical_key(*raw)
            if memo_key not in memo and memo_key not in new:
                # the reversed block's entry, if known
                odd = sum((c & 1) << i for i, c in enumerate(raw[0]))
                rev = (raw[0], frozenset(x ^ odd for x in tops))
                if rev not in canon:
                    canon[rev] = canonical_key(*rev)
                if canon[rev] in memo or canon[rev] in new:
                    memo_key = canon[raw] = canon[rev]
                else:
                    new[memo_key] = key
            length = sum(raw[0])
            tally[length, support == everything, length == len(shifts),
                  memo_key] += 1
    blocks = Counter()
    for shape, times in shapes.items():
        for summary, count in tallies[shape].items():
            blocks[summary] += times * count

    # ending[key]: the chains ending at key and their total size, so every
    # chain of a block to be reduced is charged before the first block is
    # reduced; a key's in-edges come from smaller keys
    if new:
        ending = {}
        for key in sorted(into):
            ins = [ending[prev] for prev in into[key][3]] or [(1, 0)]
            ending[key] = (sum(c for c, _ in ins), sum(c + t for c, t in ins))
        for count, total in map(ending.get, new.values()):
            spent = _charge(spent, total + count * (1 + n + REDUCTION_CHARGE))
    for memo_key, key in new.items():
        memo[memo_key] = _morse_block(into, key, graph.masks, index)
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
    weights = [[] for _ in range(k)]  # one pass over each top's set bits
    for x in tops:
        w, y = x.bit_count(), x
        while y:
            weights[(y & -y).bit_length() - 1].append(w)
            y &= y - 1
    invariant = [(c, sorted(ws)) for c, ws in zip(counts, weights)]
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


# the matching's verdict on one step: the run of single steps goes on,
# or the chain is paired down, paired up, or critical
_RUN, _DOWN, _UP, _CRITICAL = range(4)


def _rule(prev, mu, sep, index):
    """The matching's verdict on the step ``sep`` from the chamber of mask
    ``mu``, after a run of single-hyperplane steps whose last hyperplane
    is the bit ``prev`` (0 for no run): (_RUN, the step's bit) while the
    run goes on, (_DOWN, None) or (_UP, the chamber to insert) when it
    is paired, (_CRITICAL, None) when no continuation is paired."""
    m = sep & -sep
    if sep == m and (not prev or m <= prev):
        return _RUN, m
    if prev and m > prev:
        return _DOWN, None
    y = index.get(mu ^ m)
    return (_CRITICAL, None) if y is None else (_UP, y)


def _partner(chain, masks, index):
    """(i, partner) for a matched chain, None for a critical one.  Of the
    pair, the shorter chain is the longer with its chamber i deleted, an
    incidence of sign (-1)**i."""
    prev = 0
    for r in range(len(chain) - 1):
        mu = masks[chain[r]]
        kind, value = _rule(prev, mu, mu ^ masks[chain[r + 1]], index)
        if kind == _RUN:
            prev = value
        elif kind == _DOWN:
            return r, chain[:r] + chain[r + 1 :]
        elif kind == _UP:
            return r + 1, chain[: r + 1] + (value,) + chain[r + 1 :]
        else:
            return None
    return None


def _inner(ms):
    """The positions i, 0 < i < len(ms) - 1, of a chain with chamber
    masks ``ms`` whose chamber can be deleted: its two steps cross
    disjoint sets, so the length is kept."""
    return [i for i in range(1, len(ms) - 1)
            if not (ms[i - 1] ^ ms[i]) & (ms[i] ^ ms[i + 1])]


def _faces(chain, masks):
    """(i, face) for each deletion in the boundary of ``chain``, sign
    (-1)**i, once the boundary of that boundary is seen to vanish: each
    pair of deleted chambers is reached in both orders, with opposite
    signs."""
    ms = [masks[x] for x in chain]
    inner = _inner(ms)
    twice = {}  # bits of the two deleted positions -> sign
    for i in inner:
        for j in _inner(ms[:i] + ms[i + 1 :]):
            pair = 1 << i | 1 << j + (j >= i)
            twice[pair] = twice.get(pair, 0) + (-1 if (i + j) % 2 else 1)
    if any(twice.values()):
        raise CheckFailedError(
            f"boundary composed with itself is nonzero in degree "
            f"{len(chain) - 1} at chain {chain}")
    return [(i, chain[:i] + chain[i + 1 :]) for i in inner]


def _morse_block(into, key, masks, index):
    """{degree: (betti, torsion factors, chain count)} of the block whose
    chains are the paths of in-edges of ``into`` (from ``_key_search``)
    from the root to ``key``.

    The chains are counted along the in-edges, and only the critical
    ones of the matching (module docstring) are built.  The Morse
    differential sums the images of a critical chain's faces: b itself
    if b is critical, 0 if b is paired down, and for b paired with U(b)
    at deletion i, -(-1)**i times the signed images of the other faces
    of U(b).  Raises CheckFailedError when the boundary read of a chain
    (``_faces``) or the Morse complex does not square to zero, when the
    critical chains miss the block's Euler characteristic, when a
    critical face was not built, or when a zig-zag meets its own start.
    """
    above = {key}  # the keys on some path to key
    todo = [key]
    while todo:
        for prev in into[todo.pop()][3]:
            if prev not in above:
                above.add(prev)
                todo.append(prev)
    # the paths to a key by degree, one width-bit field each: a path has
    # at most length steps, each to one of the keys in above
    width = into[key][0] * len(above).bit_length() + 1
    graded, after = {0: 1}, {k: [] for k in above}  # after: out-edges
    for k in sorted(above)[1:]:  # an in-edge comes from a smaller key
        total = 0
        for prev in into[k][3]:
            total += graded[prev]
            after[prev].append(k)
        graded[k] = total << width
    field = (1 << width) - 1
    dims = {d: c for d in range(into[key][0] + 1)
            if (c := graded[key] >> d * width & field)}

    cells = []
    stack = [(0, (into[0][1],), 0, False)]  # key, prefix, run's last bit
    while stack:
        k, chain, prev, critical = stack.pop()
        if k == key:
            cells.append(chain)
            continue
        mu = masks[chain[-1]]
        for nxt in after[k]:
            v = into[nxt][1]
            if critical:
                stack.append((nxt, chain + (v,), 0, True))
                continue
            kind, value = _rule(prev, mu, mu ^ masks[v], index)
            if kind == _RUN:
                stack.append((nxt, chain + (v,), value, False))
            elif kind == _CRITICAL:
                stack.append((nxt, chain + (v,), 0, True))
    euler = sum(-1 if len(chain) % 2 == 0 else 1 for chain in cells)
    want = sum(-c if d % 2 else c for d, c in dims.items())
    if euler != want:
        raise CheckFailedError(
            f"critical chains of the block from {into[0][1]} to "
            f"{into[key][1]} at length {into[key][0]} have Euler "
            f"characteristic {euler}, its chains {want}")

    number = {chain: c for c, chain in enumerate(cells)}
    images = {}  # chain -> {critical cell: coefficient}; None while open

    def image(root):
        if root in images:
            return images[root]
        path = [(root, None)]  # (chain paired up, its terms)
        while path:
            chain, terms = path[-1]
            if terms is None:
                pair = _partner(chain, masks, index)
                if pair is None:
                    if chain not in number:
                        raise CheckFailedError(
                            f"boundary target {chain} outside block")
                    images[chain] = {number[chain]: 1}
                elif len(pair[1]) < len(chain):
                    images[chain] = {}
                else:
                    i, up = pair
                    terms = [(face, 1 if (i + j) % 2 else -1)
                             for j, face in _faces(up, masks) if j != i]
                    path[-1] = chain, terms
                    images[chain] = None
                if images[chain] is not None:
                    path.pop()
                    continue
            for face, _ in terms:
                if face not in images:
                    path.append((face, None))
                    break
                if images[face] is None:
                    raise CheckFailedError(f"matching has a cycle at {face}")
            else:
                acc = defaultdict(int)
                for face, sign in terms:
                    for cell, v in images[face].items():
                        acc[cell] += sign * v
                images[chain] = {cell: v for cell, v in acc.items() if v}
                path.pop()
        return images[root]

    columns = []
    for chain in cells:
        col = defaultdict(int)
        for i, face in _faces(chain, masks):
            for cell, v in image(face).items():
                col[cell] += -v if i % 2 else v
        columns.append({cell: v for cell, v in col.items() if v})
    _assert_d2_zero(cells, columns)
    hom = complex_homology([len(chain) - 1 for chain in cells], columns)
    return {d: (*hom.get(d, (0, ())), c) for d, c in dims.items()}


def _assert_d2_zero(cells, columns):
    """Raise unless the boundary ``columns`` of ``cells`` (chains, one
    column of {cell: coefficient} each) compose to zero."""
    for c, col in enumerate(columns):
        acc = defaultdict(int)
        for mid, v in col.items():
            for row, w in columns[mid].items():
                acc[row] += v * w
        if any(acc.values()):
            raise CheckFailedError(
                f"boundary composed with itself is nonzero in degree "
                f"{len(cells[c]) - 1} at chain {cells[c]}")


# ---------------------------------------------------------------------------
# dynamic chain counting (no enumeration)


def chain_count_table(system, orbits, lmax):
    """Number of generating chains per (degree, length), all starts.

    The chains of degree k from chamber u, counted by length, are the
    coefficients of ((Z - I)^k 1)(u) for the chamber matrix Z of q^d.  Z
    commutes with the symmetries, so on vectors constant on ``orbits`` it
    acts as their collapsed system M (``system``, as ``orbit_matrix``
    builds it), and Z - I as M with its constant terms, the start itself,
    dropped.  lmax such steps, each cut off past q^lmax, and a sum over
    orbits weighted by their sizes give the table: a cross-check of the
    enumeration and the Euler characteristics that reads only distances.
    """
    # entry (i, j) of M - I as its (distance, count) pairs up to lmax
    steps = [[[(d, c) for d, c in enumerate(p.coeffs[: lmax + 1]) if d and c]
              for p in row] for row in system]
    weights = [len(o) for o in orbits]
    counts = [[1] + [0] * lmax for _ in orbits]  # (M - I)^k 1, by length
    totals = {}
    for k in range(lmax + 1):
        if k:  # one step of M - I
            counts, previous = [], counts
            for row in steps:
                out = [0] * (lmax + 1)
                for entry, col in zip(row, previous):
                    for d, c in entry:
                        for length in range(lmax + 1 - d):
                            out[length + d] += c * col[length]
                counts.append(out)
        for length in range(lmax + 1):
            total = sum(w * col[length] for w, col in zip(weights, counts))
            if total:
                totals[(k, length)] = total
    return totals


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
                       magnitude=None, system=None):
    """Bigraded Betti table of ``graph`` through total length ``lmax``.

    The tope graph is the whole input; the run enumerates no chambers.
    ``interior_only`` restricts the complex to chains crossing every
    hyperplane, which is the summand entering the face decomposition.
    When ``magnitude`` (a RatFunc) is given, the per-length Euler
    characteristics of the chain spaces are checked against its series.
    ``system`` is the collapsed system M on the chamber orbits of
    ``group`` that the magnitude was solved from, which the chain-count
    check reads; it is built here when not given.
    Every block that is reduced has its boundary checked to square to
    zero on the chains whose boundary its Morse complex reads, and so
    has that complex (see ``_morse_block``), and a run that would charge
    more than ``DEFAULT_CHAIN_BUDGET`` entries (read at call time) for
    the keys it finds and the chains of the blocks it reduces (see
    ``_start_blocks``) stops with BudgetExceededError.
    """
    _, orbits, _ = chamber_orbits(graph, group)
    betti = {part: defaultdict(int) for part in ("all", "inner", "geodesic")}
    torsion = {part: defaultdict(list) for part in betti}
    dims = defaultdict(int)
    spent = 0
    around = _near_lists(graph, lmax)
    # memo key -> summary of the first block with that key, raw memo key
    # (or local tope set) -> its memo key (or shape), and shape -> tally
    memo, canon, tallies = {}, {}, {}
    for members in orbits:
        rep = members[0]
        weight = len(members)
        blocks, spent = _start_blocks(graph, rep, lmax, spent, interior_only,
                                      around, memo, canon, tallies)
        # one tally per distinct summary, times the blocks sharing it
        for (length, inner, geodesic, memo_key), times in blocks.items():
            parts = ["all"] + ["inner"] * inner + ["geodesic"] * geodesic
            times *= weight
            for k, (b, tor, dim) in memo[memo_key].items():
                dims[(k, length)] += times * dim
                for part in parts:
                    if b:
                        betti[part][(k, length)] += times * b
                    if tor:
                        torsion[part][(k, length)].extend(tor * times)

    checks = {}
    if not interior_only:
        if system is None:
            system = orbit_matrix(graph, orbits)
        counted = chain_count_table(system, orbits, lmax)
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
    n = lattice.graph.n
    rank = lattice.rank
    betti_at = result.betti_at
    restricted = lattice.restriction_chamber_count
    checks = dict(result.checks)
    geodesic = geodesic_betti_formula(lattice, group)
    checks["geodesic_two_routes"] = not result.geodesic_torsion and {
        k: v for k, v in result.geodesic_betti.items() if v
    } == {k: v for k, v in geodesic.items() if v and k[1] <= lmax}

    checks["b00_chambers"] = betti_at(0, 0) == len(lattice.graph)
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
                betti_at(rank, n) >= len(lattice.graph)
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

    Proper flats are recomputed independently, one per symmetry orbit:
    the tope graph of A_X is projected from A's (``localization``), and
    its interior table, which reads that graph alone, is a run of its
    own the first time the graph is met (flats of k hyperplanes in rank
    two often give one pencil).  No run shares the main run's memo, so
    the proper flats' terms read no block the main run reduced.  The top
    term is the interior part of the main run.
    """
    _oid, forbits = flat_orbits(lattice, group)
    tables = {}  # (n, masks) of a localization -> its interior table
    total = defaultdict(int)
    for members in forbits:
        rep = lattice.flats[members[0]]
        weight = len(members)
        c = lattice.restriction_chamber_count(rep.index)
        if rep.rank == 0:
            table = {(0, 0): 1}
        elif rep is lattice.flats[-1]:
            table = result.interior_betti
        else:
            sub = lattice.graph.localization(rep.hyperplanes)
            if (sub.n, sub.masks) not in tables:
                tables[sub.n, sub.masks] = magnitude_homology(
                    sub, lmax=result.lmax, interior_only=True).betti
            table = tables[sub.n, sub.masks]
        for key, v in table.items():
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
    cyclotomic factor.  A chamber's distance profile is read as the row
    sum of the collapsed system M in ``mag_result.system``, one row per
    chamber orbit, on which profiles are constant.  The corner probe
    applies to indecomposable arrangements: those with one matroid
    component.
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
    # row i of M sums to the distance profile of orbit i's chambers
    uniform = len({sum(row, ZERO) for row in mag_result.system[0]}) == 1
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
