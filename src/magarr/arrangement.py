"""Central hyperplane arrangements over the rationals.

An arrangement is a finite list of integer covectors (the hyperplane
normals).  Everything downstream works with exact data derived from it:
the chambers as sign vectors, the graph metric on chambers, and the
poset of intersection subspaces with its Moebius function.

Chambers are encoded as bitmasks: bit ``h`` is set when the chamber lies
on the positive side of hyperplane ``h``.  Distance between chambers is
the number of separating hyperplanes, which is the popcount of the XOR
of their masks.  Each chamber's integer witness is checked against all
n normals at once: the n dot products are the signed digits of one big
int, whose top bits spell the mask (``TopeGraph.check_witnesses``).
Chambers are enumerated once per arrangement; the tope graph of a
localization is projected from its parent's (``TopeGraph.localization``).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import mul

from .errors import BudgetExceededError, CheckFailedError, ParseError
from .linalg import (
    clear_denominators,
    nullspace,
    pack_digits,
    primitive,
    remainder,
    rref,
)

# chamber enumeration stops past this many chambers, twice the most any
# catalog name has (boolean:12 and nearpencil:1025, 4096 each); flats are
# at most as many as chambers, so this bounds an enumerated lattice too
CHAMBER_BUDGET = 8192
# ASCII "1" for a byte with its top bit set, "0" for one without
_TOP_BIT = b"0" * 128 + b"1" * 128


def _dot(a, b):
    return sum(map(mul, a, b))


def _sign_canonical(row):
    """The one of the tuples row and -row whose first nonzero entry is
    positive (row itself when it is zero)."""
    for x in row:
        if x:
            return row if x > 0 else tuple(-v for v in row)
    return row


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement given by primitive integer normals."""

    dimension: int
    normals: tuple
    labels: tuple

    @property
    def n(self):
        return len(self.normals)

    def __repr__(self):
        return f"Arrangement(d={self.dimension}, n={self.n})"


def parse_arrangement(rows, labels=None):
    """Validate raw rows and build an :class:`Arrangement`.

    Rows may contain ints, strings of ints/fractions, or Fractions, but
    not booleans.
    Each row is scaled by a positive rational to a primitive integer
    covector; the caller's choice of orientation is preserved.  Zero
    rows and proportional duplicates are rejected.
    """
    parsed = []
    for i, row in enumerate(rows):
        try:
            if any(isinstance(x, bool) for x in row):
                raise TypeError("a boolean is not a number")
            vals = [Fraction(x) for x in row]
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"row {i}: cannot read entries ({exc})") from None
        parsed.append(vals)
    if not parsed:
        raise ParseError("arrangement needs at least one hyperplane")
    dim = len(parsed[0])
    if dim == 0:
        raise ParseError("row 0: empty row")
    for i, vals in enumerate(parsed):
        if len(vals) != dim:
            raise ParseError(f"row {i}: length {len(vals)} != {dim}")
        if not any(vals):
            raise ParseError(f"row {i}: zero normal does not define a hyperplane")
    normals = tuple(clear_denominators(v) for v in parsed)
    seen = {}
    for i, nr in enumerate(normals):
        key = _sign_canonical(nr)
        if key in seen:
            raise ParseError(f"rows {seen[key]} and {i} define the same hyperplane")
        seen[key] = i
    if labels is None:
        labels = tuple(f"H{i}" for i in range(len(normals)))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(normals):
            raise ParseError("label count does not match row count")
    return Arrangement(dimension=dim, normals=normals, labels=labels)


# ---------------------------------------------------------------------------
# named catalog


def _braid(m):
    # e_i - e_j in R^m, i < j; rank m-1, not essential.
    rows = []
    labels = []
    for i in range(m):
        for j in range(i + 1, m):
            r = [0] * m
            r[i] = 1
            r[j] = -1
            rows.append(r)
            labels.append(f"x{i + 1}-x{j + 1}")
    return rows, labels


def _nearpencil(m):
    # One plane z=0 plus m-1 planes through the z-axis with distinct slopes.
    rows = [[0, 0, 1]]
    labels = ["z"]
    rows.append([0, 1, 0])
    labels.append("y")
    for k in range(m - 2):
        rows.append([1, k, 0])
        labels.append(f"x+{k}y" if k else "x")
    return rows, labels


_CATALOG_BUILDERS = {
    "u34": lambda: (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        ["x", "y", "z", "x+y+z"],
    ),
    "u45": lambda: (
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 1, 1, 1],
        ],
        ["x1", "x2", "x3", "x4", "sum"],
    ),
    "k4me": lambda: (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
        ["x", "y", "z", "x+z", "y+z"],
    ),
    "coxeter:b2": lambda: (
        [[1, 0], [0, 1], [1, 1], [1, -1]],
        ["x", "y", "x+y", "x-y"],
    ),
    "coxeter:b3": lambda: (
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 1, 0],
            [1, -1, 0],
            [1, 0, 1],
            [1, 0, -1],
            [0, 1, 1],
            [0, 1, -1],
        ],
        ["x", "y", "z", "x+y", "x-y", "x+z", "x-z", "y+z", "y-z"],
    ),
    "bracelet": lambda: (
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
            [0, 1, 1, 1],
        ],
        [
            "x1",
            "x2",
            "x3",
            "x1+x4",
            "x2+x4",
            "x3+x4",
            "x1+x2+x4",
            "x1+x3+x4",
            "x2+x3+x4",
        ],
    ),
}


def catalog(name):
    """Build a named arrangement.

    Supported names: ``boolean:d``, ``braid:n``, ``coxeter:B2``,
    ``coxeter:B3``, ``u34``, ``u45``, ``k4me``, ``k5me``, ``bracelet``,
    ``nearpencil:n``.
    """
    key = name.strip().lower()
    if key in _CATALOG_BUILDERS:
        rows, labels = _CATALOG_BUILDERS[key]()
        return parse_arrangement(rows, labels=labels)
    if ":" in key:
        head, _, tail = key.partition(":")
        try:
            m = int(tail)
        except ValueError:
            m = None
        # only the plain decimal spelling, so one name has one source name
        if str(m) != tail:
            raise ParseError(f"unknown catalog name {name!r}")
        if head == "boolean":
            if not 1 <= m <= 12:
                raise ParseError("boolean:d needs 1 <= d <= 12")
            rows = [[1 if j == i else 0 for j in range(m)] for i in range(m)]
            return parse_arrangement(rows, labels=[f"x{i + 1}" for i in range(m)])
        if head == "braid":
            if not 2 <= m <= 6:
                raise ParseError("braid:n needs 2 <= n <= 6")
            rows, labels = _braid(m)
            return parse_arrangement(rows, labels=labels)
        if head == "nearpencil":
            # 4(n - 1) chambers: at most 4096, as many as boolean:12
            if not 3 <= m <= 1025:
                raise ParseError("nearpencil:n needs 3 <= n <= 1025")
            rows, labels = _nearpencil(m)
            return parse_arrangement(rows, labels=labels)
    if key == "k5me":
        rows, labels = _braid(5)
        # drop the edge between the last two vertices of K5
        drop = labels.index("x4-x5")
        rows = rows[:drop] + rows[drop + 1 :]
        labels = labels[:drop] + labels[drop + 1 :]
        return parse_arrangement(rows, labels=labels)
    raise ParseError(f"unknown catalog name {name!r}")


CATALOG_NAMES = (
    "boolean:1",
    "boolean:2",
    "boolean:3",
    "boolean:4",
    "braid:3",
    "braid:4",
    "braid:5",
    "coxeter:B2",
    "coxeter:B3",
    "u34",
    "u45",
    "k4me",
    "k5me",
    "bracelet",
    "nearpencil:4",
    "nearpencil:5",
)


# ---------------------------------------------------------------------------
# chambers and the tope graph


class TopeGraph:
    """Chambers of an arrangement with the separation metric."""

    def __init__(self, arrangement, masks, witnesses):
        self.arrangement = arrangement
        self.n = arrangement.n
        self.masks = tuple(masks)
        self.witnesses = tuple(witnesses)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.check_witnesses()

    def __len__(self):
        return len(self.masks)

    def check_witnesses(self):
        """Raise unless the masks strictly increase and each witness lies
        strictly inside the chamber its mask names; run when the graph is
        built, so every graph is checked.

        The n products a_h . w of a witness w are the signed base-B
        digits of sum_j w_j P_j, P_j = sum_h a_hj B**h, for B = 256**width
        with 2**(8 width - 1) above every |a_h|_1 |w|_max.  Plus B/2 - 1,
        a digit has its top bit set exactly when the product is positive,
        and plus B/2 when it is non-negative; both top-bit patterns must
        spell the mask, so a product of zero fails too.
        """
        arr = self.arrangement
        if len(self.masks) != len(self.witnesses):
            raise CheckFailedError("mask and witness counts differ")
        n = arr.n
        coord = max((abs(x) for w in self.witnesses for x in w), default=0)
        bound = max(sum(map(abs, a)) for a in arr.normals) * coord
        width = (bound.bit_length() + 8) // 8
        size = n * width
        columns = [pack_digits(col, width) for col in zip(*arr.normals)]
        # sum_h B**h, and sum_h (B/2 - 1) B**h
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * n, "little")
        below_half = (ones << 8 * width - 1) - ones
        spelling = f"0{n}b"
        prev = -1
        for k, (mask, w) in enumerate(zip(self.masks, self.witnesses)):
            if mask <= prev:
                raise CheckFailedError(f"chamber {k}: masks not strictly increasing")
            prev = mask
            if len(w) != arr.dimension:
                raise CheckFailedError(f"chamber {k}: witness has length {len(w)}")
            positive = sum(map(mul, w, columns)) + below_half
            spread = format(mask, spelling).encode()
            # big-endian: the top byte of each digit, digit n - 1 first,
            # in the order of the mask's binary spelling
            for value in (positive, positive + ones):
                if value.to_bytes(size, "big")[::width].translate(
                        _TOP_BIT) != spread:
                    self._reject(k)

    def _reject(self, k):
        """Raise for chamber k, naming the first hyperplane its witness
        lies on or on the wrong side of."""
        mask, w = self.masks[k], self.witnesses[k]
        for h, a in enumerate(self.arrangement.normals):
            v = _dot(a, w)
            if v == 0 or (v > 0) != (mask >> h & 1):
                where = "on" if v == 0 else f"off mask {mask:b} at"
                raise CheckFailedError(
                    f"chamber {k}: witness lies {where} hyperplane {h}")
        raise CheckFailedError(
            f"chamber {k}: mask {mask:b} has bits past hyperplane {h}")

    def localization(self, hyperplanes):
        """Tope graph of the localization at a flat, given by the
        ascending, nonempty hyperplanes through it: the distinct
        restrictions of these topes, the deletion minor (Bjorner et al.,
        *Oriented Matroids*, 2nd ed., ch. 3), each with the witness of a
        chamber restricting to it, which lies inside it."""
        arr, hs = self.arrangement, hyperplanes
        inside = sum(1 << h for h in hs)
        found = dict(zip([m & inside for m in self.masks], self.witnesses))
        keys = sorted(found)  # restricted masks sort as their projections
        sub = Arrangement(arr.dimension, tuple(arr.normals[h] for h in hs),
                          tuple(arr.labels[h] for h in hs))
        masks = [sum((m >> h & 1) << k for k, h in enumerate(hs)) for m in keys]
        return TopeGraph(sub, masks, [found[m] for m in keys])

    def dist(self, i, j):
        return (self.masks[i] ^ self.masks[j]).bit_count()

    def antipode(self, i):
        full = (1 << self.n) - 1
        return self.index[self.masks[i] ^ full]

    def edges(self):
        """Pairs (i, j), i < j, at separation distance one."""
        out = []
        for i, m in enumerate(self.masks):
            for h in range(self.n):
                j = self.index.get(m ^ (1 << h))
                if j is not None and i < j:
                    out.append((i, j))
        return tuple(out)


def _lift(p, basis, d):
    """Point of R^d with coordinates p in the given basis."""
    return tuple(sum(pk * b[j] for pk, b in zip(p, basis)) for j in range(d))


def _chamber_witnesses(arrangement):
    """{mask: integer witness} over all chambers, by deletion-restriction.

    Hyperplanes are inserted in order.  The chambers of A_<i that H_i
    splits are those of the restriction of A_<=i to H_i (Zaslavsky), found
    recursively one dimension down.  A restricted witness lifts to a point
    x of H_i strictly off every earlier hyperplane, and with
    M = 1 + max_h |a_h . a_i| the points M x +- a_i keep the signs of x
    on every a_h (|a_h . x| >= 1) and take both signs on a_i.  A chamber
    H_i does not split keeps its witness.  When the restriction map sends
    h to (j, s), sign(a_h . x) is s times the restricted witness's sign on
    normal j, so x's mask on A_<i is an OR of bit sets, one per j and side.
    Raises BudgetExceededError once a step passes CHAMBER_BUDGET chambers.
    """
    d = arrangement.dimension
    normals = arrangement.normals
    current = {0: (0,) * d}
    for i, a in enumerate(normals):
        prefix = Arrangement(d, normals[: i + 1], arrangement.labels[: i + 1])
        sub, basis, images = _restrict_with_basis(prefix, (i,))
        scale = 1 + max((abs(_dot(normals[h], a)) for h in range(i)), default=0)
        sides = [[0, 0] for _ in range(sub.n)]  # j -> h with s = -1, +1
        for h, (j, s) in images.items():
            sides[j][s > 0] |= 1 << h
        split = {}
        for m, p in _chamber_witnesses(sub).items():
            mask = sum(side[m >> j & 1] for j, side in enumerate(sides))
            split[mask] = _lift(p, basis, d)
        nxt = {}
        for mask, w in current.items():
            x = split.get(mask)
            if x is None:
                nxt[mask | (1 << i) if _dot(a, w) > 0 else mask] = w
            else:
                nxt[mask | (1 << i)] = tuple(scale * xj + aj for xj, aj in zip(x, a))
                nxt[mask] = tuple(scale * xj - aj for xj, aj in zip(x, a))
        if len(nxt) > CHAMBER_BUDGET:
            raise BudgetExceededError("chambers", CHAMBER_BUDGET, len(nxt),
                                      "try fewer hyperplanes")
        current = nxt
    return current


def enumerate_chambers(arrangement):
    """All chambers with integer witnesses, found by deletion-restriction
    in a column basis of the normals.

    The pivot columns P of ``rref(normals)`` span the column space of the
    normal matrix N, so N x over x in R^d takes the sign vectors of N_P y
    over y in R^rank: the chambers are enumerated on those columns and
    each witness gets zeros in the other coordinates.  The chambers come
    sorted by mask, and ``TopeGraph`` checks that every witness lies
    strictly inside the chamber its mask names, against the full normals.
    """
    d, normals = arrangement.dimension, arrangement.normals
    pivots = rref(normals)[1]
    found = _chamber_witnesses(Arrangement(
        len(pivots), tuple(tuple(a[c] for c in pivots) for a in normals),
        arrangement.labels))
    masks = sorted(found)
    witnesses = []
    for m in masks:
        w = [0] * d
        for c, x in zip(pivots, found[m]):
            w[c] = x
        witnesses.append(tuple(w))
    return TopeGraph(arrangement, masks, witnesses)


# ---------------------------------------------------------------------------
# intersection poset


def _members(mask):
    """The set bits of ``mask``, ascending."""
    return tuple(h for h in range(mask.bit_length()) if mask >> h & 1)


@dataclass(frozen=True)
class Flat:
    """An intersection subspace, identified by the hyperplanes containing
    it: bit h of ``mask`` is set when hyperplane h contains the flat."""

    index: int
    mask: int
    rank: int
    mobius: int

    @property
    def hyperplanes(self):
        return _members(self.mask)

    @property
    def size(self):
        return self.mask.bit_count()


class FaceLattice:
    """Intersection subspaces ordered by reverse inclusion.

    Rank of a flat is the codimension of the subspace, i.e. the rank of
    the normals of the hyperplanes through it.  The bottom flat is the
    empty intersection (the whole space).  Y <= X iff the mask of Y is
    inside that of X, and ``index`` maps a mask to its flat's index.
    ``graph`` is the tope graph the flats were read from.
    """

    def __init__(self, graph, flats, covers):
        self.graph = graph
        self.flats = flats
        self.index = {f.mask: f.index for f in flats}
        self.rank = max(f.rank for f in flats)
        self._covers = covers  # covers[j]: indices of the flats j covers
        self._counts_below = {}
        self._uppers = None  # bit sets of the flats above each flat
        self._betas = None
        self._flat_orbits = {}  # hyperplane relabellings -> flat orbits

    def lower(self, j):
        """Indices of flats below or equal to flat j, ascending."""
        top = self.flats[j].mask
        return [f.index for f in self.flats if not f.mask & ~top]

    def flats_of_rank(self, r):
        return [f for f in self.flats if f.rank == r]

    def characteristic_polynomial(self):
        """Sum over flats of mu(0, X) t^(d - rank X), as a coeff tuple."""
        d = self.graph.arrangement.dimension
        coeffs = [0] * (d + 1)
        for f in self.flats:
            coeffs[d - f.rank] += f.mobius
        return tuple(coeffs)

    def beta_invariant(self, j):
        """|chi'(1)| of the subarrangement of hyperplanes through flat j:
        the sum of mu(0, Y) (d - rank Y) over the flats Y <= X = flat j,
        in absolute value; every flat's is found on first request.

        One pass in rank order over the cover pairs builds the set of
        flats below X, as a bit set over flat indices, as the union of X
        with the sets of the flats X covers.  Each weight mu(0, Y) (d -
        rank Y) is split into its sign and binary digits, one bit set of
        flats per (sign, digit), so the sum over a set is a signed sum
        of 2**digit times the popcounts of its intersections with them.
        """
        if self._betas is None:
            d = self.graph.arrangement.dimension
            planes = {}  # +-2**digit -> flats whose weight has that digit
            for f in self.flats:
                _add_digits(planes, f.mobius * (d - f.rank), 1 << f.index)
            below, betas = [], []
            for f, covered in zip(self.flats, self._covers):
                under = 1 << f.index
                for y in covered:
                    under |= below[y]
                below.append(under)
                betas.append(abs(_digit_sum(planes, under)))
            self._betas = betas
        return self._betas[j]

    def counts_below(self, j):
        """{index of Y: c[Y, X]} over the flats Y <= X = flat j, where
        c[Y, X] counts the chambers of A_X restricted to Y; computed on
        first request.  By the Euler relation of a complete fan (and
        Zaslavsky), the sum of (-1)^rank(Z) c[Z, X] over Y <= Z <= X is
        (-1)^rank(Y), so the counts are read top down from c[X, X] = 1.
        Each flat's upper set, a bit set over flat indices, is built once
        from the cover pairs, and the sum over the Z already read is a
        signed sum of popcounts, as in ``beta_invariant``.
        """
        counts = self._counts_below.get(j)
        if counts is None:
            if self._uppers is None:
                self._uppers = [1 << i for i in range(len(self.flats))]
                for x in reversed(range(len(self.flats))):
                    for y in self._covers[x]:
                        self._uppers[y] |= self._uppers[x]
            counts, planes = {}, {}  # planes: of (-1)^rank(Z) c[Z, X]
            for y in reversed(self.lower(j)):
                sign = -1 if self.flats[y].rank % 2 else 1
                s = sign - _digit_sum(planes, self._uppers[y])
                _add_digits(planes, s, 1 << y)
                counts[y] = sign * s
            self._counts_below[j] = counts
        return counts

    def restriction_chamber_count(self, j):
        """c^X for flat X = flat j: the chambers of the restriction A^X,
        read from the Euler relation below the top flat."""
        return self.counts_below(len(self.flats) - 1)[j]

    def rank3_line_multiplicities(self):
        """Counts {k: number of rank-2 flats through exactly k hyperplanes}."""
        out = {}
        for f in self.flats_of_rank(2):
            out[f.size] = out.get(f.size, 0) + 1
        return out


def _add_digits(planes, weight, bits):
    """Add ``bits`` to the plane of each signed binary digit of
    ``weight``: planes maps +-2**digit to a bit set."""
    for digit in range(abs(weight).bit_length()):
        if abs(weight) >> digit & 1:
            key = (1 if weight > 0 else -1) << digit
            planes[key] = planes.get(key, 0) | bits


def _digit_sum(planes, bits):
    """The sum of the weights added to ``planes`` at the members of the
    bit set ``bits``."""
    return sum(key * (bits & plane).bit_count()
               for key, plane in planes.items())


def intersection_lattice(graph):
    """Build the poset of flats with mu(0, X) for every flat X.

    Flats are found rank by rank, keyed on their hyperplane masks.  The
    covers of X partition the hyperplanes outside it, g and h lying in
    one when their normals span one line modulo X's, so each outside
    normal is reduced once against X's echelon basis and grouped by its
    primitive, sign-canonical remainder.  The top is the only cover of
    rank r(A) - 1.  Flats are ordered by rank, then sorted hyperplanes.
    By Weisner's theorem, mu(0, Z) = -sum of mu(0, Y) over the flats Y
    that Z covers and that miss Z's lowest hyperplane (Stanley, EC1, 3.9).
    Every |mu(0, X)| >= 1, so there are at most as many flats as
    chambers, and the search raises CheckFailedError as soon as it holds
    more flats than ``graph`` has chambers (a cache entry missing some).
    """
    normals = graph.arrangement.normals
    if not all(map(any, normals)):
        raise CheckFailedError("a zero normal lies in every flat")
    top = len(rref(normals)[1])
    full = (1 << graph.n) - 1
    rank_of = {0: 0, full: top}
    lower = {}  # flat mask -> the flats it covers
    frontier = [(0, [], [])]  # (flat mask, echelon basis, pivot columns)
    for rank in range(1, top):
        nxt = []
        for mask, basis, cols in frontier:
            covers = {}  # remainder line -> the outside hyperplanes on it
            for g, a in enumerate(normals):
                if not mask >> g & 1:
                    key = _sign_canonical(primitive(remainder(basis, cols, a)))
                    covers[key] = covers.get(key, 0) | 1 << g
            for key, extra in covers.items():
                closed = mask | extra
                lower.setdefault(closed, []).append(mask)
                if closed not in rank_of:
                    rank_of[closed] = rank
                    if len(rank_of) > len(graph):
                        raise CheckFailedError(
                            f"more flats than the {len(graph)} chambers")
                    nxt.append((closed, *rref(basis + [key])))
        frontier = nxt

    lower[full] = [m for m, r in rank_of.items() if r == top - 1]
    masks = sorted(rank_of, key=lambda m: (rank_of[m], _members(m)))
    mobius = {0: 1}
    for m in masks[1:]:
        mobius[m] = -sum(mobius[y] for y in lower[m] if not y & m & -m)
    flats = tuple(Flat(index=i, mask=m, rank=rank_of[m], mobius=mobius[m])
                  for i, m in enumerate(masks))
    index = {m: i for i, m in enumerate(masks)}
    lattice = FaceLattice(graph, flats, [[index[y] for y in lower.get(m, ())]
                                         for m in masks])

    # Zaslavsky count must match the enumeration.
    total = sum(abs(f.mobius) for f in flats)
    if total != len(graph):
        raise CheckFailedError(
            f"Moebius chamber count {total} != enumerated {len(graph)}"
        )
    return lattice


# ---------------------------------------------------------------------------
# derived arrangements


def components(arrangement):
    """Connected components of the matroid of the normals: the finest
    partition whose localizations the arrangement is the direct sum of.

    ``rref`` of the transposed normals picks a basis of normals, its
    pivots; reduced row i is nonzero in column e exactly when basis
    normal ``pivots[i]`` lies in the fundamental circuit of e.  The
    classes of that relation are the components (Oxley, *Matroid
    Theory*, 2nd ed., ch. 4).  Sorted tuples, ordered by least member.
    """
    rows, _pivots = rref(list(zip(*arrangement.normals)))
    comps = []
    for row in rows:
        joined = {h for h, x in enumerate(row) if x}
        for c in [c for c in comps if c & joined]:
            joined |= c
            comps.remove(c)
        comps.append(joined)
    return sorted(tuple(sorted(c)) for c in comps)


def _restrict_with_basis(arrangement, hyperplanes):
    """Restriction to a flat, the kernel basis used as coordinates, and
    the restriction map {h: (j, s)}: in those coordinates, the row of a
    hyperplane h cutting the flat is a positive multiple of s times normal j.

    Distinct hyperplanes may cut the flat in the same subspace; they are
    merged, keeping first-occurrence order.
    """
    inside = sum(1 << h for h in set(hyperplanes))
    rows = [arrangement.normals[h] for h in _members(inside)]
    basis = nullspace(rows, arrangement.dimension)
    new_rows = []
    new_labels = []
    seen = {}  # sign-canonical normal -> its index in the restriction
    images = {}
    for h in range(arrangement.n):
        if inside >> h & 1:
            continue
        row = tuple(_dot(arrangement.normals[h], b) for b in basis)
        if not any(row):
            continue
        prim = primitive(row)
        key = _sign_canonical(prim)
        if key not in seen:
            seen[key] = len(new_rows)
            new_rows.append(prim)
            new_labels.append(arrangement.labels[h])
        j = seen[key]
        images[h] = (j, 1 if prim == new_rows[j] else -1)
    sub = Arrangement(len(basis), tuple(new_rows), tuple(new_labels))
    return sub, basis, images


# ---------------------------------------------------------------------------
# symmetries


@dataclass(frozen=True)
class SymmetryGroup:
    """Chamber permutations induced by signed coordinate symmetries.

    ``generators`` are permutation tuples on chamber indices, and
    ``hyperplane_perms[i]`` is the hyperplane relabelling of generator i:
    chambers adjacent across h go to chambers adjacent across
    ``hyperplane_perms[i][h]``.  ``order`` is the order of the group they
    generate, which ``len()`` returns too.
    """

    generators: tuple
    hyperplane_perms: tuple
    order: int

    def __len__(self):
        return self.order


def orbit(point, moves):
    """The set of points reached from ``point`` by the functions
    ``moves``, ``point`` included."""
    reached = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in reached:
                reached.add(y)
                stack.append(y)
    return reached


def inverse(perm):
    """The inverse of a permutation tuple of 0..len(perm)-1."""
    inv = [0] * len(perm)
    for h, g in enumerate(perm):
        inv[g] = h
    return tuple(inv)


def _permutes_normals(normals, prefix):
    """Whether a partial signed map can extend to one permuting the
    hyperplanes: the normals' images on the assigned target coordinates
    must equal, up to sign and order, the normals on those coordinates,
    since each image is exactly +- a normal (normals are primitive)."""
    have = [tuple(s * a[k] for k, (_, s) in enumerate(prefix)) for a in normals]
    want = [tuple(a[t] for t, _ in prefix) for a in normals]
    return (sorted(map(_sign_canonical, have))
            == sorted(map(_sign_canonical, want)))


def _complete(normals, prefix, d):
    """A signed map of R^d extending ``prefix`` whose every prefix passes
    ``_permutes_normals``, or None, by backtracking one coordinate at a
    time."""
    if not _permutes_normals(normals, prefix):
        return None
    if len(prefix) == d:
        return prefix
    used = {t for t, _ in prefix}
    for t in range(d):
        if t in used:
            continue
        for s in (1, -1):
            found = _complete(normals, prefix + ((t, s),), d)
            if found is not None:
                return found
    return None


def _signed_map_group(normals, d):
    """Generators and order of the group of signed coordinate maps of R^d
    that permute the normals up to sign.

    A map is a tuple of (target, sign) pairs sending e_k to
    sign * e_target, so a covector a goes to the covector with entry
    sign * a[k] at target.  Level k of the stabilizer chain fixes
    e_0, ..., e_{k-1}; the levels are filled from the last one up, so the
    generators found so far generate the stabilizer of level k + 1 and
    part of level k.  An image of e_k in their orbit is reached; any
    other is searched for by backtracking over the free coordinates, and
    a map found joins the generators, while a failed search rules out
    the whole orbit of that image.  The order is the product of the orbit
    lengths of e_k over the levels (Seress, *Permutation Group
    Algorithms*, 2003, ch. 9).
    """
    maps = []

    def signed_orbit(point):
        # the orbit of s * e_j, written (j, s), under the maps so far
        return orbit(point, [lambda p, m=m: (m[p[0]][0], p[1] * m[p[0]][1])
                             for m in maps])

    # e_k goes to +-e_t only if columns k and t agree up to entry signs
    column = [sorted(map(abs, c)) for c in zip(*normals)]
    order = 1
    for k in reversed(range(d)):
        prefix = tuple((i, 1) for i in range(k))
        images = signed_orbit((k, 1))
        dead = set()
        for image in ((t, s) for t in range(k, d) if column[t] == column[k]
                      for s in (1, -1)):
            if image in images or image in dead:
                continue
            found = _complete(normals, prefix + (image,), d)
            if found is None:
                dead.update(signed_orbit(image))
            else:
                maps.append(found)
                images = signed_orbit((k, 1))
        order *= len(images)
    return maps, order


def _kernel_order(columns):
    """Order of the group of signed coordinate maps fixing every normal,
    given the normals' columns, none of them zero.

    Such a map sends coordinate k to s * coordinate t only when column t
    is s times column k.  So it permutes each class of columns equal up
    to sign among itself, the signs then forced.
    """
    return prod(map(factorial, Counter(map(_sign_canonical, columns)).values()))


def tope_symmetries(graph):
    """The group of chamber permutations induced by the signed coordinate
    maps x_k -> s_k x_pi(k) that permute the hyperplanes.

    The signed maps are searched down a stabilizer chain, pruned after
    each assigned coordinate by ``_permutes_normals``.  The maps that fix
    every normal are the ones acting trivially on chambers, so the order
    of the chamber group is the quotient of the two orders.  -I, which
    sends each chamber to its antipode, always lies in the group.
    Coordinates that no normal uses are left out of the search: a signed
    map sends them among themselves, and every signed permutation of
    them fixes every normal, so they change neither group.
    """
    columns = [c for c in zip(*graph.arrangement.normals) if any(c)]
    normals = list(zip(*columns))
    d = len(columns)
    maps, order = _signed_map_group(normals, d)

    hyperplane_of = {_sign_canonical(a): h for h, a in enumerate(normals)}
    identity = tuple(range(len(graph)))
    generators = []
    hyperplane_perms = []
    for m in maps:
        # The image of normal h is +-normal g; bit h of the image chamber
        # is bit g of the source chamber, flipped for a minus sign.
        flip = 0
        source = []
        for h, a in enumerate(normals):
            image = [0] * d
            for k, (t, s) in enumerate(m):
                image[t] = s * a[k]
            image = tuple(image)
            g = hyperplane_of[_sign_canonical(image)]
            source.append(g)
            if image != normals[g]:
                flip |= 1 << h
        perm = tuple(
            graph.index[flip ^ sum((mask >> g & 1) << h
                                   for h, g in enumerate(source))]
            for mask in graph.masks
        )
        if perm == identity or perm in generators:
            continue
        generators.append(perm)
        hyperplane_perms.append(inverse(source))
    return SymmetryGroup(tuple(generators), tuple(hyperplane_perms),
                         order // _kernel_order(columns))


def orbits_of_permutations(count, perms):
    """Orbit partition of {0..count-1} under a list of permutations.

    Returns (orbit_id, orbits) where orbits is a tuple of sorted tuples
    and orbit_id[i] gives the orbit index of element i.
    """
    orbit_id = [-1] * count
    orbits = []
    moves = [p.__getitem__ for p in perms]
    for start in range(count):
        if orbit_id[start] < 0:
            members = orbit(start, moves)
            for u in members:
                orbit_id[u] = len(orbits)
            orbits.append(tuple(sorted(members)))
    return tuple(orbit_id), tuple(orbits)


def flat_orbits(lattice, group):
    """Orbit partition of flats under a chamber symmetry group.

    Each generator relabels the hyperplanes, and so permutes the flats,
    which are hyperplane masks.  Raises ``CheckFailedError`` unless each
    relabelling sends every flat to a flat of the same rank and size.
    The partition is memoized on the lattice, keyed by the relabellings.
    """
    if group.hyperplane_perms in lattice._flat_orbits:
        return lattice._flat_orbits[group.hyperplane_perms]
    flats, n = lattice.flats, lattice.graph.n
    fperms = []
    for g, hp in enumerate(group.hyperplane_perms):
        if len(hp) != n or set(hp) != set(range(n)):
            raise CheckFailedError(
                f"symmetry generator {g} does not permute the {n} hyperplanes")
        perm = []
        for f in flats:
            image = lattice.index.get(sum(1 << hp[h] for h in f.hyperplanes))
            if image is None or flats[image].rank != f.rank:
                raise CheckFailedError(
                    f"symmetry generator {g} sends flat {f.hyperplanes} of "
                    f"rank {f.rank} to no flat of that rank")
            perm.append(image)
        fperms.append(tuple(perm))
    out = lattice._flat_orbits[group.hyperplane_perms] = \
        orbits_of_permutations(len(flats), fperms)
    return out
