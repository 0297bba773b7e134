"""Exact integer linear algebra: fraction-free row reduction, kernels,
Smith normal form, and chain-complex homology over the integers.

Every function takes and returns Python ints; ``clear_denominators`` is
the one entry point for rational input, used when rows are parsed.
``pack_digits`` makes small signed ints the whole-byte digits of one
big int, so n dot products take one big-int operation.
Homology takes columns from a work stack and cancels each at its unit
entry whose row meets the fewest columns; a dense Smith form finishes
whatever has no unit entry left.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction


def pack_digits(digits, width):
    """The int sum of digits[h] * 256**(width * h), for ints in
    [-2**(8 * width - 1), 2**(8 * width - 1)): each digit plus that half
    goes into one byte string, read as one int, and the halves are taken
    off (Kronecker substitution at q = 256**width)."""
    half = 1 << (8 * width - 1)
    data = b"".join([(d + half).to_bytes(width, "little") for d in digits])
    halves = (bytes(width - 1) + b"\x80") * len(digits)
    return int.from_bytes(data, "little") - int.from_bytes(halves, "little")


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (signs kept)."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def rref(rows):
    """Fraction-free reduced row echelon form over the integers.

    Returns (reduced nonzero rows, pivot column indices).  Each reduced
    row is primitive with a positive pivot entry and zeros in the other
    rows' pivot columns, so it is a positive multiple of the row that
    reduction over Q would give.  The input is not modified.
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot_row = primitive(mat[r])
        if pivot_row[c] < 0:
            pivot_row = tuple(-x for x in pivot_row)
        mat[r] = pivot_row
        pv = pivot_row[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = primitive([pv * a - f * b for a, b in zip(mat[i], pivot_row)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def remainder(reduced, pivots, vec):
    """A positive multiple of vec minus a combination of already-reduced
    rows, zero in their pivot columns: zero when vec is in their span,
    and parallel for vectors spanning one line modulo the rows."""
    v = vec
    for row, c in zip(reduced, pivots):
        f = v[c]
        if f != 0:
            pv = row[c]
            v = [pv * a - f * b for a, b in zip(v, row)]
    return v


def nullspace(rows, ncols):
    """Basis of the right kernel, as integer vectors with content 1.

    The vector for free column c has a positive entry at c and zeros at
    the other free columns.
    """
    reduced, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    scale = math.lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive(v))
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    fr = [Fraction(x) for x in vec]
    lcm = math.lcm(*(f.denominator for f in fr))
    return primitive([int(f * lcm) for f in fr])


def snf_diagonal(entries):
    """Diagonal entries of the Smith normal form of a sparse integer matrix.

    ``entries`` maps (row key, column key), any hashables, to an int.
    Returns the positive diagonal entries with the divisibility chain
    d1 | d2 | ... (no zeros, no padding), so rank = len(result) and
    torsion corresponds to entries > 1.  Only the residue of the unit
    cancellation in ``complex_homology`` comes here, measured empty on
    every benchmark and catalog job, so a dense elimination is enough.
    """
    live = {key: v for key, v in entries.items() if v}
    rows = {i: r for r, i in enumerate({i for i, _ in live})}
    cols = {j: c for c, j in enumerate({j for _, j in live})}
    a = [[0] * len(cols) for _ in rows]
    for (i, j), v in live.items():
        a[rows[i]][cols[j]] = v
    diag = []
    while any(map(any, a)):
        # an entry of least absolute value goes to the corner
        _, r, c = min((abs(x), r, c) for r, row in enumerate(a)
                      for c, x in enumerate(row) if x)
        a[0], a[r] = a[r], a[0]
        for row in a:
            row[0], row[c] = row[c], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            for k, x in enumerate(a[0]):
                row[k] -= q * x
        for k in range(1, len(a[0])):
            q = a[0][k] // p
            for row in a:
                row[k] -= q * row[0]
        # a nonzero remainder is smaller than |p|: the next pass's corner
        if not any(a[0][1:]) and not any(row[0] for row in a[1:]):
            diag.append(abs(p))
            a = [row[1:] for row in a[1:]]
    # massage an arbitrary diagonal into the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            g = math.gcd(x, y)
            diag[i], diag[j] = g, x // g * y
    return tuple(sorted(diag))


def complex_homology(degrees, columns):
    """Integral homology of a finite free chain complex.

    Cell c has degree ``degrees[c]`` and boundary ``columns[c]``, a
    sparse column {cell: coefficient} over the cells one degree lower;
    the columns are reduced in place.  A unit incidence (b, c) spans an
    acyclic two-term summand after a change of basis, so both cells can
    be cancelled at the cost of a Schur update on the other columns
    through b (a homotopy equivalence: Skoldberg, Trans. AMS 358, 2006,
    so the order of the pivots does not change the homology).  Columns
    come off a work stack; each cancels its unit entry whose row meets
    the fewest columns, and every column the update changes goes back on
    the stack.  Homology hands it the Morse complex of each block, whose
    critical cells had only unit entries and left no residue on every
    workload measured, so the dense ``snf_diagonal`` finishes what
    survives, one matrix per degree.  Returns {degree: (betti, torsion factors of the
    incoming map)}, in the order the degrees first occur.
    """
    cob = [set() for _ in columns]
    for c, col in enumerate(columns):
        for b in col:
            cob[b].add(c)
    alive = Counter(degrees)
    stack = list(range(len(columns)))
    while stack:
        c = stack.pop()
        col = columns[c]
        units = [(len(cob[b]), b) for b, v in col.items() if v in (1, -1)]
        if not units:
            continue
        b = min(units)[1]
        eps = col.pop(b)
        columns[c] = {}
        for y in cob[c]:
            del columns[y][c]
        ups = cob[b]
        ups.discard(c)
        for x in ups:
            bx = columns[x]
            fac = bx.pop(b) * eps
            for t, v in col.items():
                nv = bx.get(t, 0) - fac * v
                if nv:
                    bx[t] = nv
                    cob[t].add(x)
                else:
                    del bx[t]
                    cob[t].discard(x)
        stack.extend(ups)
        for t in col:
            cob[t].discard(c)
        for t in columns[b]:
            cob[t].discard(b)
        columns[b] = {}
        alive[degrees[c]] -= 1
        alive[degrees[b]] -= 1
    core = defaultdict(dict)
    for c, col in enumerate(columns):
        for b, v in col.items():
            core[degrees[c]][(b, c)] = v
    diags = {k: snf_diagonal(entries) for k, entries in core.items()}
    return {k: (alive[k] - len(diags.get(k, ())) - len(diags.get(k + 1, ())),
                tuple(x for x in diags.get(k + 1, ()) if x > 1))
            for k in dict.fromkeys(degrees)}
