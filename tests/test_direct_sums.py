"""Direct sums: exact matroid components, and the product laws they obey.

The tope graph of A1 + A2 is the Cartesian product of the two tope
graphs.  Magnitude is multiplicative over Cartesian products (Leinster,
*The magnitude of a graph*, 2019), and magnitude homology obeys a
Kuenneth theorem for them (Hepworth-Willerton, *Categorifying the
magnitude of a graph*, 2017): for torsion-free factors the Betti table
is the convolution of the factors' tables in degree and length.  Each
decomposable input is checked against its components' localizations.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from conftest import components_by_separators, localize, random_arrangements
from magarr.arrangement import (
    CATALOG_NAMES,
    catalog,
    components,
    enumerate_chambers,
    parse_arrangement,
)
from magarr.homology import magnitude_homology
from magarr.magnitude import chamber_orbits, magnitude_direct
from magarr.polyq import IntPoly, reduce_fraction

# U(3,4) plus a line: e1, e2, e3, e1 + e2 + e3 and e4 in R^4
U34_PLUS_LINE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0],
                 [0, 0, 0, 1]]

RANK4 = random_arrangements(60, seed=7, nmin=4, nmax=6, dim=4, span=1)

CASES = ([(name, catalog(name)) for name in CATALOG_NAMES]
         + [("u34+line", parse_arrangement(U34_PLUS_LINE))]
         + [(f"rank4-{i}", arr) for i, arr in enumerate(RANK4)])


@pytest.mark.parametrize("arr", [arr for _, arr in CASES],
                         ids=[name for name, _ in CASES])
def test_components_match_separators(arr):
    assert components(arr) == components_by_separators(arr)


def _magnitude(arr):
    graph = enumerate_chambers(arr)
    return magnitude_direct(graph, chamber_orbits(graph)[2]).magnitude


def _homology(arr, lmax):
    graph = enumerate_chambers(arr)
    return magnitude_homology(graph, lmax=lmax,
                              group=chamber_orbits(graph)[2])


def _nonzero(table):
    return {key: b for key, b in table.items() if b}


def _convolve(first, second, lmax):
    """Betti table of a product from two torsion-free factors' tables."""
    out = defaultdict(int)
    for (k1, l1), b1 in first.items():
        for (k2, l2), b2 in second.items():
            if l1 + l2 <= lmax:
                out[(k1 + k2, l1 + l2)] += b1 * b2
    return _nonzero(out)


def assert_product_laws(arr, lmax):
    """Magnitude and the Betti table through lmax of a decomposable
    arrangement are the product and the convolution of its components'."""
    factors = [localize(arr, comp) for comp in components(arr)]
    assert len(factors) > 1
    num, den = IntPoly.const(1), IntPoly.const(1)
    for factor in factors:
        part = _magnitude(factor)
        num, den = num * part.num, den * part.den
    assert _magnitude(arr) == reduce_fraction(num, den)

    table = {(0, 0): 1}
    for factor in factors:
        res = _homology(factor, lmax)
        assert not any(res.torsion.values())
        table = _convolve(table, _nonzero(res.betti), lmax)
    res = _homology(arr, lmax)
    assert not any(res.torsion.values())
    assert _nonzero(res.betti) == table


@pytest.mark.parametrize("arr, lmax", [
    (catalog("nearpencil:12"), 5),  # the pencil of 11 lines plus z
    (catalog("nearpencil:6"), 6),
    (catalog("nearpencil:9"), 5),
    (catalog("boolean:4"), 6),
    (parse_arrangement(U34_PLUS_LINE), 5),
], ids=["nearpencil:12", "nearpencil:6", "nearpencil:9", "boolean:4",
        "u34+line"])
def test_product_laws_on_named_sums(arr, lmax):
    assert_product_laws(arr, lmax)


def test_product_laws_on_random_sums():
    sums = [arr for arr in RANK4 if len(components(arr)) > 1]
    assert len(sums) >= 20
    for arr in sums:
        assert_product_laws(arr, 4)
