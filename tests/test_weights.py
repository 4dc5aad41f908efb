import re
from itertools import product

import pytest

from cactusgrowth import weights
from cactusgrowth.weights import (
    CartanContext,
    Partition,
    Weight,
    dom_w,
    dominant,
    is_dominant,
    weyl_orbit,
)

GL4 = CartanContext("GL", 4)
GL3 = CartanContext("GL", 3)
SP4 = CartanContext("Sp", 2)
SL2 = CartanContext("SL2", 1)


def test_dom_w_examples():
    assert dom_w(GL4.weight([1, 2, 1, 0])).coords == (2, 1, 1, 0)
    assert dom_w(SP4.weight([-1, 2])).coords == (2, 1)
    for w in ((3, 1, 0), (2, 2, 1)):
        assert dom_w(GL3.weight(w)).coords == w  # dominant weights are fixed


def test_is_dominant():
    assert is_dominant(GL3.weight([2, 1, 1]))
    assert not is_dominant(GL3.weight([1, 2, 0]))
    assert not is_dominant(SP4.weight([1, -1]))
    assert is_dominant(SP4.weight([1, 0]))
    assert is_dominant(SL2.weight([0]))
    assert not is_dominant(SL2.weight([-1]))


@pytest.mark.parametrize(
    "ctx,bound",
    [(GL3, 3), (GL4, 3), (SP4, 3), (CartanContext("Sp", 3), 3), (CartanContext("Sp", 4), 3), (SL2, 3)],
)
def test_dom_w_orbit_constant(ctx, bound):
    for coords in product(range(-bound, bound + 1), repeat=ctx.rank):
        w = Weight(ctx, coords)
        d = dom_w(w)
        assert is_dominant(d)
        assert dom_w(d) == d
        assert all(dom_w(Weight(ctx, o)) == d for o in weyl_orbit(ctx.family, coords))


def reference_dominant(family, c):
    """The index-by-index form that dominant replaced."""
    if family == weights.SL2:
        return c[0] >= 0
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        return False
    return family == weights.GL or c[-1] >= 0


def test_dominant_matches_the_index_form_exhaustively():
    cases = [(weights.SL2, c) for c in product(range(-3, 4), repeat=1)]
    cases += [(family, c) for family in (weights.GL, weights.SP)
              for n in range(1, 5) for c in product(range(-3, 4), repeat=n)]
    assert len(cases) == 7 + 2 * (7 + 49 + 343 + 2401)
    for family, c in cases:
        expected = reference_dominant(family, c)
        assert dominant(family, c) is expected, (family, c)
        assert dominant(family, list(c)) is expected, (family, c)


def test_partition_trailing_zeros():
    assert Partition([2, 1, 1, 0]) == Partition([2, 1, 1])
    assert Partition([2, 1, 1, 0]).padded(4) == (2, 1, 1, 0)
    assert Partition((3, 0, 0)).parts == (3,)
    assert Partition([0, 0]).parts == Partition().parts == ()
    assert Partition([2, 2, 1]).parts == (2, 2, 1)
    with pytest.raises(ValueError, match=re.escape("(1, 2) is not weakly decreasing")):
        Partition([1, 2])
    with pytest.raises(ValueError, match=re.escape("(1, 2) is not weakly decreasing")):
        Partition([1, 2, 0])
    with pytest.raises(ValueError, match=re.escape("(2, -1) has negative parts")):
        Partition([2, -1])


def test_simple_roots():
    assert GL3.simple_root(1) == (1, -1, 0)
    assert SP4.simple_root(2) == (0, 2)
    assert SL2.simple_root(1) == (2,)
    with pytest.raises(ValueError):
        GL3.simple_root(3)


def test_sl2_is_sp2_in_every_formula():
    sp2 = CartanContext("Sp", 1)
    for c in range(-6, 7):
        assert dominant(weights.SL2, (c,)) is dominant(weights.SP, (c,))
        assert weights.dom(weights.SL2, (c,)) == weights.dom(weights.SP, (c,))
        assert weyl_orbit(weights.SL2, (c,)) == weyl_orbit(weights.SP, (c,))
    assert SL2.index_set() == sp2.index_set() == range(1, 2)
    assert SL2.simple_root(1) == sp2.simple_root(1) == (2,)
