from itertools import product

import pytest

from cactusgrowth.weights import (
    CartanContext,
    Partition,
    Weight,
    dom_w,
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


def test_partition_trailing_zeros():
    assert Partition([2, 1, 1, 0]) == Partition([2, 1, 1])
    assert Partition([2, 1, 1, 0]).padded(4) == (2, 1, 1, 0)
    with pytest.raises(ValueError):
        Partition([1, 2])


def test_simple_roots():
    assert GL3.simple_root(1) == (1, -1, 0)
    assert SP4.simple_root(2) == (0, 2)
    assert SL2.simple_root(1) == (2,)
    with pytest.raises(ValueError):
        GL3.simple_root(3)
