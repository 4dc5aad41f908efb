from itertools import product

import pytest

from cactusgrowth.weights import (
    CartanContext,
    Partition,
    Weight,
    conjugate,
    dom_w,
    is_dominant,
    strip_check,
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


def test_strip_checks():
    assert strip_check(Partition([3]), Partition([4, 1]), "horizontal")
    assert strip_check(Partition([1, 1, 1]), Partition([2, 1, 1, 1]), "vertical")
    assert not strip_check(Partition([1]), Partition([3, 1]), "vertical")
    assert not strip_check(Partition([1]), Partition([2, 2]), "horizontal")
    for p in (Partition([3, 1]), Partition(), Partition([2, 2, 2])):
        assert strip_check(p, p, "horizontal")
        assert strip_check(p, p, "vertical")
    # containment failures
    assert not strip_check(Partition([2]), Partition([1]), "horizontal")


def test_strip_check_column_gains_two():
    # adding two boxes in one column is never a horizontal strip
    assert not strip_check(Partition([1]), Partition([1, 1, 1]), "horizontal")
    assert strip_check(Partition([1]), Partition([1, 1, 1]), "vertical")


def test_conjugate():
    assert conjugate(Partition([4, 2, 1])).parts == (3, 2, 1, 1)
    assert conjugate(Partition()).parts == ()
    assert conjugate(Partition([4, 1])).parts == (2, 1, 1, 1)


def test_conjugate_involution_brute():
    import random

    rng = random.Random(0)
    for _ in range(100):
        parts = sorted((rng.randint(0, 6) for _ in range(rng.randint(0, 5))), reverse=True)
        p = Partition(parts)
        assert conjugate(conjugate(p)) == p
        # transpose computed directly from the cell set
        cells = {(i, j) for i, part in enumerate(p.parts) for j in range(part)}
        transposed = {(j, i) for i, j in cells}
        q = conjugate(p)
        assert {(i, j) for i, part in enumerate(q.parts) for j in range(part)} == transposed


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
