import random
from itertools import product

import pytest

from cactusgrowth.oracles import (
    Matching,
    SemistandardTableau,
    StandardTableau,
    StripViolation,
    all_matchings,
    bender_knuth,
    bender_knuth_rows,
    conjugate,
    conjugates,
    count_syt,
    dual_knuth,
    dual_sequence,
    enumerate_ssyt,
    enumerate_syt,
    evacuation_oracle,
    gt_levels,
    gt_pattern,
    matching_action,
    matching_from_syt,
    matching_to_syt,
    partitions_of,
    promotion_oracle,
    rows_from_dual_corners,
    strip_check,
    syt_from_string,
    tableau_from_dual_sequence,
    tableau_from_gt,
)
from cactusgrowth.weights import Partition


def test_standard_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 4), (5, 6, 7)))  # not a partition shape
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        StandardTableau(((1, 2), ()))
    with pytest.raises(ValueError, match="nonempty"):
        syt_from_string("")
    assert StandardTableau(()).n == 0


@pytest.mark.parametrize("text, part", [("1 2/3", "1 2"), ("12/3x", "3x"), ("1_2/3", "1_2"), ("12/-3", "-3"),
                                        ("12/\u0663", "\u0663")])
def test_a_tableau_string_names_the_part_that_is_not_digits(text, part):
    with pytest.raises(ValueError) as info:
        syt_from_string(text)
    assert str(info.value) == f"tableau {text!r}: part {part!r} is not a row of digits"


def test_semistandard_tableau_refuses_entries_below_one_and_empty_rows():
    for rows in (((0,),), ((-1,),), ((0, 1), (2,)), ((1,), ()), ((), ())):
        with pytest.raises(ValueError, match="nonempty, with entries >= 1"):
            SemistandardTableau(rows)
    assert SemistandardTableau(()).rows == ()
    assert SemistandardTableau(((1, 1), (2,))).rows == ((1, 1), (2,))


def tableau_fault(rows, strict):
    """Reference: the first fault of a filling, read off its cells (i, j) in
    the constructors' order, or None for a tableau."""
    cells = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    if not all(rows) or any(cells[i, 0] < 1 for i in range(len(rows))):
        return "rows must be nonempty, with entries >= 1"
    if any(v >= cells[i, j + 1] if strict else v > cells[i, j + 1] for (i, j), v in cells.items() if (i, j + 1) in cells):
        return "rows must increase" if strict else "rows must weakly increase"
    for i in range(1, len(rows)):
        if len(rows[i]) > len(rows[i - 1]):
            return "shape must be a partition"
        if any(cells[i - 1, j] >= cells[i, j] for j in range(len(rows[i]))):
            return "columns must strictly increase"
    if strict and sorted(cells.values()) != list(range(1, len(cells) + 1)):
        return f"entries must be 1..{len(cells)} exactly once"
    return None


def compositions(n):
    """Every sequence of positive row lengths with sum n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_tableau_checks_match_the_cell_definition():
    """Every filling, with entries 0..4, of every sequence of row lengths with
    at most 4 boxes: each constructor accepts exactly the tableaux and
    reports the first fault of the reference."""
    for n in range(5):
        for lengths in compositions(n):
            for entries in product(range(5), repeat=n):
                it = iter(entries)
                rows = tuple(tuple(next(it) for _ in range(m)) for m in lengths)
                for cls, strict in ((StandardTableau, True), (SemistandardTableau, False)):
                    try:
                        cls(rows)
                        got = None
                    except ValueError as exc:
                        got = str(exc)
                    assert got == tableau_fault(rows, strict), (cls.__name__, rows)


def brute_strip(inner, outer, kind):
    """Reference: outer/inner as cell sets; a strip has its added cells in
    distinct columns (horizontal) or distinct rows (vertical)."""
    cells_in = {(i, j) for i, part in enumerate(inner) for j in range(part)}
    cells_out = {(i, j) for i, part in enumerate(outer) for j in range(part)}
    if not cells_in <= cells_out:
        return False
    added = [c[1] if kind == "horizontal" else c[0] for c in cells_out - cells_in]
    return len(added) == len(set(added))


def test_strip_checks():
    assert strip_check((3,), (4, 1), "horizontal")
    assert strip_check((1, 1, 1), (2, 1, 1, 1), "vertical")
    assert not strip_check((1,), (3, 1), "vertical")
    assert not strip_check((1,), (2, 2), "horizontal")
    for p in ((3, 1), (), (2, 2, 2)):
        assert strip_check(p, p, "horizontal")
        assert strip_check(p, p, "vertical")
    # containment failures, also where the inner partition is the longer one
    assert not strip_check((2,), (1,), "horizontal")
    assert not strip_check((1, 1), (1,), "vertical")
    assert strip_check((2, 0, 0), (3, 1), "horizontal")  # trailing zeros are allowed
    with pytest.raises(ValueError, match="kind"):
        strip_check((), (1,), "diagonal")


def test_strip_check_column_gains_two():
    # adding two boxes in one column is never a horizontal strip
    assert not strip_check((1,), (1, 1, 1), "horizontal")
    assert strip_check((1,), (1, 1, 1), "vertical")


def test_strip_check_matches_the_cell_definition():
    shapes = [p for n in range(7) for p in partitions_of(n)]
    for inner in shapes:
        for outer in shapes:
            for kind in ("horizontal", "vertical"):
                expected = brute_strip(inner, outer, kind)
                assert strip_check(inner, outer, kind) == expected, (inner, outer, kind)
                assert strip_check(inner + (0,), outer + (0, 0), kind) == expected


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate((2, 1, 0, 0)) == (2, 1)
    assert conjugate((0,)) == ()


def test_conjugate_involution_brute():
    rng = random.Random(0)
    for _ in range(100):
        parts = tuple(sorted((rng.randint(0, 6) for _ in range(rng.randint(0, 5))), reverse=True))
        p = tuple(x for x in parts if x)
        assert conjugate(conjugate(parts)) == p
        # transpose computed directly from the cell set
        cells = {(i, j) for i, part in enumerate(parts) for j in range(part)}
        transposed = {(j, i) for i, j in cells}
        q = conjugate(parts)
        assert {(i, j) for i, part in enumerate(q) for j in range(part)} == transposed


def test_enumerate_syt_counts():
    assert len(enumerate_syt((3, 3))) == 5
    assert len(enumerate_syt((2, 2, 1))) == 5
    assert len(enumerate_syt((4,))) == 1
    # the hook-length count against the enumeration, on every shape up to 8 boxes
    for n in range(9):
        for shape in partitions_of(n):
            assert count_syt(shape) == len(enumerate_syt(shape))
    assert count_syt((3, 0)) == 1
    with pytest.raises(ValueError, match="not weakly decreasing"):
        count_syt((2, 0, 1))
    assert count_syt((10, 10, 10)) == 7_646_001_090


def recursive_syt(shape):
    """Reference: remove the corner holding n, in each row from the top,
    and recurse on the smaller shape."""
    n = sum(shape)
    if n == 0:
        return [()]
    out = []
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            smaller = tuple(p for p in shape[:i] + (shape[i] - 1,) + shape[i + 1:] if p)
            for rows in recursive_syt(smaller):
                rows = list(rows) + [()] * (i + 1 - len(rows))
                rows[i] += (n,)
                out.append(tuple(rows))
    return out


def test_enumerate_syt_matches_the_recursive_enumeration_in_order():
    for n in range(9):
        for shape in partitions_of(n):
            got = enumerate_syt(shape)
            assert [t.rows for t in got] == recursive_syt(shape)
            assert got == tuple(StandardTableau(t.rows) for t in got)  # each one passes the checks
    assert enumerate_syt((2, 1, 0)) == enumerate_syt((2, 1))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        enumerate_syt((2, 0, 1))


def test_enumerate_syt_of_a_long_row_does_not_recurse():
    (t,) = enumerate_syt((3000,))
    assert t.rows == (tuple(range(1, 3001)),)


def test_standard_oracles_build_standard_tableaux():
    """The oracles build their outputs unchecked; each passes the checks."""
    for n in range(1, 8):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                outs = [evacuation_oracle(t), promotion_oracle(t)] + [dual_knuth(t, i) for i in range(1, n - 1)]
                for out in outs:
                    assert StandardTableau(out.rows) == out
                    assert out.shape() == t.shape()


def test_evacuation_examples():
    assert str(evacuation_oracle(syt_from_string("134/256"))) == "125/346"
    assert str(evacuation_oracle(syt_from_string("123"))) == "123"
    assert str(evacuation_oracle(syt_from_string("12/3"))) == "13/2"


def test_evacuation_involution():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                assert evacuation_oracle(evacuation_oracle(t)) == t


def test_promotion_examples():
    assert str(promotion_oracle(syt_from_string("12/34"))) == "13/24"
    assert str(promotion_oracle(syt_from_string("1/2/3"))) == "1/2/3"
    # delete 1, slide (2 left, 3 left, 6 up), decrement, refill the corner
    assert str(promotion_oracle(syt_from_string("123/456"))) == "125/346"


def test_promotion_order_divides():
    # promotion on rectangular 2-row shapes has order dividing n
    for t in enumerate_syt((3, 3)):
        cur = t
        for _ in range(6):
            cur = promotion_oracle(cur)
        assert cur == t


def test_dual_knuth_fig_cat():
    a = syt_from_string("123/456")
    b = syt_from_string("124/356")
    assert dual_knuth(a, 2) == b
    assert dual_knuth(b, 2) == a
    d = syt_from_string("135/246")
    e = syt_from_string("125/346")
    assert dual_knuth(d, 2) == e
    c = syt_from_string("134/256")
    assert dual_knuth(c, 2) == c


def test_dual_knuth_involution():
    for n in range(3, 8):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                for i in range(1, n - 1):
                    assert dual_knuth(dual_knuth(t, i), i) == t


def test_dual_knuth_12_34():
    t = syt_from_string("12/34")
    assert str(dual_knuth(t, 1)) == "13/24"
    assert str(dual_knuth(t, 2)) == "13/24"


def recursive_ssyt(shape, max_entry):
    """Reference: the depth-first generator over the cells in row-major
    order, each cell trying every value its neighbours allow, smallest first."""
    shape = tuple(s for s in shape if s)
    rows = [[0] * s for s in shape]
    cells = [(i, j) for i, s in enumerate(shape) for j in range(s)]

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            rows[i][j] = v
            yield from rec(k + 1)
        rows[i][j] = 0

    return list(rec(0))


def shapes_inside(bound):
    return [sh for n in range(sum(bound) + 1) for sh in partitions_of(n)
            if len(sh) <= len(bound) and all(a <= b for a, b in zip(sh, bound))]


def test_enumerate_ssyt_matches_the_recursive_generator_in_order():
    total = 0
    for shape in shapes_inside((4, 3, 2, 1)):
        got = enumerate_ssyt(shape, 5)
        assert [t.rows for t in got] == recursive_ssyt(shape, 5)
        assert got == tuple(SemistandardTableau(t.rows) for t in got)  # each one passes the checks
        total += len(got)
    assert total == 10879
    assert enumerate_ssyt((2, 1, 0), 3) == enumerate_ssyt((2, 1), 3)
    assert [t.rows for t in enumerate_ssyt((), 3)] == [()]
    assert enumerate_ssyt((2, 2), 1) == ()
    with pytest.raises(ValueError, match="not weakly decreasing"):
        enumerate_ssyt((1, 2), 3)


def reference_bender_knuth(rows, i):
    """Reference: mark each i with no i+1 below it and each i+1 with no i
    above it free, and refill each row's free cells with its counts swapped."""
    def entry(r, c):
        return rows[r][c] if 0 <= r < len(rows) and c < len(rows[r]) else None

    out = []
    for r, row in enumerate(rows):
        free = [c for c, v in enumerate(row)
                if (v == i and entry(r + 1, c) != i + 1) or (v == i + 1 and entry(r - 1, c) != i)]
        a = sum(1 for c in free if row[c] == i)
        new = list(row)
        for idx, c in enumerate(free):
            new[c] = i if idx < len(free) - a else i + 1
        out.append(tuple(new))
    return tuple(out)


def test_tuple_oracles_match_their_references_on_semistandard_tableaux():
    for shape in shapes_inside((3, 2, 2)):
        for t in enumerate_ssyt(shape, 5):
            corners = conjugates(gt_levels(t.rows, 5), 5)
            assert [Partition(c) for c in corners] == dual_sequence(t, 5)
            assert rows_from_dual_corners(corners) == t.rows
            for i in range(1, 5):
                toggled = bender_knuth(t, i)
                assert toggled.rows == bender_knuth_rows(t.rows, i) == reference_bender_knuth(t.rows, i)
                assert SemistandardTableau(toggled.rows) == toggled


def test_bender_knuth_worked_example():
    t = SemistandardTableau(((1, 1, 1, 2), (2, 3), (4,)))
    assert bender_knuth(t, 2) == SemistandardTableau(((1, 1, 1, 3), (2, 3), (4,)))


def test_bender_knuth_involution_and_commutation():
    shapes = [(2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for shape in shapes:
        for t in enumerate_ssyt(shape, 4):
            for i in range(1, 4):
                assert bender_knuth(bender_knuth(t, i), i) == t
            assert bender_knuth(bender_knuth(t, 1), 3) == bender_knuth(bender_knuth(t, 3), 1)


def test_bender_knuth_swaps_multiplicities():
    for t in enumerate_ssyt((3, 2), 4):
        for i in range(1, 4):
            before = t.weight_vector(4)
            after = bender_knuth(t, i).weight_vector(4)
            expected = list(before)
            expected[i - 1], expected[i] = expected[i], expected[i - 1]
            assert list(after) == expected


def test_gt_pattern_worked_example():
    t = SemistandardTableau(((1, 1, 1, 2), (2, 3), (4,)))
    seq = gt_pattern(t, 5)
    assert [p.parts for p in seq] == [(), (3,), (4, 1), (4, 2), (4, 2, 1), (4, 2, 1)]
    dual = dual_sequence(t, 5)
    assert [p.parts for p in dual] == [
        (), (1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (3, 2, 1, 1),
    ]


def test_gt_round_trip():
    for shape in ((3, 1), (2, 2), (4, 2, 1)):
        for t in enumerate_ssyt(shape, 4):
            assert tableau_from_gt(gt_pattern(t, 4)) == t
            assert tableau_from_dual_sequence(dual_sequence(t, 4)) == t


def test_strip_violation_guard():
    with pytest.raises(StripViolation):
        tableau_from_gt([Partition(()), Partition((1, 1))])
    with pytest.raises(StripViolation):
        tableau_from_dual_sequence([Partition(()), Partition((2,))])
    with pytest.raises(StripViolation):  # a step that loses a box
        tableau_from_dual_sequence([Partition(()), Partition((1, 1)), Partition((1,))])
    with pytest.raises(StripViolation, match="step 1"):
        rows_from_dual_corners([(0, 0), (1, 0), (3, 0)])
    for make in (tableau_from_gt, tableau_from_dual_sequence):
        with pytest.raises(ValueError, match="empty partition"):
            make([Partition((1,)), Partition((2,))])
        with pytest.raises(ValueError, match="empty partition"):
            make([])


def test_matchings_catalan():
    assert len(all_matchings(2)) == 1
    assert len(all_matchings(4)) == 2
    assert len(all_matchings(6)) == 5
    assert len(all_matchings(8)) == 14


def test_matching_noncrossing_enforced():
    with pytest.raises(ValueError):
        Matching(4, [(1, 3), (2, 4)])


def test_matching_action_full_reversal():
    m = Matching(6, [(1, 2), (3, 4), (5, 6)])
    assert matching_action(6, m).pairs == ((1, 2), (3, 4), (5, 6))
    nested = Matching(6, [(1, 6), (2, 5), (3, 4)])
    assert matching_action(6, nested) == nested


def test_matching_action_preserves_noncrossing():
    for r in (2, 4, 6, 8):
        for m in all_matchings(r):
            for p in range(2, r + 1):
                out = matching_action(p, m)  # constructor would raise on a crossing
                assert len(out.pairs) == r // 2


def test_matching_bijection_round_trip():
    (empty,) = all_matchings(0)
    assert matching_to_syt(empty).rows == ()
    assert matching_from_syt(matching_to_syt(empty)) == empty
    for m in all_matchings(8):
        assert matching_from_syt(matching_to_syt(m)) == m
    for t in enumerate_syt((4, 4)):
        assert matching_to_syt(matching_from_syt(t)) == t


def test_promotion_order_on_rectangles():
    # on a rectangular shape of n boxes, promotion has order dividing n
    for shape in ((2, 2), (2, 2, 2), (4, 4)):
        n = sum(shape)
        for t in enumerate_syt(shape):
            cur = t
            for _ in range(n):
                cur = promotion_oracle(cur)
            assert cur == t


def test_evacuation_conjugates_promotion():
    # evacuation o promotion o evacuation = inverse promotion
    for n in range(2, 8):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                lhs = evacuation_oracle(promotion_oracle(evacuation_oracle(t)))
                assert promotion_oracle(lhs) == t


def test_matching_prefix_action_matches_evacuation_r8():
    from cactusgrowth.growth import prefix_reversal
    from cactusgrowth.words import syt_to_word, word_to_syt

    for r in (4, 8):
        for m in all_matchings(r):
            t = matching_to_syt(m)
            w = syt_to_word(t.rows, rank=2)
            for p in range(2, r + 1):
                got = matching_to_syt(matching_action(p, m)).rows
                assert got == word_to_syt(prefix_reversal(w, p))


def test_matching_action_matches_tableau_action():
    from cactusgrowth.cactus import CactusWord, CactusGen, reduce_to_s1q
    from cactusgrowth.growth import act
    from cactusgrowth.words import syt_to_word, word_to_syt

    for t in enumerate_syt((3, 3)):
        w = syt_to_word(t.rows, rank=2)
        for p in range(1, 7):
            for q in range(p + 1, 7):
                out = word_to_syt(act(CactusWord(6, (CactusGen(p, q),)), w))
                m = matching_from_syt(t)
                for g in reversed(reduce_to_s1q(CactusGen(p, q), 6).gens):
                    m = matching_action(g.q, m)
                assert matching_to_syt(m).rows == out
