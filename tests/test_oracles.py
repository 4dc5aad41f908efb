import pytest

from cactusgrowth.oracles import (
    Matching,
    SemistandardTableau,
    StandardTableau,
    StripViolation,
    all_matchings,
    bender_knuth,
    count_syt,
    dual_knuth,
    dual_sequence,
    enumerate_ssyt,
    enumerate_syt,
    evacuation_oracle,
    gt_pattern,
    matching_action,
    matching_from_syt,
    matching_to_syt,
    partitions_of,
    promotion_oracle,
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


def test_enumerate_syt_of_a_long_row_does_not_recurse():
    (t,) = enumerate_syt((3000,))
    assert t.rows == (tuple(range(1, 3001)),)


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
