"""Words whose tensor factors are different exterior powers (and Sp checks).

The local move swaps the factor descriptors it passes, so promotion rotates
them and a full prefix reversal reverses them; these tests pin that
bookkeeping on exhaustive mixed families.
"""
from cactusgrowth.cactus import CactusGen, CactusWord, admissible_pairs
from cactusgrowth.growth import act, build_cylinder, evacuation, promotion, promotion_inverse, wall_cross
from cactusgrowth.weights import CartanContext
from cactusgrowth.windows import validate_window
from cactusgrowth.words import VECTOR, enumerate_hw_words, exterior, tau

GL3 = CartanContext("GL", 3)
SP4 = CartanContext("Sp", 2)

MIXED = (VECTOR, exterior(2), VECTOR, exterior(2))


def test_mixed_enumeration_nonempty():
    family = enumerate_hw_words(GL3, MIXED)
    assert family
    for w in family:
        assert w.steps == MIXED


def test_tau_swaps_mixed_descriptors():
    for w in enumerate_hw_words(GL3, MIXED):
        for i in range(1, 4):
            moved = tau(w, i)
            assert moved.steps[i - 1] == w.steps[i]
            assert moved.steps[i] == w.steps[i - 1]
            assert tau(moved, i) == w


def test_evacuation_reverses_mixed_descriptors():
    for w in enumerate_hw_words(GL3, MIXED):
        ev = evacuation(w)
        assert ev.steps == tuple(reversed(MIXED))
        assert evacuation(ev) == w


def test_promotion_rotates_mixed_descriptors():
    for w in enumerate_hw_words(GL3, MIXED):
        pr = promotion(w)
        assert pr.steps == MIXED[1:] + MIXED[:1]
        assert promotion_inverse(pr) == w


def test_cactus_relations_on_mixed_words():
    family = enumerate_hw_words(GL3, MIXED)
    r = 4
    for kind, params in admissible_pairs(r):
        for w in family:
            if kind == "involution":
                p, q = params
                assert act(CactusWord(r, (CactusGen(p, q), CactusGen(p, q))), w) == w
            elif kind == "disjoint":
                p, q, k, l = params
                a = act(CactusWord(r, (CactusGen(p, q), CactusGen(k, l))), w)
                b = act(CactusWord(r, (CactusGen(k, l), CactusGen(p, q))), w)
                assert a == b
            else:
                p, q, k, l = params
                a = act(CactusWord(r, (CactusGen(p, q), CactusGen(k, l))), w)
                b = act(CactusWord(r, (CactusGen(p + q - l, p + q - k), CactusGen(p, q))), w)
                assert a == b


def test_wall_cross_on_mixed_words():
    for w in enumerate_hw_words(GL3, MIXED):
        win = build_cylinder(w, 3)
        assert validate_window(win)
        for p in range(1, 5):
            for q in range(p + 1, 5):
                crossed = wall_cross(CactusGen(p, q), win)
                assert crossed.row_word(0) == act(CactusWord(4, (CactusGen(p, q),)), w)


def test_wall_cross_sp_exhaustive_r4():
    for w in enumerate_hw_words(SP4, (VECTOR,) * 4):
        win = build_cylinder(w, 3)
        for p in range(1, 5):
            for q in range(p + 1, 5):
                crossed = wall_cross(CactusGen(p, q), win)
                assert crossed.row_word(0) == act(CactusWord(4, (CactusGen(p, q),)), w)
                assert validate_window(crossed)
