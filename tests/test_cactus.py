import pytest

from cactusgrowth.cactus import (
    CactusGen,
    CactusWord,
    TauGen,
    admissible_pairs,
    gen_perm,
    parse_cactus_word,
    perm_image,
    q_element,
    reduce_to_s1q,
    s_to_tau,
    word,
)
from cactusgrowth.suites import BadParams, relation_check, relation_words, tau_relators, tau_to_s


def test_gen_perm_formula():
    assert gen_perm(CactusGen(1, 3), 3) == (3, 2, 1)
    assert gen_perm(CactusGen(2, 4), 5) == (1, 4, 3, 2, 5)


def test_perm_image_examples():
    assert perm_image(word(3, (1, 3))) == (3, 2, 1)
    # s(1,3) s(1,2) s(1,3) composes to the transposition (2 3)
    assert perm_image(word(3, (1, 3), (1, 2), (1, 3))) == (1, 3, 2)
    assert perm_image(CactusWord(4, ())) == (1, 2, 3, 4)


def test_perm_image_composition_order():
    # rightmost acts first: s(1,2) then s(2,3) sends 1 -> 2 -> 3
    w = word(3, (2, 3), (1, 2))
    img = perm_image(w)
    assert img[0] == 3


def test_reduce_to_s1q():
    assert reduce_to_s1q(CactusGen(1, 5), 6).gens == (CactusGen(1, 5),)
    assert reduce_to_s1q(CactusGen(2, 3), 3).gens == (CactusGen(1, 3), CactusGen(1, 2), CactusGen(1, 3))
    assert reduce_to_s1q(CactusGen(2, 4), 6).gens == (CactusGen(1, 4), CactusGen(1, 3), CactusGen(1, 4))


def test_reduce_to_s1q_permutation_sound():
    for r in range(2, 8):
        for p in range(1, r + 1):
            for q in range(p + 1, r + 1):
                g = CactusGen(p, q)
                assert perm_image(reduce_to_s1q(g, r)) == perm_image(CactusWord(r, (g,)))


def _perm_action(w, x):
    img = perm_image(w)
    return tuple(x[img[i] - 1] for i in range(len(x)))


def test_relation_check_involution():
    assert relation_check("involution", (1, 4), 5, _perm_action, (1, 2, 3, 4, 5))


def test_relation_check_disjoint():
    assert relation_check("disjoint", (1, 2, 4, 5), 5, _perm_action, (1, 2, 3, 4, 5))
    with pytest.raises(BadParams):
        relation_check("disjoint", (1, 3, 2, 5), 5, _perm_action, (1, 2, 3, 4, 5))


def test_relation_check_nested():
    assert relation_check("nested", (1, 6, 2, 3), 6, _perm_action, tuple(range(1, 7)))
    with pytest.raises(BadParams):
        relation_check("nested", (2, 4, 1, 3), 6, _perm_action, tuple(range(1, 7)))


def test_relation_words():
    assert relation_words("nested", (1, 6, 2, 3), 6) == (word(6, (1, 6), (2, 3)), word(6, (4, 5), (1, 6)))
    assert relation_words("disjoint", (1, 2, 4, 5), 5) == (word(5, (1, 2), (4, 5)), word(5, (4, 5), (1, 2)))
    assert relation_words("involution", (2, 4), 5) == (word(5, (2, 4), (2, 4)), word(5))
    with pytest.raises(BadParams):
        relation_words("braid", (1, 2), 5)


def test_tau_relators_are_the_third_tau_relation():
    # the (i, j, k) triples and tau words the suites used to build by hand
    r = 5
    triples = [(i, j, k) for i in range(1, r) for j in range(i + 2, r) for k in range(j + 1, r + 1)]
    assert [t for t, _ in tau_relators(r)] == triples == [(1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 4, 5)]
    for (i, j, k), seq in tau_relators(r):
        assert seq == q_element(k - 1) + q_element(k - j) + q_element(k - 1) + (i,)
    assert tau_relators(3) == []


def test_perm_image_respects_all_relations():
    for r in range(2, 8):
        x = tuple(range(1, r + 1))
        for kind, params in admissible_pairs(r):
            assert relation_check(kind, params, r, _perm_action, x), (kind, params, r)


def test_tau_to_s_small():
    assert tau_to_s(TauGen(1), 4).gens == (CactusGen(1, 2),)
    assert tau_to_s(TauGen(2), 4).gens == (CactusGen(1, 2), CactusGen(1, 3), CactusGen(1, 2))
    assert tau_to_s(TauGen(3), 4).gens == (
        CactusGen(1, 3), CactusGen(1, 4), CactusGen(1, 3), CactusGen(1, 2),
    )


def test_tau_to_s_permutations():
    for r in range(2, 7):
        for i in range(1, r):
            img = perm_image(tau_to_s(TauGen(i), r))
            expected = list(range(1, r + 1))
            expected[i - 1], expected[i] = expected[i], expected[i - 1]
            assert img == tuple(expected)


def test_q_element():
    assert q_element(0) == ()
    assert q_element(1) == (1,)
    assert q_element(2) == (1, 2, 1)
    assert q_element(3) == (1, 2, 1, 3, 2, 1)


def test_s_to_tau_round_trip_on_permutations():
    # expanding s(p,q) into taus and re-expanding each tau into s(1,*)
    # words lands on the same permutation, for all generators with r <= 6
    for r in range(2, 7):
        for p in range(1, r + 1):
            for q in range(p + 1, r + 1):
                g = CactusGen(p, q)
                perm = tuple(range(1, r + 1))
                for i in reversed(s_to_tau(g)):
                    perm = _perm_action(tau_to_s(TauGen(i), r), perm)
                assert perm == _perm_action(CactusWord(r, (g,)), tuple(range(1, r + 1)))


def test_parse_and_render():
    w = parse_cactus_word("s(1,4) s(2,3)", 4)
    assert w.gens == (CactusGen(1, 4), CactusGen(2, 3))
    assert str(w) == "s(1,4) s(2,3)"
    assert parse_cactus_word("", 4).gens == ()
    with pytest.raises(ValueError):
        parse_cactus_word("s(1,4) junk", 4)
    with pytest.raises(ValueError):
        parse_cactus_word("s(3,2)", 4)
    with pytest.raises(ValueError):
        parse_cactus_word("s(1,9)", 4)


def test_gen_bounds():
    with pytest.raises(ValueError):
        CactusGen(3, 3)
    with pytest.raises(ValueError):
        CactusWord(3, (CactusGen(1, 4),))
