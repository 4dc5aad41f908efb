import json
from itertools import product

import pytest

from cactusgrowth.weights import CartanContext, Weight, dom_w, is_dominant, local_rule
from cactusgrowth.words import (
    HighestWeightWord,
    InvalidStep,
    SL2_STEP,
    VECTOR,
    complete_cell,
    cell_is_valid,
    commutor_prefix,
    enumerate_hw_words,
    exterior,
    infer_step_kind,
    parse_step_kind,
    step_is_valid,
    step_table,
    syt_to_word,
    tau,
    word_from_corners,
    json_text,
    word_from_json,
    word_to_syt,
)

GL2 = CartanContext("GL", 2)
GL4 = CartanContext("GL", 4)
SP4 = CartanContext("Sp", 2)
SL2 = CartanContext("SL2", 1)


def w(ctx, *corners):
    return word_from_corners(ctx, corners)


# the families and ranks of the boundary tests; corners have coordinates in -1..2
BOUNDARY_CONTEXTS = [CartanContext("GL", n) for n in range(1, 4)] + [SP4, SL2]
BOX = range(-1, 3)


def family_kinds(ctx):
    return {"GL": [VECTOR] + [exterior(k) for k in range(ctx.rank + 1)],
            "Sp": [VECTOR], "SL2": [SL2_STEP, VECTOR]}[ctx.family]


def test_word_validation():
    ok = w(GL2, (0, 0), (1, 0), (2, 0), (2, 1))
    assert ok.r == 3
    with pytest.raises(InvalidStep):
        w(GL2, (1, 0), (2, 0))  # must start at zero
    with pytest.raises(InvalidStep):
        w(GL2, (0, 0), (1, 0), (1, -1))  # corners must stay dominant
    with pytest.raises(InvalidStep):
        w(GL2, (0, 0), (2, 0))  # not a single-box step for the inferred kind


@pytest.mark.parametrize(
    "ctx", [CartanContext("GL", n) for n in range(1, 5)] + [SP4, CartanContext("Sp", 3), SL2], ids=str
)
def test_closed_forms_match_orbit_and_weight_arithmetic(ctx):
    """step_is_valid's dom_W test against Weyl-orbit membership, and
    local_rule against Weight arithmetic, over every start and difference
    in a box."""
    kinds = family_kinds(ctx)
    starts = list(product(range(-1, 3), repeat=ctx.rank))
    diffs = list(product(range(-1, 2), repeat=ctx.rank))
    orbits = {kind: kind.orbit(ctx) for kind in kinds}
    for s, d in product(starts, diffs):
        start, end = Weight(ctx, s), Weight(ctx, tuple(a + b for a, b in zip(s, d)))
        dominant = is_dominant(start) and is_dominant(end)
        for kind, orbit in orbits.items():
            assert step_is_valid(ctx, kind, start.coords, end.coords) == (dominant and d in orbit), (s, d, kind)
        # the cell kappa = s, lam = s + d, nu = s - d
        nu = Weight(ctx, tuple(a - b for a, b in zip(s, d)))
        assert local_rule(ctx.family, start.coords, end.coords, nu.coords) == dom_w(start + nu - end).coords


def test_infer_step_kind():
    assert infer_step_kind(GL4, (1, 1, 1, 0), (2, 1, 1, 1)) == exterior(2)
    assert infer_step_kind(GL2, (1, 0), (2, 0)) == VECTOR
    assert infer_step_kind(SP4, (1, 1), (1, 0)) == VECTOR
    with pytest.raises(InvalidStep):
        infer_step_kind(SP4, (1, 0), (2, 1))


@pytest.mark.parametrize("ctx", BOUNDARY_CONTEXTS + [CartanContext("GL", 4), CartanContext("Sp", 3)], ids=str)
def test_inference_is_the_step_check(ctx):
    """The lemma the word reader rests on: between dominant corners, a kind
    of the family makes a valid step exactly when inference, and the step
    table, give a kind of the same fundamental weight; from a dominant
    corner, the table calls a step into any corner minuscule into a
    dominant one exactly when some kind makes it a valid step."""
    corners = [c for c in product(BOX, repeat=ctx.rank) if is_dominant(Weight(ctx, c))]
    for a, b in product(corners, repeat=2):
        try:
            inferred = infer_step_kind(ctx, a, b).fundamental_weight(ctx)
        except InvalidStep:
            inferred = None
        tabled, _ = step_table(ctx.family, a, b)
        tabled = tabled and tabled.fundamental_weight(ctx)
        for kind in family_kinds(ctx):
            valid = step_is_valid(ctx, kind, a, b)
            assert valid == (inferred == kind.fundamental_weight(ctx)) == (tabled == kind.fundamental_weight(ctx)), (
                a, b, kind)
    for a, b in product(corners, product(BOX, repeat=ctx.rank)):
        valid = any(step_is_valid(ctx, kind, a, b) for kind in family_kinds(ctx))
        assert step_table(ctx.family, a, b)[1] == valid, (a, b)


def test_the_step_table_is_keyed_by_family():
    """(1,) -> (0,) is an Sp(2) vector step and no GL(1) step: a table that
    kept the Sp entry for the GL read would accept the GL word."""
    corners = [[0], [1], [0]]
    assert word_from_corners(CartanContext("Sp", 1), corners).steps == (VECTOR, VECTOR)
    with pytest.raises(InvalidStep, match=r"^\[1\] -> \[0\] is not a GL exterior-power step$"):
        word_from_corners(CartanContext("GL", 1), corners)


def outcome(build):
    try:
        return build()
    except ValueError as exc:  # InvalidStep is a ValueError
        return type(exc), str(exc)


def checked_word(ctx, corners):
    """The word through the public constructor, with the kinds inferred first."""
    tuples = tuple(map(tuple, corners))
    return outcome(lambda: HighestWeightWord(
        ctx, tuple(infer_step_kind(ctx, a, b) for a, b in zip(tuples, tuples[1:])), tuples))


def corner_lists(ctx, start, r):
    """Every list of at most r + 1 box corners from start, except that a list
    is not extended past a step that inference refuses: its outcome, that
    refusal, is the same on every extension."""
    box = list(product(BOX, repeat=ctx.rank))
    lists = [(start,)]
    while lists:
        corners = lists.pop()
        yield corners
        if len(corners) <= r and (len(corners) == 1 or inferable(ctx, *corners[-2:])):
            lists.extend(corners + (c,) for c in box)


def inferable(ctx, a, b):
    try:
        infer_step_kind(ctx, a, b)
    except InvalidStep:
        return False
    return True


@pytest.mark.parametrize("ctx", BOUNDARY_CONTEXTS, ids=str)
def test_one_pass_word_check_matches_the_checked_constructor(ctx):
    """word_from_corners and word_from_json give the word, or the error, of
    HighestWeightWord on the inferred kinds; a corner of the wrong length is
    refused for its length before any step is looked at."""
    zero = (0,) * ctx.rank
    cases = [()] + list(corner_lists(ctx, zero, 4))
    for start in product(BOX, repeat=ctx.rank):
        if start != zero:
            cases += corner_lists(ctx, start, 1)
    short_and_long = [c for n in (ctx.rank - 1, ctx.rank + 1) for c in product(BOX, repeat=n)]
    step = (1,) + (0,) * (ctx.rank - 1)
    wrong_length = {lst for c in short_and_long for lst in ((c,), (zero, c), (zero, step, c), (c, zero))}
    context = {"family": ctx.family, "rank": ctx.rank}
    for corners in cases + sorted(wrong_length):
        got = outcome(lambda: word_from_corners(ctx, corners))
        assert outcome(lambda: word_from_json({"context": context, "corners": [list(c) for c in corners]})) == got
        if corners in wrong_length:
            assert got == (ValueError, f"corners {corners} do not match rank {ctx.rank}")
            checked = checked_word(ctx, corners)
            assert checked == got or checked[0] is InvalidStep, corners
        else:
            assert got == checked_word(ctx, corners), corners


TYPES = "the corners must be a list of corners, each a list of ints"


@pytest.mark.parametrize("payload, error", [
    ({"context": {"family": "XX", "rank": 2}, "corners": [[0, 0], [1.5, 0]]}, TYPES),
    ({"context": {"family": "XX", "rank": 2}, "corners": [[0, 0], [1, 0]]}, "unknown family 'XX'"),
    ({"context": {"family": "GL", "rank": 0}, "corners": [[0, 0], [1, 0]]}, "rank must be >= 1"),
    ({"context": {"family": "SL2", "rank": 2}, "corners": [[0, 0], [1, 0]]}, "SL2 has rank 1"),
    ({"context": {"family": "GL", "rank": 2}, "corners": []}, "0 steps need 1 corners, got 0"),
    ({"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [2, 0], [1], [True, 0]]}, TYPES),
    ({"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [2, 0], [1]]},
     "corners ((0, 0), (2, 0), (1,)) do not match rank 2"),
    ({"context": {"family": "GL", "rank": 2}, "corners": [[1, 0], [3, 0], [2, -1]]},
     "[1,0] -> [3,0] is not a GL exterior-power step"),
    ({"context": {"family": "GL", "rank": 2}, "corners": [[1, 0], [1, 1], [1, 2]]},
     "a highest weight word starts at the zero weight"),
    ({"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [0, 1], [1, 1], [1, 2]]},
     "corner 0: [0,0] -> [0,1] is not a valid vector step"),
    ({"context": {"family": "Sp", "rank": 2}, "corners": [[0, 0], [1, 0], [1, -1]]},
     "corner 1: [1,0] -> [1,-1] is not a valid vector step"),
])
def test_word_json_reports_the_first_error_in_order(payload, error):
    """Types, then the context's values, then the corner count, the lengths,
    the steps, the zero start and dominance: with several faults in one
    payload, the one-pass reader reports the first of them."""
    assert outcome(lambda: word_from_json(payload))[1] == error


def test_step_kind_text_round_trip():
    for kind in (VECTOR, SL2_STEP) + tuple(exterior(k) for k in range(5)):
        assert parse_step_kind(str(kind)) == kind


@pytest.mark.parametrize("text", ["exterior:x", "exterior()", "exterior:", "exterior(2.0)", "exterior(2", "vec"])
def test_a_step_descriptor_that_does_not_parse_is_named(text):
    with pytest.raises(ValueError) as info:
        parse_step_kind(text)
    assert str(info.value) == f"unknown step descriptor {text!r}"


def test_complete_cell_gl2():
    mu = complete_cell(Weight(GL2, (1, 0)), Weight(GL2, (2, 0)), Weight(GL2, (2, 1)))
    assert mu.coords == (1, 1)


def test_complete_cell_exterior_steps():
    kappa = Weight(GL4, (1, 1, 1, 0))
    lam = Weight(GL4, (2, 1, 1, 1))
    nu = Weight(GL4, (2, 2, 1, 1))
    assert complete_cell(kappa, lam, nu).coords == (2, 1, 1, 0)


def test_complete_cell_degenerate():
    kappa = Weight(GL4, (1, 1, 0, 0))
    assert complete_cell(kappa, kappa, kappa) == kappa


def test_cell_symmetry_exhaustive():
    # re-completing with the computed corner recovers the original one
    for word in enumerate_hw_words(GL2, (VECTOR,) * 3):
        kappa, lam, nu = (Weight(GL2, c) for c in word.corners[:3])
        mu = complete_cell(kappa, lam, nu)
        assert complete_cell(kappa, mu, nu) == lam
        assert cell_is_valid(GL2, kappa.coords, lam.coords, nu.coords, mu.coords)


def test_tau_basic():
    word = w(GL2, (0, 0), (1, 0), (2, 0), (2, 1))
    assert tau(word, 2).corners == ((0, 0), (1, 0), (1, 1), (2, 1))


def test_tau_bounds():
    word = w(GL2, (0, 0), (1, 0), (2, 0))
    with pytest.raises(ValueError):
        tau(word, 2)


def test_tau_bk_sequence():
    ctx = GL4
    seq = [(0, 0, 0, 0), (1, 1, 1, 0), (2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (3, 2, 1, 1)]
    word = word_from_corners(ctx, seq)
    moved = tau(word, 2)
    assert moved.corners == (
        (0, 0, 0, 0), (1, 1, 1, 0), (2, 1, 1, 0), (2, 2, 1, 1), (3, 2, 1, 1), (3, 2, 1, 1),
    )
    # the exterior-power descriptors at positions 2 and 3 swap
    assert moved.steps[1] == word.steps[2] and moved.steps[2] == word.steps[1]


@pytest.mark.parametrize(
    "ctx,kinds,r",
    [
        (GL2, (VECTOR,), 4),
        (CartanContext("GL", 3), (VECTOR,), 4),
        (SP4, (VECTOR,), 4),
        (GL4, (exterior(2),), 4),
    ],
)
def test_tau_involutive_exhaustive(ctx, kinds, r):
    for word in enumerate_hw_words(ctx, kinds * r):
        for i in range(1, r):
            assert tau(tau(word, i), i) == word


def test_tau_distant_commutation():
    for word in enumerate_hw_words(GL2, (VECTOR,) * 5):
        assert tau(tau(word, 1), 3) == tau(tau(word, 3), 1)
        assert tau(tau(word, 1), 4) == tau(tau(word, 4), 1)


def test_commutor_prefix_single():
    for word in enumerate_hw_words(GL2, (VECTOR,) * 4):
        assert commutor_prefix(word, 3) == tau(word, 3)


def test_commutor_prefix_matches_rectangle():
    # moving the first factor past the rest equals a one-row rectangle
    from cactusgrowth.windows import complete_rectangle

    for word in enumerate_hw_words(SL2, tuple([VECTOR]) * 3):
        moved = commutor_prefix(word, 1)
        left = word.corners[:2]
        top = word.corners[1:]
        diag = complete_rectangle(SL2, top, left)
        bottom = diag.bottom_row()
        top_right = diag.right_column()[0]
        assert moved.corners == tuple(bottom) + (top_right,)


def test_commutor_prefix_fixes_full_columns():
    ctx = GL2
    word = word_from_corners(ctx, [(0, 0), (1, 1), (2, 2), (3, 3)])
    assert commutor_prefix(word, 1) == word
    assert commutor_prefix(word, 2) == word


def test_syt_word_round_trip():
    from cactusgrowth.oracles import enumerate_syt, partitions_of

    for n in range(1, 7):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                word = syt_to_word(t.rows, rank=len(shape))
                assert word_to_syt(word) == t.rows


def test_syt_word_example():
    word = syt_to_word(((1, 2), (3,)))
    assert word.corners == ((0, 0), (1, 0), (2, 0), (2, 1))


def test_enumerate_counts_match_syt():
    from cactusgrowth.oracles import enumerate_syt, partitions_of

    # words of single-box steps with at most 2 rows = SYT with at most 2 rows
    words4 = enumerate_hw_words(GL2, (VECTOR,) * 4)
    expected = sum(len(enumerate_syt(s)) for s in partitions_of(4) if len(s) <= 2)
    assert len(words4) == expected


# every kind of GL(1..4), Sp(4), Sp(6) and SL2, and a mixed GL(4) sequence
ENUMERATED = [(ctx, (kind,)) for ctx in [CartanContext("GL", n) for n in range(1, 5)] + [SP4, SL2]
              for kind in family_kinds(ctx)]
ENUMERATED += [(CartanContext("Sp", 3), (VECTOR,)), (GL4, (VECTOR, exterior(2), exterior(3), VECTOR, exterior(2)))]


@pytest.mark.parametrize("ctx, cycle", ENUMERATED, ids=[f"{c} {' '.join(map(str, k))}" for c, k in ENUMERATED])
def test_enumeration_is_what_the_checked_constructor_builds(ctx, cycle):
    """enumerate_hw_words builds its words unchecked: the checked constructor
    accepts each, in the same order; for r <= 4 they are every corner
    sequence of orbit steps that it accepts."""
    for r in range(7):
        kinds = (cycle * r)[:r]
        words = enumerate_hw_words(ctx, kinds)
        assert [HighestWeightWord(ctx, kinds, x.corners) for x in words] == words
        if r <= 4:
            accepted = set()
            for diffs in product(*(sorted(k.orbit(ctx)) for k in kinds)):
                corners = [(0,) * ctx.rank]
                for d in diffs:
                    corners.append(tuple(a + b for a, b in zip(corners[-1], d)))
                if isinstance(outcome(lambda: HighestWeightWord(ctx, kinds, tuple(corners))), HighestWeightWord):
                    accepted.add(tuple(corners))
            assert {x.corners for x in words} == accepted and len(words) == len(accepted)


@pytest.mark.parametrize("ctx, kind", [(GL2, exterior(5)), (GL2, SL2_STEP), (SP4, exterior(2))], ids=str)
def test_enumeration_refuses_a_kind_invalid_in_its_context(ctx, kind):
    with pytest.raises(InvalidStep):
        enumerate_hw_words(ctx, (VECTOR, kind))


def test_word_count_shape_3_3():
    words6 = enumerate_hw_words(GL2, (VECTOR,) * 6)
    assert sum(1 for x in words6 if x.corners[-1] == (3, 3)) == 5


def test_json_round_trip():
    word = w(SP4, (0, 0), (1, 0), (1, 1), (1, 0))
    assert word_from_json(json.loads(json_text(word.context, word.steps, "corners", word.corners))) == word


@pytest.mark.parametrize("word", [
    w(SP4, (0, 0), (1, 0), (1, 1), (1, 0)),
    w(SL2, (0,), (1,), (0,), (1,)),
    w(SL2, (0,)),
    w(CartanContext("GL", 1), *((k,) for k in range(12))),
    w(GL4, (0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0)),
    w(GL2, (0, 0)),
], ids=str)
def test_json_text_is_what_json_dumps_writes(word):
    """The serializer's text, for a word and for its one-row and deeper
    windows, byte for byte against json.dumps of the same object."""
    context = {"family": word.context.family, "rank": word.context.rank}
    steps = [str(s) for s in word.steps]
    assert json_text(word.context, word.steps, "corners", word.corners) == json.dumps(
        {"context": context, "steps": steps, "corners": [list(c) for c in word.corners]})
    for rows in ((word.corners,), (word.corners, word.corners)):
        assert json_text(word.context, word.steps, "rows", rows) == json.dumps(
            {"context": context, "steps": steps, "rows": [[list(c) for c in row] for row in rows]})


def test_invalid_tau_raises():
    # an Sp word whose middle replacement would leave the dominant cone is impossible;
    # instead check the error surfaces on malformed input via word_from_corners
    with pytest.raises(InvalidStep):
        word_from_corners(SP4, [(0, 0), (1, 0), (0, 1)])
