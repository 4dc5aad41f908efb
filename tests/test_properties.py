"""Property tests on random words beyond the exhaustive bounds (r = 7..10).

Words are drawn as walks from the zero weight: each step picks a factor
from its family's kinds, then one of the orbit vectors of that factor's
fundamental weight that keeps the corner dominant (there is always one:
the fundamental weight itself).
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cactusgrowth.cactus import reduce_to_s1q, word as cword
from cactusgrowth.growth import act, evacuation, prefix_reversal, promotion, promotion_inverse
from cactusgrowth.weights import CartanContext, dominant
from cactusgrowth.words import SL2_STEP, VECTOR, HighestWeightWord, exterior, tau

GL_KINDS = ((VECTOR,), (exterior(2),), (VECTOR, exterior(2)))
FAMILIES = (
    [(CartanContext("GL", n), kinds) for n in (2, 3, 4) for kinds in GL_KINDS]
    + [(CartanContext("Sp", n), (VECTOR,)) for n in (2, 3)]
    + [(CartanContext("SL2", 1), (SL2_STEP,))]
)

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@st.composite
def hw_words(draw):
    ctx, kinds = draw(st.sampled_from(FAMILIES))
    r = draw(st.integers(min_value=7, max_value=10))
    steps = tuple(draw(st.sampled_from(kinds)) for _ in range(r))
    corners = [(0,) * ctx.rank]
    for kind in steps:
        last = corners[-1]
        options = [tuple(a + b for a, b in zip(last, d)) for d in sorted(kind.orbit(ctx), reverse=True)]
        corners.append(draw(st.sampled_from([c for c in options if dominant(ctx.family, c)])))
    return HighestWeightWord(ctx, steps, tuple(corners))


@st.composite
def word_and_gen(draw):
    w = draw(hw_words())
    p = draw(st.integers(min_value=1, max_value=w.r - 1))
    q = draw(st.integers(min_value=p + 1, max_value=w.r))
    return w, p, q


@SETTINGS
@given(word_and_gen())
def test_act_equals_prefix_reversal_fold(case):
    w, p, q = case
    g = cword(w.r, (p, q))
    expected = w
    for h in reversed(reduce_to_s1q(g.gens[0], w.r).gens):
        expected = prefix_reversal(expected, h.q)
    assert act(g, w) == expected


@SETTINGS
@given(word_and_gen())
def test_generators_are_involutions(case):
    w, p, q = case
    assert act(cword(w.r, (p, q), (p, q)), w) == w


@SETTINGS
@given(word_and_gen(), st.data())
def test_nested_relation(case, data):
    w, p, q = case
    k = data.draw(st.integers(min_value=p, max_value=q - 1))
    l = data.draw(st.integers(min_value=k + 1, max_value=q))
    lhs = act(cword(w.r, (p, q), (k, l)), w)
    rhs = act(cword(w.r, (p + q - l, p + q - k), (p, q)), w)
    assert lhs == rhs


@SETTINGS
@given(hw_words())
def test_evacuation_and_local_moves_are_involutions(w):
    assert evacuation(evacuation(w)) == w
    assert evacuation(w) == act(cword(w.r, (1, w.r)), w)
    for i in range(1, w.r):
        assert tau(tau(w, i), i) == w


@SETTINGS
@given(hw_words())
def test_promotion_inverse_undoes_promotion(w):
    assert promotion_inverse(promotion(w)) == w
    assert promotion(promotion_inverse(w)) == w
