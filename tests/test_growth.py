import functools
from collections import Counter

import pytest

from cactusgrowth.cactus import CactusGen, CactusWord, parse_cactus_word, reduce_to_s1q, word as cword
import cactusgrowth.growth as growth
from cactusgrowth.growth import (
    CylWindow,
    act,
    act_gen,
    build_cylinder,
    evacuation,
    promotion,
    promotion_inverse,
    prefix_reversal,
    triangle_rows,
    wall_cross,
)
from cactusgrowth.windows import BadPath, complete_rectangle, cylinder_from_path, render_window_ascii, validate_window
from cactusgrowth.oracles import enumerate_syt, evacuation_oracle, partitions_of, promotion_oracle, syt_from_string
from cactusgrowth.weights import CartanContext, dominant, local_rule
from cactusgrowth.words import (
    SL2_STEP,
    VECTOR,
    HighestWeightWord,
    InvalidStep,
    cell_is_valid,
    enumerate_hw_words,
    exterior,
    syt_to_word,
    tau,
    word_from_corners,
    word_to_syt,
)

GL2 = CartanContext("GL", 2)
GL3 = CartanContext("GL", 3)
SP4 = CartanContext("Sp", 2)
SL2 = CartanContext("SL2", 1)

SP_R1 = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 0), (0, 0)]
SP_R2 = [(0, 0), (1, 0), (1, 1), (1, 0), (1, 1), (1, 0), (0, 0)]
SP_R3 = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (1, 0), (0, 0)]


def test_evacuation_r1_is_identity_free():
    w = word_from_corners(GL2, [(0, 0), (1, 0)])
    assert evacuation(w) == w


def test_evacuation_tableau_pair():
    w = syt_to_word(syt_from_string("134/256").rows, rank=2)
    assert word_to_syt(evacuation(w)) == syt_from_string("125/346").rows


def test_evacuation_sp_example():
    w = word_from_corners(SP4, SP_R1)
    assert evacuation(w).corners == tuple(SP_R3)
    # and the printed start word of the worked example is evacuation-fixed
    w2 = word_from_corners(SP4, SP_R2)
    assert evacuation(w2) == w2


def test_evacuation_involution_exhaustive():
    for kinds in ((VECTOR,) * 5,):
        for ctx in (GL2, GL3, SP4):
            for w in enumerate_hw_words(ctx, kinds):
                assert evacuation(evacuation(w)) == w


def test_triangle_rows_boundary():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1)])
    rows = triangle_rows(w)
    assert [wt.coords for wt in rows[0]] == list(w.corners)
    for a, row in enumerate(rows):
        assert row[0].coords == (0, 0)
        assert len(row) == w.r + 1 - a


def test_promotion_fixed_full_columns():
    w = word_from_corners(GL2, [(0, 0), (1, 1), (2, 2), (3, 3)])
    assert promotion(w) == w


def test_promotion_sp_example():
    w1 = word_from_corners(SP4, SP_R1)
    assert promotion(w1).corners == tuple(SP_R2)
    w2 = word_from_corners(SP4, SP_R2)
    assert promotion(w2).corners == tuple(SP_R3)
    assert promotion(word_from_corners(SP4, SP_R3)).corners == tuple(SP_R1)


def test_promotion_equals_oracle():
    for n in range(1, 8):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                w = syt_to_word(t.rows, rank=len(shape))
                assert word_to_syt(promotion(w)) == promotion_oracle(t).rows
                assert word_to_syt(evacuation(w)) == evacuation_oracle(t).rows


def test_promotion_is_composite_action():
    for ctx, kinds in ((GL2, (VECTOR,) * 5), (SP4, (VECTOR,) * 4)):
        for w in enumerate_hw_words(ctx, kinds):
            composite = act(parse_cactus_word("s(1,%d) s(2,%d)" % (w.r, w.r), w.r), w)
            assert promotion(w) == composite


def test_promotion_inverse():
    for w in enumerate_hw_words(SP4, (VECTOR,) * 5):
        assert promotion_inverse(promotion(w)) == w
        assert promotion(promotion_inverse(w)) == w


def test_act_trivial_adjacent_on_syt():
    for n in range(2, 7):
        for shape in partitions_of(n):
            if len(shape) > 3:
                continue
            for t in enumerate_syt(shape):
                w = syt_to_word(t.rows, rank=len(shape))
                for p in range(1, n):
                    assert act(cword(n, (p, p + 1)), w) == w


def test_act_empty_word_echo():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (1, 1)])
    assert act(CactusWord(2, ()), w) == w


def test_act_fig_cat_edges():
    tabs = {k: syt_from_string(v) for k, v in
            {"A": "123/456", "B": "124/356", "C": "134/256", "D": "135/246", "E": "125/346"}.items()}

    def image(p, q, t):
        w = syt_to_word(t.rows, rank=2)
        return word_to_syt(act(cword(6, (p, q)), w))

    assert image(3, 5, tabs["B"]) == tabs["A"].rows
    assert image(1, 3, tabs["B"]) == tabs["C"].rows
    assert image(3, 5, tabs["C"]) == tabs["D"].rows
    assert image(2, 4, tabs["D"]) == tabs["E"].rows
    assert image(1, 3, tabs["E"]) == tabs["D"].rows
    assert image(1, 4, tabs["A"]) == tabs["C"].rows
    assert image(2, 5, tabs["C"]) == tabs["E"].rows
    assert image(1, 6, tabs["C"]) == tabs["E"].rows
    assert image(1, 5, tabs["E"]) == tabs["A"].rows
    assert image(1, 5, tabs["D"]) == tabs["B"].rows


@pytest.mark.xfail(strict=True, reason="source figure defect: it also shows s(2,4): D -> E, and an "
                   "involution cannot map two sources to E; both independent routes give s(2,4): A -> B")
def test_act_fig_cat_defective_edge():
    t = syt_from_string("123/456")
    w = syt_to_word(t.rows, rank=2)
    assert word_to_syt(act(cword(6, (2, 4)), w)) == syt_from_string("125/346").rows


def test_act_cactus_relations_exhaustive_small():
    from cactusgrowth.cactus import admissible_pairs

    for r in (3, 4):
        for ctx in (GL2, SP4):
            words_r = enumerate_hw_words(ctx, (VECTOR,) * r)
            for kind, params in admissible_pairs(r):
                for w in words_r:
                    if kind == "involution":
                        p, q = params
                        assert act(cword(r, (p, q), (p, q)), w) == w
                    elif kind == "disjoint":
                        p, q, k, l = params
                        assert act(cword(r, (p, q), (k, l)), w) == act(cword(r, (k, l), (p, q)), w)
                    else:
                        p, q, k, l = params
                        lhs = act(cword(r, (p, q), (k, l)), w)
                        rhs = act(cword(r, (p + q - l, p + q - k), (p, q)), w)
                        assert lhs == rhs


def test_rectangle_trivial_cases():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0)])
    diag = complete_rectangle(GL2, w.corners, w.corners[:1])
    assert diag.bottom_row() == w.corners
    # 1x1 grid is a single cell
    diag1 = complete_rectangle(GL2, [(1, 0), (1, 1)], [(0, 0), (1, 0)])
    assert diag1.grid[1][1] == (1, 0)


def test_rectangle_transpose_symmetry():
    # pasting symmetry: the local rule is symmetric in kappa and nu, so for
    # step types with sign-symmetric weight orbits (SL2, Sp) transposing a
    # completed rectangle equals completing the transposed inputs
    for ctx in (SL2, SP4):
        for w in enumerate_hw_words(ctx, (VECTOR,) * 4):
            top = w.corners[2:5]
            left = w.corners[0:3]
            diag = complete_rectangle(ctx, top, left)
            diag_t = complete_rectangle(ctx, left[::-1], top[::-1])
            for i in range(len(left)):
                for j in range(len(top)):
                    assert diag.grid[i][j] == diag_t.grid[j][i]


def test_rectify_sl2_element():
    # rectifying the non-highest word position through a rectangle: pad a
    # single highest factor on the left of the minus-then-plus tensor word
    from cactusgrowth.crystal import build_minuscule, tensor_power

    base = build_minuscule(SL2, "sl2")
    power = tensor_power(base, 2)
    minus_plus = 1 * 2 + 0
    target = power.rectify(minus_plus)
    assert power.labels[target].endswith("+(x)+")
    assert power.weights[target] == (2,)


def test_cylinder_build_and_validate():
    w = word_from_corners(SP4, SP_R1)
    win = build_cylinder(w, 7)
    assert validate_window(win)
    assert [list(r) for r in win.rows] == [
        list(map(tuple, SP_R1)), list(map(tuple, SP_R2)), list(map(tuple, SP_R3)),
        list(map(tuple, SP_R1)), list(map(tuple, SP_R2)), list(map(tuple, SP_R3)),
        list(map(tuple, SP_R1)),
    ]


def _standard_windows():
    """Every depth-2..5 window of every word of GL(2) and GL(3) vector with
    r <= 5, GL(4) wedge-square and Sp(4) vector with r <= 4."""
    families = ((GL2, VECTOR, 5), (GL3, VECTOR, 5), (CartanContext("GL", 4), exterior(2), 4), (SP4, VECTOR, 4))
    for ctx, kind, r_max in families:
        for r in range(r_max + 1):
            for w in enumerate_hw_words(ctx, (kind,) * r):
                for depth in range(2, 6):
                    yield build_cylinder(w, depth)


def test_validate_window_rejects_every_single_corner_corruption():
    # each corner below row 0 replaced by every other corner of its window
    for win in _standard_windows():
        assert validate_window(win)
        values = {c for row in win.rows for c in row}
        for i in range(1, win.depth):
            for t, old in enumerate(win.rows[i]):
                for new in values - {old}:
                    row = win.rows[i][:t] + (new,) + win.rows[i][t + 1:]
                    bad = CylWindow(win.context, win.steps, win.rows[:i] + (row,) + win.rows[i + 1:])
                    assert not validate_window(bad), (win.rows, i, t, new)


# the corrupted windows share most of their cells
_cell_is_valid = functools.lru_cache(maxsize=None)(cell_is_valid)


def _cell_by_cell(win):
    """The window check as words.cell_is_valid states it: the boundary
    conditions, then both orientations of the local rule on every cell."""
    ctx, r = win.context, win.r
    shape = win.rows[0][-1]
    for row in win.rows:
        if len(row) != r + 1 or any(c != 0 for c in row[0]) or row[-1] != shape:
            return False
        if not all(dominant(ctx.family, c) for c in row):
            return False
    return all(_cell_is_valid(ctx, below[t - 1], above[t], above[t + 1], below[t])
               for above, below in zip(win.rows, win.rows[1:]) for t in range(1, r))


def _corruptions(win):
    """win with one corner, in any row, replaced by another corner of win."""
    values = {c for row in win.rows for c in row}
    for i, row in enumerate(win.rows):
        for t, old in enumerate(row):
            for new in values - {old}:
                yield CylWindow(win.context, win.steps, win.rows[:i] + (row[:t] + (new,) + row[t + 1:],) + win.rows[i + 1:])


def test_validate_window_verdict_equals_the_cell_by_cell_check():
    gl4 = CartanContext("GL", 4)
    mixed = (VECTOR, exterior(2), exterior(3), VECTOR)
    # the standard windows hold GL(4) wedge-square and Sp(4) vector; add SL2,
    # factors that differ from step to step, and one-row windows
    extra = [build_cylinder(w, depth)
             for ctx, kinds in (*[(SL2, (SL2_STEP,) * r) for r in range(7)], (gl4, mixed))
             for w in enumerate_hw_words(ctx, kinds) for depth in (1, 3)]
    verdicts = Counter()
    for win in [*_standard_windows(), *extra]:
        for w in (win, *_corruptions(win)):
            got = validate_window(w)
            assert got == _cell_by_cell(w), w.rows
            verdicts[got] += 1
    assert min(verdicts.values()) > 1000, verdicts


def test_validate_window_rejects_rows_of_the_wrong_length():
    win = build_cylinder(word_from_corners(GL2, [(0, 0), (1, 0), (1, 1)]), 2)
    top, below = win.rows
    for row in (below + (below[-1],), below[:1] + below[2:]):
        assert not validate_window(CylWindow(GL2, win.steps, (top, row)))


def test_cylinder_row_words_are_promotions():
    w = word_from_corners(GL3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1)])
    win = build_cylinder(w, 5)
    cur = w
    for i in range(1, 5):
        cur = promotion(cur)
        assert win.row_word(i) == cur


def test_cylinder_from_horizontal_path():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
    path = [(0, j) for j in range(0, 5)]
    win = cylinder_from_path(GL2, path, [list(c) for c in w.corners], depth=2)
    assert win.rows[0] == w.corners
    assert win.row_word(1) == promotion(w)


def test_cylinder_from_vertical_path():
    # labels along a fully vertical path are the evacuation column
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
    ev = evacuation(w)
    path = [(4 - k, 4) for k in range(0, 5)]
    win = cylinder_from_path(GL2, path, [list(c) for c in ev.corners], depth=3)
    assert win.rows[0] == w.corners


def test_cylinder_from_staircase_path():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
    win_full = build_cylinder(w, 4)
    path = [(2, 2), (2, 3), (1, 3), (1, 4), (0, 4)]
    # read the labels off the known-good window, then reconstruct from them
    def val(i, j):
        return list(win_full.rows[i][j - i])
    labels = [val(*pt) for pt in path]
    win = cylinder_from_path(GL2, path, labels, depth=3)
    assert win.rows[:3] == win_full.rows[:3]


def test_cylinder_path_errors():
    with pytest.raises(BadPath):
        cylinder_from_path(GL2, [(0, 1), (0, 2)], [[0, 0], [1, 0]])
    with pytest.raises(BadPath):
        cylinder_from_path(GL2, [(0, 0), (1, 1)], [[0, 0], [1, 0]])
    with pytest.raises(BadPath):
        cylinder_from_path(GL2, [(0, 0), (0, 1)], [[0, 0]])


def test_wall_cross_agrees_with_act():
    for r in (3, 4):
        for w in enumerate_hw_words(GL2, (VECTOR,) * r):
            win = build_cylinder(w, 3)
            for p in range(1, r + 1):
                for q in range(p + 1, r + 1):
                    crossed = wall_cross(CactusGen(p, q), win)
                    assert crossed.row_word(0) == act(cword(r, (p, q)), w)
                    assert validate_window(crossed)


def test_wall_cross_sp_example():
    w = word_from_corners(SP4, SP_R1)
    win = build_cylinder(w, 7)
    crossed = wall_cross(CactusGen(3, 6), win)
    assert crossed.row_word(0) == w  # s(3,6) fixes this top row
    w2 = word_from_corners(SP4, SP_R2)
    crossed2 = wall_cross(CactusGen(3, 6), build_cylinder(w2, 7))
    assert crossed2.row_word(0).corners == tuple(SP_R3)


@pytest.mark.xfail(strict=True, reason="source example defect: the printed wall-crossing grid is not "
                   "the s(3,6)-image of any row of the printed window; its own rows even break the "
                   "promotion chain between rows 2 and 3")
def test_wall_cross_sp_printed_result():
    printed_first_row = ((0, 0), (1, 0), (1, 1), (2, 1), (1, 1), (1, 0), (0, 0))
    for start in (SP_R1, SP_R2, SP_R3):
        w = word_from_corners(SP4, start)
        crossed = wall_cross(CactusGen(3, 6), build_cylinder(w, 7))
        if crossed.row_word(0).corners == printed_first_row:
            return
    raise AssertionError("printed s(3,6) row is not the image of any window row")


def test_window_ascii_render():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)])
    text = render_window_ascii(build_cylinder(w, 2))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[]")
    assert "[22]" in lines[0]


def test_tau_equals_its_prefix_reversal_word():
    # the local move at i acts exactly like its dictionary word in s(1,*)
    from cactusgrowth.cactus import TauGen
    from cactusgrowth.suites import tau_to_s
    from cactusgrowth.words import tau

    for ctx, r in ((GL2, 5), (SP4, 4), (GL3, 4)):
        for w in enumerate_hw_words(ctx, (VECTOR,) * r):
            for i in range(1, r):
                assert tau(w, i) == act(tau_to_s(TauGen(i), r), w)


def test_prefix_reversal_fixes_suffix():
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
    out = prefix_reversal(w, 3)
    assert out.corners[4:] == w.corners[4:]
    assert out.corners[0] == (0, 0)
    assert out.corners[3] == w.corners[3]


def _via_prefix_reversals(g, w):
    for h in reversed(reduce_to_s1q(g, w.r).gens):
        w = prefix_reversal(w, h.q)
    return w


def _every_small_word():
    """Every word with r <= 6 of GL(1..4) vector and exterior powers, Sp(4),
    Sp(6) and SL2, and the mixed-factor GL(3) and GL(4) families."""
    for ctx in [CartanContext("GL", n) for n in range(1, 5)] + [SP4, CartanContext("Sp", 3), SL2]:
        kinds = {"GL": [VECTOR] + [exterior(k) for k in range(2, ctx.rank + 1)], "Sp": [VECTOR], "SL2": [SL2_STEP]}
        for kind in kinds[ctx.family]:
            for r in range(7):
                yield from enumerate_hw_words(ctx, (kind,) * r)
    yield from enumerate_hw_words(GL3, (VECTOR, exterior(2), VECTOR, exterior(2)))
    yield from enumerate_hw_words(CartanContext("GL", 4), (VECTOR, exterior(2), exterior(3), VECTOR, exterior(2), VECTOR))


def test_trusted_outputs_pass_the_checked_constructor_exhaustive():
    """evacuation, promotion_inverse, prefix_reversal (and the prefix it
    evacuates) and tau build their words unchecked, act_gen checks only the
    steps it reversed, and promotion may go unchecked too once the benchmark
    allows it: the checked constructor accepts the steps and corners of each
    output and rebuilds it.  Beyond q, act_gen's image holds w's own corners.
    Each distinct output is rebuilt once."""
    seen, source = 0, {}  # output -> the first word it came from
    for w in _every_small_word():
        outputs = [evacuation(w), promotion(w), promotion_inverse(w)]
        for q in range(2, w.r + 1):
            outputs += [HighestWeightWord(w.context, w.steps[:q], w.corners[:q + 1]), prefix_reversal(w, q)]
            for p in range(1, q):
                out = act_gen(CactusGen(p, q), w)
                assert all(a is b for a, b in zip(out.corners[q:], w.corners[q:])), (p, q, w)
                outputs.append(out)
        outputs += [tau(w, i) for i in range(1, w.r)]
        for out in outputs:
            source.setdefault(out, w)
        seen += 1
    assert seen == 1851
    for out, w in source.items():
        assert HighestWeightWord(out.context, out.steps, out.corners) == out, (w, out)


def _act_with_last_cell_replaced(monkeypatch, g, w, bad):
    """act_gen(g, w) with the result of its last local-rule call replaced by
    `bad`.  That call fills corner 1 of the image: a reversed corner for p = 1,
    a kept corner for p >= 2."""
    calls, last = [], None

    def replacing(*args):
        calls.append(args)
        return bad if len(calls) == last else local_rule(*args)

    monkeypatch.setattr(growth, "local_rule", replacing)
    act_gen(g, w)  # counts the calls
    last, calls[:] = len(calls), []
    return act_gen(g, w)


def test_act_gen_refuses_a_planted_wrong_corner(monkeypatch):
    # s(1,2) reverses both steps: (0,0,0) -> (1,1,0) -> (2,1,0); a wrong
    # (2,0,0) still steps validly to (2,1,0), so only the reversed step from
    # the kept corner 0 (step p-1) shows it
    w = word_from_corners(GL3, [(0, 0, 0), (1, 0, 0), (2, 1, 0)])
    assert act_gen(CactusGen(1, 2), w).corners[1] == (1, 1, 0)
    with pytest.raises(InvalidStep, match=r"^corner 0: \[0,0,0\] -> \[2,0,0\] is not a valid exterior\(2\) step$"):
        _act_with_last_cell_replaced(monkeypatch, CactusGen(1, 2), w, (2, 0, 0))
    # s(2,3) keeps corner 1; any other corner there is a moved kept corner
    w = word_from_corners(GL2, [(0, 0), (1, 0), (2, 0), (2, 1)])
    assert act_gen(CactusGen(2, 3), w).corners[1] == (1, 0)
    with pytest.raises(InvalidStep, match=r"^s\(2,3\) moved one of the corners 0\.\.1 of "):
        _act_with_last_cell_replaced(monkeypatch, CactusGen(2, 3), w, (0, 1))


def test_act_equals_prefix_reversal_fold_exhaustive():
    # the one-triangle band computation of act_gen against the path it
    # replaced: s(p,q) = s(1,q) s(1,q-p+1) s(1,q), each factor an evacuated
    # prefix; the four r = 6 families and a mixed-factor family in full, every
    # third word of SL2 r = 8 and Sp(6) r = 7
    from cactusgrowth.suites import standard_word_suites

    cases = [(kinds, enumerate_hw_words(ctx, kinds)) for _, ctx, kinds in standard_word_suites(6)]
    mixed = (VECTOR, exterior(2), exterior(3), VECTOR, exterior(2), VECTOR)
    cases.append((mixed, enumerate_hw_words(CartanContext("GL", 4), mixed)))
    for ctx, kinds in ((SL2, (SL2_STEP,) * 8), (CartanContext("Sp", 3), (VECTOR,) * 7)):
        cases.append((kinds, enumerate_hw_words(ctx, kinds)[::3]))
    for kinds, ws in cases:
        r = len(kinds)
        gens = [CactusGen(p, q) for p in range(1, r + 1) for q in range(p + 1, r + 1)]
        for w in ws:
            for g in gens:
                assert act(CactusWord(r, (g,)), w) == _via_prefix_reversals(g, w), (g, w)
