"""Acceptance suite.

One test per criterion (defect-documentation subtests split out so every
check stays visible; criteria 2-6 run the rows of suites.SUITES with that
acceptance id at their full bounds); each prints a PASS line with its
runtime and asserts the stated budget.  All comparisons are exact; there are no tolerances.

Three golden values transcribed from the published figures are internally
inconsistent with the rest of the published data (details in the fixture
files and in tests marked xfail-strict); for those, the suite asserts the
values forced by the independent oracles and keeps the literal transcribed
values as strict expected failures so any change in behaviour trips them.
"""
import json
import time
from importlib import resources

import pytest

from cactusgrowth import suites, words
from cactusgrowth.cactus import CactusGen, CactusWord, reduce_to_s1q
from cactusgrowth.growth import act, build_cylinder, evacuation, promotion, wall_cross
from cactusgrowth.oracles import (
    Partition,
    SemistandardTableau,
    bender_knuth,
    dual_sequence,
    gt_pattern,
    matching_action,
    matching_from_syt,
    matching_to_syt,
    syt_from_string,
    tableau_from_dual_sequence,
)
from cactusgrowth.weights import GL, SP, CartanContext
from cactusgrowth.windows import validate_window
from cactusgrowth.words import word_from_corners


def _fixture(name):
    with resources.files("cactusgrowth").joinpath("data", name).open() as fh:
        return json.load(fh)


def _finish(cid, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {cid}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{cid} exceeded its {budget}s budget ({elapsed:.1f}s)"


# -- 1a: Bender-Knuth worked example ------------------------------------------


def test_acceptance_1a_bender_knuth_pipeline():
    t0 = time.time()
    fix = _fixture("bk_example.json")
    t = SemistandardTableau(tuple(tuple(r) for r in fix["tableau"]))
    bound = fix["entries_bound"]

    gt = gt_pattern(t, bound)
    assert [list(p.parts) for p in gt] == fix["gt_pattern"]

    dual = dual_sequence(t, bound)
    assert [list(p.parts) for p in dual] == fix["conjugate_sequence"]

    ctx = CartanContext(GL, 4)
    w = word_from_corners(ctx, [p.padded(4) for p in dual])
    moved = words.tau(w, 2)
    assert list(moved.corners[2]) == fix["local_move_value"] + [0]
    moved_seq = [Partition([c for c in corner if c]) for corner in moved.corners]
    assert [list(p.parts) for p in moved_seq] == fix["sequence_after_move"]

    back = tableau_from_dual_sequence(moved_seq)
    assert [list(p.parts) for p in gt_pattern(back, bound)] == fix["gt_after_move"]
    assert [list(r) for r in back.rows] == fix["result"]
    assert back == bender_knuth(t, 2)
    _finish("1a (Bender-Knuth pipeline)", t0, 1.0)


# -- 1b: the labelled action graph on the five (3,3) tableaux -----------------


def _fig_cat_tables():
    fix = _fixture("fig_cat.json")
    tabs = {k: syt_from_string(v) for k, v in fix["tableaux"].items()}
    names = {t.rows: k for k, t in tabs.items()}
    return fix, tabs, names


def _edge_image(tabs, names, src, p, q):
    w = words.syt_to_word(tabs[src].rows, rank=2)
    via_act = names[words.word_to_syt(act(CactusWord(6, (CactusGen(p, q),)), w))]
    m = matching_from_syt(tabs[src])
    for g in reversed(reduce_to_s1q(CactusGen(p, q), 6).gens):
        m = matching_action(g.q, m)
    via_matching = names[matching_to_syt(m).rows]
    assert via_act == via_matching, f"routes disagree on s({p},{q})({src})"
    return via_act


def test_acceptance_1b_fig_cat_edges():
    t0 = time.time()
    fix, tabs, names = _fig_cat_tables()
    defective = {tuple(d["edge"][:2]) + (tuple(d["edge"][2]),): d["computed_target"]
                 for d in fix["known_defects"]}
    checked = 0
    for src, dst, (p, q) in (tuple(e) for e in fix["edges"]):
        got = _edge_image(tabs, names, src, p, q)
        key = (src, dst, (p, q))
        if key in defective:
            assert got == defective[key]
        else:
            assert got == dst, f"s({p},{q})({src}) = {got}, figure says {dst}"
        checked += 1
    assert checked == 11
    _finish("1b (labelled action graph, 10 consistent edges + 1 documented defect)", t0, 1.0)


@pytest.mark.xfail(strict=True, reason="transcribed figure defect: the (2,4) edge out of A cannot "
                   "point to E since the same figure has s(2,4): D -> E and the generator is an "
                   "involution; both computation routes give s(2,4): A -> B")
def test_acceptance_1b_fig_cat_printed_edge_a_to_e():
    _, tabs, names = _fig_cat_tables()
    assert _edge_image(tabs, names, "A", 2, 4) == "E"


# -- 1c: the symplectic cylindrical window ------------------------------------


def test_acceptance_1c_sp_window():
    t0 = time.time()
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    top = word_from_corners(ctx, fix["top_row"])
    win = build_cylinder(top, 7)
    assert validate_window(win)
    got = [[list(c) for c in row] for row in win.rows]
    assert got == fix["consistent_rows"]
    # rows 1-4 of the printed window agree with the computed one verbatim
    assert got[:4] == fix["printed_rows"][:4]

    # the promotion row: row 2 of the window, which is the printed start word
    assert [list(c) for c in promotion(top).corners] == fix["printed_start_word"]
    assert got[1] == fix["printed_start_word"]

    # the evacuation column: reading the shape column upward = evacuation of the top row
    ev = evacuation(top)
    column = [win.value(6 - k, 6) for k in range(7)]
    assert list(ev.corners) == column
    assert [list(c) for c in ev.corners] == fix["evacuation_column_of_window"]

    # the s(3,6) result row: wall crossing and the generator action agree
    crossed = wall_cross(CactusGen(3, 6), win)
    assert crossed.row_word(0) == act(CactusWord(6, (CactusGen(3, 6),)), top)
    assert [list(c) for c in crossed.row_word(0).corners] == fix["s36_on_top_row"]
    start = word_from_corners(ctx, fix["printed_start_word"])
    assert [list(c) for c in act(CactusWord(6, (CactusGen(3, 6),)), start).corners] == fix["s36_on_printed_start"]
    _finish("1c (symplectic window, promotion row, evacuation column, s(3,6))", t0, 1.0)


@pytest.mark.xfail(strict=True, reason="transcribed example defect: printed row 5 duplicates row 4, "
                   "shifting rows 5-7; the promotion chain forces period 3")
def test_acceptance_1c_sp_printed_rows_5_to_7():
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    win = build_cylinder(word_from_corners(ctx, fix["top_row"]), 7)
    got = [[list(c) for c in row] for row in win.rows]
    assert got[4:] == fix["printed_rows"][4:]


@pytest.mark.xfail(strict=True, reason="transcribed example defect: the printed promotion value is "
                   "the row above the printed start word (the inverse direction); top-to-bottom "
                   "promotion of the start word is the window's third row")
def test_acceptance_1c_sp_printed_promotion_pair():
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    start = word_from_corners(ctx, fix["printed_start_word"])
    assert [list(c) for c in promotion(start).corners] == fix["printed_promotion"]


@pytest.mark.xfail(strict=True, reason="transcribed example defect: the printed start word is "
                   "evacuation-fixed; the printed evacuation value is the evacuation of the window's "
                   "third row instead")
def test_acceptance_1c_sp_printed_evacuation_pair():
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    start = word_from_corners(ctx, fix["printed_start_word"])
    assert [list(c) for c in evacuation(start).corners] == fix["printed_evacuation"]


@pytest.mark.xfail(strict=True, reason="transcribed example defect: the printed s(3,6) grid is not "
                   "the image of any printed window row; its own rows break the promotion chain "
                   "between rows 2 and 3")
def test_acceptance_1c_sp_printed_s36_row():
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    printed_first = fix["s36_printed_rows"][0]
    for row in (fix["top_row"], fix["printed_start_word"], fix["consistent_rows"][2]):
        w = word_from_corners(ctx, row)
        got = [list(c) for c in act(CactusWord(6, (CactusGen(3, 6),)), w).corners]
        if got == printed_first:
            return
    raise AssertionError("printed s(3,6) row is not the image of any window row")


def test_acceptance_1c_sp_printed_values_are_self_consistent_elsewhere():
    """The printed promotion/evacuation values do fit the window read the
    other way: the printed value is pr^-1 of the printed start word, and is
    the evacuation of the window's third row."""
    fix = _fixture("sp_window.json")
    ctx = CartanContext(SP, fix["rank"])
    start = word_from_corners(ctx, fix["printed_start_word"])
    printed = word_from_corners(ctx, fix["printed_promotion"])
    assert promotion(printed) == start
    third = word_from_corners(ctx, fix["consistent_rows"][2])
    assert [list(c) for c in evacuation(third).corners] == fix["printed_evacuation"]


# -- 1d: the GL window ---------------------------------------------------------


def test_acceptance_1d_gl_window():
    t0 = time.time()
    fix = _fixture("gl_window.json")
    ctx = CartanContext(GL, fix["rank"])
    top = word_from_corners(ctx, fix["rows"][0])
    win = build_cylinder(top, len(fix["rows"]))
    assert validate_window(win)
    assert [[list(c) for c in row] for row in win.rows] == fix["rows"]
    _finish("1d (GL window reproduced from its first row)", t0, 1.0)


# -- 2-6: the suites at their acceptance bounds --------------------------------
# 2 oracle equivalence, 3 cactus relations, 4 Hecke seminormal identities,
# 5 crystal brute-force consistency, 6 wall crossing = action.


@pytest.mark.parametrize("cid", sorted(suites.BUDGETS))
def test_acceptance_suites(cid):
    t0 = time.time()
    names = [name for name, suite in suites.SUITES.items() if suite.acceptance == cid]
    checks = 0
    for name in names:
        suite = suites.SUITES[name]
        report = suite.check(**suite.full)
        assert report.passed, report.failures[:5]
        checks += report.checks
    _finish(f"{cid} ({', '.join(names)}, {checks} checks)", t0, suites.BUDGETS[cid])
