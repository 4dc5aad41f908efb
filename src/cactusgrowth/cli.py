"""Command-line front end.

Subcommands: act, evacuate, promote, tau, cylinder, validate, crystal,
oracle, hecke, verify, demo.  Words and windows travel as JSON; --format
ascii prints aligned grids of bracketed partitions instead.

Options take `--name value` or `--name=value`, exact names only; global
options come before the subcommand, and `<subcommand> --help` lists its own.

Composition convention: in a cactus word the rightmost generator acts
first, so `act --word "s(1,6) s(2,6)"` applies s(2,6) and then s(1,6).

Exit codes: 0 success, 1 verification or demo failure, 2 usage/parse
error, 3 domain error (invalid step, dimension mismatch, ...).
"""
# A one-shot command loads only the layers it runs: at module level this
# file imports only the standard library, and each handler imports the
# layers it calls where it calls them, so `act` never loads the crystals,
# the Hecke algebra, the oracles or the verification suites.  In process
# those imports run on every request; the absolute form
# `import cactusgrowth.x as x` costs about a third of `from . import x`,
# which calls back into importlib's Python code.
from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .growth import CylWindow
    from .oracles import StandardTableau
    from .words import HighestWeightWord

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _load_fixture(name: str) -> dict:
    from importlib import resources

    with resources.files("cactusgrowth").joinpath("data", name).open() as fh:
        return json.load(fh)


def _demo_word(name: str) -> HighestWeightWord:
    import cactusgrowth.weights as weights
    import cactusgrowth.words as words

    if name.startswith("fig-cat-"):
        fix = _load_fixture("fig_cat.json")
        key = name.rsplit("-", 1)[1].upper()
        if key not in fix["tableaux"]:
            raise ValueError(f"unknown tableau {key!r}")
        import cactusgrowth.oracles as oracles

        t = oracles.syt_from_string(fix["tableaux"][key])
        return words.syt_to_word(t.rows, rank=2)
    if name == "ex-sp":
        fix = _load_fixture("sp_window.json")
        ctx = weights.CartanContext(weights.SP, fix["rank"])
        return words.word_from_corners(ctx, fix["printed_start_word"])
    if name == "ex-sp-top":
        fix = _load_fixture("sp_window.json")
        ctx = weights.CartanContext(weights.SP, fix["rank"])
        return words.word_from_corners(ctx, fix["top_row"])
    if name == "gl-window":
        fix = _load_fixture("gl_window.json")
        ctx = weights.CartanContext(weights.GL, fix["rank"])
        return words.word_from_corners(ctx, fix["rows"][0])
    raise ValueError(f"unknown demo input {name!r}")


def _read_word(args) -> HighestWeightWord:
    import cactusgrowth.words as words

    sources = [s for s in (args.input, args.json, getattr(args, "demo", None)) if s]
    if len(sources) != 1:
        raise UsageError("provide exactly one of --input, --json, --demo")
    if getattr(args, "demo", None):
        return _demo_word(args.demo)
    if args.input:
        with open(args.input) as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(args.json)
    return words.word_from_json(payload)


class UsageError(Exception):
    pass


def _emit_word(w: HighestWeightWord, fmt: str) -> None:
    if fmt == "ascii":
        import cactusgrowth.growth as growth

        print(growth.render_word_ascii(w))
    else:
        import cactusgrowth.words as words

        print(json.dumps(words.word_to_json(w)))


def _emit_window(win: CylWindow, fmt: str) -> None:
    if fmt == "ascii":
        import cactusgrowth.growth as growth

        print(growth.render_window_ascii(win))
    else:
        payload = {
            "context": {"family": win.context.family, "rank": win.context.rank},
            "steps": [str(s) for s in win.steps],
            "rows": [[list(c) for c in row] for row in win.rows],
        }
        print(json.dumps(payload))


# -- subcommand handlers -----------------------------------------------------


def cmd_act(args) -> int:
    import cactusgrowth.cactus as cactus
    import cactusgrowth.growth as growth

    w = _read_word(args)
    g = cactus.parse_cactus_word(args.word, w.r)
    out = growth.act(g, w)
    _emit_word(out, args.format)
    return EXIT_OK


def cmd_evacuate(args) -> int:
    import cactusgrowth.growth as growth

    w = _read_word(args)
    if args.format == "ascii" and args.show_diagram:
        print(growth.render_triangle_ascii(w))
    _emit_word(growth.evacuation(w), args.format)
    return EXIT_OK


def cmd_promote(args) -> int:
    import cactusgrowth.growth as growth

    w = _read_word(args)
    _emit_word(growth.promotion(w), args.format)
    return EXIT_OK


def cmd_tau(args) -> int:
    import cactusgrowth.words as words

    w = _read_word(args)
    _emit_word(words.tau(w, args.i), args.format)
    return EXIT_OK


def cmd_cylinder(args) -> int:
    import cactusgrowth.errors as errors
    import cactusgrowth.growth as growth

    w = _read_word(args)
    cells = args.depth * (w.r + 1)
    if cells > args.max_size:
        raise errors.SizeLimit(f"a window of depth {args.depth} on r={w.r} has {cells} cells, "
                               f"over the cap of {args.max_size}")
    win = growth.build_cylinder(w, args.depth)
    _emit_window(win, args.format)
    return EXIT_OK


def cmd_validate(args) -> int:
    import cactusgrowth.growth as growth
    import cactusgrowth.weights as weights
    import cactusgrowth.words as words

    with open(args.input) as fh:
        payload = json.load(fh)
    context = payload.get("context") if isinstance(payload, dict) else None
    if not (isinstance(context, dict) and "family" in context and "rank" in context
            and ("rows" in payload or "corners" in payload)):
        raise ValueError("a window or word must be an object with a context of a family and a rank, "
                         "and rows or corners")
    words.check_word_json(payload)
    is_window = "rows" in payload
    if is_window:
        rows = payload["rows"]
        if not (isinstance(rows, list) and rows and all(words.is_corner_list(row) for row in rows)):
            raise ValueError("window rows must be a non-empty list of rows of int corners")
        ctx = weights.CartanContext(context["family"], context["rank"])
        if any(len(c) != ctx.rank for row in rows for c in row):
            raise ValueError(f"window corners must have {ctx.rank} coordinates")
    # a step that is not minuscule, in the word or in any row of the window,
    # makes the input invalid (exit 1), not a domain error
    try:
        if is_window:
            top = words.word_from_corners(ctx, rows[0])
            win = growth.CylWindow(ctx, top.steps, tuple(tuple(tuple(c) for c in row) for row in rows))
            ok = growth.validate_window(win)
        else:
            words.word_from_json(payload)
            ok = True
    except words.InvalidStep:
        ok = False
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_crystal(args) -> int:
    import cactusgrowth.crystal as crystal
    import cactusgrowth.weights as weights
    import cactusgrowth.words as words

    ctx = weights.CartanContext(args.family, args.rank)
    kind = words.parse_step_kind(args.kind)
    c = kind.crystal(ctx, size_cap=args.max_size)
    if args.crystal_cmd == "dump":
        print(json.dumps(crystal.crystal_to_json(c)))
        return EXIT_OK
    census = crystal.decompose(c, args.r, size_cap=args.max_size)
    payload = {
        "crystal_size": c.n,
        "r": args.r,
        "components": [
            {"weight": list(wt), "count": cnt, "size": size}
            for wt, (cnt, size) in sorted(census.items(), reverse=True)
        ],
    }
    print(json.dumps(payload))
    return EXIT_OK


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(type(v) is int for v in x)


def _tableau_json(text: str) -> list[list[int]]:
    """Tableau rows from JSON, which must be a list of lists of ints."""
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(_is_int_list(row) for row in rows)):
        raise ValueError("tableau JSON must be a list of lists of ints")
    return rows


def _read_tableau(args) -> StandardTableau:
    import cactusgrowth.oracles as oracles

    if args.tableau:
        return oracles.syt_from_string(args.tableau)
    if args.json:
        return oracles.StandardTableau(_tableau_json(args.json))
    raise UsageError("provide --tableau or --json")


def cmd_oracle(args) -> int:
    import cactusgrowth.oracles as oracles

    op = args.oracle_cmd
    if op in ("evacuate", "promote", "dk"):
        t = _read_tableau(args)
        if op == "evacuate":
            out = oracles.evacuation_oracle(t)
        elif op == "promote":
            out = oracles.promotion_oracle(t)
        else:
            if args.i is None:
                raise UsageError("dk needs --i")
            out = oracles.dual_knuth(t, args.i)
        print(json.dumps([list(r) for r in out.rows]))
        return EXIT_OK
    if op == "bk":
        if args.json:
            t = oracles.SemistandardTableau(_tableau_json(args.json))
        elif args.tableau:
            t = oracles.SemistandardTableau(
                tuple(tuple(int(ch) for ch in part) for part in args.tableau.split("/"))
            )
        else:
            raise UsageError("bk needs --tableau or --json")
        if args.i is None:
            raise UsageError("bk needs --i")
        out = oracles.bender_knuth(t, args.i)
        print(json.dumps([list(r) for r in out.rows]))
        return EXIT_OK
    raise UsageError(f"unknown oracle {op!r}")


def _parse_shape(text: str) -> tuple[int, ...]:
    shape = tuple(int(p) for p in text.split(",") if p.strip())
    if not any(shape):
        raise ValueError(f"shape {text!r} has no positive part")
    return shape


def cmd_hecke(args) -> int:
    import cactusgrowth.errors as errors
    import cactusgrowth.oracles as oracles

    shape = _parse_shape(args.shape)
    dim = oracles.count_syt(shape)
    if dim > args.max_size:
        raise errors.SizeLimit(f"shape {args.shape} has {dim} standard tableaux, over the cap of {args.max_size}")
    if args.hecke_cmd == "check":
        import cactusgrowth.suites as suites

        rep = suites.check_hecke_shape(shape)
        for line in rep.failures:
            print("FAIL:", line)
        print(rep.summary())
        return EXIT_OK if rep.passed else EXIT_VERIFY
    import cactusgrowth.hecke as hecke
    import cactusgrowth.qalgebra as qalgebra

    srep = hecke.SeminormalRep(shape)
    op = args.op
    if op in ("u", "t", "tau"):
        text = qalgebra.render_grid(srep.dimension, srep.dimension, hecke.generator_entries(srep, args.i, op))
    elif op == "jm":
        text = hecke.jm_matrix(srep, args.i).pretty()
    elif op == "sigma":
        # always at 1, but --i is checked before the product (r < 2 is sigma_vv's refusal)
        if srep.r >= 2:
            srep._check_index(args.i)
        text = hecke.sigma_vv(srep).pretty()
    else:
        raise UsageError(f"unknown operator {op!r}")
    print("basis:", " ".join(str(t) for t in srep.basis))
    print(text)
    return EXIT_OK


# suite -> (kwargs under --tiny, kwargs otherwise).  The full bounds are the
# acceptance bounds; --r and --maxsize replace the r_max and max_boxes they
# name there, and --seed replaces seed in both.  Its keys, in the order of
# suites.ALL_SUITES, are also the choices of `verify`, so building the parser
# does not load the suites.
_SUITE_BOUNDS: dict[str, tuple[dict, dict]] = {
    "algebra": ({"seed": 0}, {"seed": 0}),
    "weights": ({}, {}),
    "crystal": ({"r_max": 3, "catalan_r": 6}, {"r_max": 5, "catalan_r": 10}),
    "cactus": ({"r_max": 3}, {"r_max": 6}),
    "taupresentation": ({"r": 5}, {"r": 5}),
    "hecke": ({"max_boxes": 4}, {"max_boxes": 6}),
    "heckecactus": ({"r_max": 3, "max_boxes": 3, "bk_r": 4}, {}),
    "oracle": ({"max_boxes": 5, "bk_shape": (2, 2, 1), "bk_entries": 4}, {"max_boxes": 8}),
    "morphism": ({}, {}),
    "wallcross": ({"r_max": 3}, {"r_max": 5}),
}


def cmd_verify(args) -> int:
    import cactusgrowth.suites as suites

    for flag, bound in (("--r", args.r), ("--maxsize", args.maxsize)):
        if bound is not None and bound < 2:
            raise UsageError(f"{flag} must be at least 2, got {bound}")
    names = list(suites.ALL_SUITES) if args.suite == "all" else [args.suite]
    overrides = {"seed": args.seed}
    if not args.tiny:
        overrides.update(r_max=args.r, max_boxes=args.maxsize)
    failures = 0
    checks = 0
    for name in names:
        fn = suites.ALL_SUITES[name]
        kwargs = dict(_SUITE_BOUNDS[name][0 if args.tiny else 1])
        kwargs.update((k, v) for k, v in overrides.items() if k in kwargs and v is not None)
        rep = fn(**kwargs)
        for line in rep.failures:
            print("FAIL:", line)
        print(rep.summary())
        failures += len(rep.failures)
        checks += rep.checks
    print(json.dumps({"suites": len(names), "checks": checks, "failures": failures}))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_demo(args) -> int:
    names = ["bk", "fig-cat", "gl-window", "ex-sp"] if args.name == "all" else [args.name]
    bad = 0
    for name in names:
        bad += _run_demo(name)
    return EXIT_OK if bad == 0 else EXIT_VERIFY


def _check(label: str, got, expected) -> int:
    ok = got == expected
    print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        print(f"       got      {got}")
        print(f"       expected {expected}")
    return 0 if ok else 1


def _run_demo(name: str) -> int:
    import cactusgrowth.cactus as cactus
    import cactusgrowth.growth as growth
    import cactusgrowth.oracles as oracles
    import cactusgrowth.weights as weights
    import cactusgrowth.words as words

    bad = 0
    if name == "bk":
        fix = _load_fixture("bk_example.json")
        print("demo bk: Bender-Knuth toggle through the conjugate-sequence local move")
        t = oracles.SemistandardTableau(tuple(tuple(r) for r in fix["tableau"]))
        bound = fix["entries_bound"]
        gt = [list(p.parts) for p in oracles.gt_pattern(t, bound)]
        bad += _check("Gelfand-Tsetlin pattern", gt, fix["gt_pattern"])
        dual = [list(p.parts) for p in oracles.dual_sequence(t, bound)]
        bad += _check("conjugate sequence", dual, fix["conjugate_sequence"])
        ctx = weights.CartanContext(weights.GL, max(len(p) for p in fix["conjugate_sequence"]))
        w = words.word_from_corners(ctx, [p + [0] * (ctx.rank - len(p)) for p in dual])
        moved = words.tau(w, 2)
        moved_seq = [[c for c in corner if c] for corner in moved.corners]
        bad += _check("sequence after the move at 2", moved_seq, fix["sequence_after_move"])
        back = oracles.tableau_from_dual_sequence(
            [oracles.Partition(p) for p in moved_seq]
        )
        gt_after = [list(p.parts) for p in oracles.gt_pattern(back, bound)]
        bad += _check("pattern after the move", gt_after, fix["gt_after_move"])
        bad += _check("toggled tableau", [list(r) for r in back.rows], fix["result"])
        direct = oracles.bender_knuth(t, 2)
        bad += _check("direct toggle agrees", [list(r) for r in direct.rows], fix["result"])
        return bad
    if name == "fig-cat":
        fix = _load_fixture("fig_cat.json")
        print("demo fig-cat: labelled action graph on the five (3,3) tableaux")
        tabs = {k: oracles.syt_from_string(v) for k, v in fix["tableaux"].items()}
        back = {v.rows: k for k, v in tabs.items()}
        defects = {tuple(d["edge"][0]) + tuple(d["edge"][1]) + tuple(d["edge"][2]): d
                   for d in fix["known_defects"]}
        for src, dst, (p, q) in (tuple(e) for e in fix["edges"]):
            w = words.syt_to_word(tabs[src].rows, rank=2)
            out = growth.act(cactus.parse_cactus_word(f"s({p},{q})", 6), w)
            got = back[words.word_to_syt(out)]
            key = tuple(src) + tuple(dst) + (p, q)
            if key in defects:
                d = defects[key]
                ok = got == d["computed_target"]
                print(f"  {'ok  ' if ok else 'FAIL'} s({p},{q}): {src} -> {got} "
                      f"(source figure prints {dst}; documented defect)")
                bad += 0 if ok else 1
            else:
                bad += _check(f"s({p},{q}): {src} -> {dst}", got, dst)
        return bad
    if name == "gl-window":
        fix = _load_fixture("gl_window.json")
        print("demo gl-window: GL window rows reproduced from the first row")
        ctx = weights.CartanContext(weights.GL, fix["rank"])
        top = words.word_from_corners(ctx, fix["rows"][0])
        win = growth.build_cylinder(top, len(fix["rows"]))
        got = [[list(c) for c in row] for row in win.rows]
        bad += _check("window rows", got, fix["rows"])
        return bad
    if name == "ex-sp":
        fix = _load_fixture("sp_window.json")
        print("demo ex-sp: symplectic cylindrical window (three printed values are")
        print("  internally inconsistent in the source; see known_defects in the fixture)")
        ctx = weights.CartanContext(weights.SP, fix["rank"])
        top = words.word_from_corners(ctx, fix["top_row"])
        win = growth.build_cylinder(top, 7)
        got = [[list(c) for c in row] for row in win.rows]
        bad += _check("window rows (consistent reading)", got, fix["consistent_rows"])
        start = words.word_from_corners(ctx, fix["printed_start_word"])
        bad += _check(
            "promotion of the top row is the printed start word",
            [list(c) for c in growth.promotion(top).corners],
            fix["printed_start_word"],
        )
        bad += _check(
            "promotion of the printed start word",
            [list(c) for c in growth.promotion(start).corners],
            fix["consistent_promotion_of_printed_start"],
        )
        bad += _check(
            "evacuation column of the window",
            [list(c) for c in growth.evacuation(top).corners],
            fix["evacuation_column_of_window"],
        )
        crossed = growth.wall_cross(cactus.CactusGen(3, 6), win)
        bad += _check(
            "wall crossing s(3,6) fixes the top row",
            [list(c) for c in crossed.row_word(0).corners],
            fix["s36_on_top_row"],
        )
        bad += _check(
            "s(3,6) on the printed start word",
            [list(c) for c in growth.act(cactus.parse_cactus_word("s(3,6)", 6), start).corners],
            fix["s36_on_printed_start"],
        )
        return bad
    raise UsageError(f"unknown demo {name!r}")


# -- argument parsing ---------------------------------------------------------
# One table drives parsing and help: a command is (handler, about, positional
# (dest, choices) or None, options), an option name -> (dest, type, default,
# required, choices, about), with type bool for a flag.


def _opt(name: str, typ: type = str, default=None, required: bool = False, choices=None, about: str = "") -> tuple:
    return name, (name[2:].replace("-", "_"), typ, default, required, choices, about)


_WORD_IO = (_opt("--input", about="path to a word JSON file"), _opt("--json", about="inline word JSON"),
            _opt("--demo", about="named demo input (fig-cat-A..E, ex-sp, ex-sp-top, gl-window)"))
_COMMANDS = {
    "act": (cmd_act, "apply a cactus word to a highest weight word", None, dict([
        _opt("--word", required=True, about='cactus word, e.g. "s(1,6) s(2,6)" (rightmost acts first)'),
        *_WORD_IO])),
    "evacuate": (cmd_evacuate, "apply the full prefix reversal s(1,r)", None,
                 dict([*_WORD_IO, _opt("--show-diagram", bool, False)])),
    "promote": (cmd_promote, "apply promotion s(1,r) s(2,r)", None, dict(_WORD_IO)),
    "tau": (cmd_tau, "apply the local move at one position", None,
            dict([_opt("--i", int, required=True), *_WORD_IO])),
    "cylinder": (cmd_cylinder, "build a cylindrical window from a top row", None,
                 dict([_opt("--depth", int, required=True), *_WORD_IO])),
    "validate": (cmd_validate, "validate a word or window JSON file cell by cell", None,
                 dict([_opt("--input", required=True)])),
    "crystal": (cmd_crystal, "materialized crystal utilities", ("crystal_cmd", ("dump", "decompose")), dict([
        _opt("--family", required=True, choices=("GL", "SL2", "Sp")), _opt("--rank", int, required=True),
        _opt("--kind", default="vector", about="vector | exterior:k | sl2"), _opt("--r", int, 2)])),
    "oracle": (cmd_oracle, "classical tableau algorithms", ("oracle_cmd", ("evacuate", "promote", "bk", "dk")),
               dict([_opt("--tableau", about="rows as digits, e.g. 134/256"),
                     _opt("--json", about="rows as a JSON array"), _opt("--i", int)])),
    "hecke": (cmd_hecke, "seminormal representation tools", ("hecke_cmd", ("check", "matrix")), dict([
        _opt("--shape", required=True, about="comma-separated partition, e.g. 3,2,1"),
        _opt("--op", default="tau", choices=("u", "t", "tau", "jm", "sigma")), _opt("--i", int, 1)])),
    "verify": (cmd_verify, "run invariant suites", ("suite", (*_SUITE_BOUNDS, "all")), dict([
        _opt("--r", int), _opt("--maxsize", int),
        _opt("--tiny", bool, False, about="small bounds for a quick smoke run")])),
    "demo": (cmd_demo, "reproduce the built-in worked examples",
             ("name", ("bk", "fig-cat", "gl-window", "ex-sp", "all")), {}),
}
_TOP = (None, __doc__, ("cmd", tuple(_COMMANDS)), dict([
    _opt("--format", default="json", choices=("json", "ascii")),
    _opt("--seed", int, 0, about="seed for randomized property sampling"),
    _opt("--max-size", int, 10**6,
         about="element cap for materialized crystals, Hecke bases and cylindrical windows")]))
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _is_option(tok: str, opts: dict) -> bool:
    """argparse's rule: "-", a negative number or a token with a space in it
    is a value, unless it is `--name=...` for a known name."""
    return tok[:1] == "-" and len(tok) > 1 and (
        tok.partition("=")[0] in opts or (" " not in tok and not _NEGATIVE_NUMBER(tok)))


def _convert(name: str, typ: type, choices: Optional[tuple], text):
    if typ is int:
        try:
            text = int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if choices and text not in choices:
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return text


def _help(cmd: Optional[str]) -> str:
    _, about, pos, opts = _COMMANDS[cmd] if cmd else _TOP
    usage, lines = [f"usage: cactusgrowth{' ' + cmd if cmd else ''} [-h]"], []
    for name, (dest, typ, _, required, choices, text) in opts.items():
        arg = name if typ is bool else f"{name} {'{' + ','.join(choices) + '}' if choices else dest.upper()}"
        usage.append(arg if required else f"[{arg}]")
        lines.append(f"  {arg:<24} {text}".rstrip())
    if pos:
        usage.append("{%s}%s" % (",".join(pos[1]), "" if cmd else " ..."))
    lines += [] if cmd else [f"  {c:<24} {spec[1]}" for c, spec in _COMMANDS.items()]
    return "\n".join([" ".join(usage), "", about.strip(), "", *lines])


def _parse_args(argv: Optional[list[str]] = None) -> SimpleNamespace:
    """A fresh namespace from the table, with argparse's values and messages."""
    argv = sys.argv[1:] if argv is None else argv
    cmd, (fn, _, pos, opts) = None, _TOP
    values = {"cmd": None, **{spec[0]: spec[2] for spec in opts.values()}}
    extras, k = [], 0
    while k < len(argv):
        tok, k = argv[k], k + 1
        if tok in ("-h", "--help"):
            print(_help(cmd))
            raise SystemExit(EXIT_OK)
        name, eq, text = tok.partition("=")
        option = _is_option(tok, opts)
        if (name not in opts) if option else (pos is None):  # an unknown option, or a value with no taker
            extras.append(tok)
        elif not option:
            values[pos[0]] = _convert(pos[0], str, pos[1], tok)
            pos = None
            if cmd is None:  # the command: the rest of argv is its own
                cmd, (fn, _, pos, opts) = tok, _COMMANDS[tok]
                values.update({spec[0]: spec[2] for spec in opts.values()}, fn=fn)
        else:
            dest, typ, _, _, choices, _ = opts[name]
            if typ is bool and eq:
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            if typ is bool:
                text = True
            elif not eq:
                if k == len(argv) or _is_option(argv[k], opts):
                    raise UsageError(f"argument {name}: expected one argument")
                text, k = argv[k], k + 1
            values[dest] = _convert(name, typ, choices, text)
    # a required option has no default, so None means it was not given
    missing = [pos[0]] if pos else []
    missing += [name for name, spec in opts.items() if spec[3] and values[spec[0]] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def build_parser() -> SimpleNamespace:
    return SimpleNamespace(parse_args=_parse_args)


# Built by the first call to main and reused by every later one; parse_args
# fills a fresh namespace each time, so no value carries over between calls.
_PARSER: Optional[SimpleNamespace] = None


def main(argv: Optional[list[str]] = None) -> int:
    # Imported on every call, like the layers the handlers import, so that
    # errors.DomainError is the base their errors derive from even after
    # the package has been imported afresh in this process.
    import cactusgrowth.errors as errors

    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help; argument errors raise UsageError instead
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:  # also json.JSONDecodeError and ParseError
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
