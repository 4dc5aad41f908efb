"""The CLI handlers other than act, the --help text and the demo inputs.
cli imports this module when a request first needs it, so a cold `act` does
not compile it; each handler imports its layers where it calls them, as in cli.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .cli import _COMMANDS, _TOP, EXIT_OK, EXIT_VERIFY, _emit_word, _read_word, _usage

if TYPE_CHECKING:
    from .oracles import StandardTableau
    from .words import HighestWeightWord


def _help(cmd: Optional[str]) -> str:
    """The --help text of a command (None: the global options and the commands)."""
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


def cmd_evacuate(args) -> int:
    import cactusgrowth.growth as growth

    w = _read_word(args)
    if args.format == "ascii" and args.show_diagram:
        import cactusgrowth.windows as windows

        print(windows.render_triangle_ascii(w))
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
    if args.format == "ascii":
        import cactusgrowth.windows as windows

        print(windows.render_window_ascii(win))
    else:
        import cactusgrowth.words as words

        print(words.json_text(win.context, win.steps, "rows", win.rows))
    return EXIT_OK


def cmd_validate(args) -> int:
    import cactusgrowth.growth as growth
    import cactusgrowth.weights as weights
    import cactusgrowth.windows as windows
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
            ok = windows.validate_window(win)
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
    components = [{"weight": list(wt), "count": cnt, "size": size}
                  for wt, (cnt, size) in sorted(census.items(), reverse=True)]
    print(json.dumps({"crystal_size": c.n, "r": args.r, "components": components}))
    return EXIT_OK


def _tableau_json(text: str) -> list[list[int]]:
    """Tableau rows from JSON, which must be a list of lists of ints."""
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(isinstance(r, list) and all(type(v) is int for v in r) for r in rows)):
        raise ValueError("tableau JSON must be a list of lists of ints")
    return rows


def _read_tableau(args) -> StandardTableau:
    import cactusgrowth.oracles as oracles

    if args.tableau:
        return oracles.syt_from_string(args.tableau)
    if args.json:
        return oracles.StandardTableau(_tableau_json(args.json))
    raise _usage("provide --tableau or --json")


def cmd_oracle(args) -> int:
    import cactusgrowth.oracles as oracles

    if args.tableau and args.json:
        raise _usage("provide exactly one of --tableau, --json")
    op = args.oracle_cmd
    if op in ("evacuate", "promote", "dk"):
        t = _read_tableau(args)
        if op == "evacuate":
            out = oracles.evacuation_oracle(t)
        elif op == "promote":
            out = oracles.promotion_oracle(t)
        else:
            if args.i is None:
                raise _usage("dk needs --i")
            out = oracles.dual_knuth(t, args.i)
        print(json.dumps([list(r) for r in out.rows]))
        return EXIT_OK
    if op == "bk":
        if args.json:
            t = oracles.SemistandardTableau(_tableau_json(args.json))
        elif args.tableau:
            t = oracles.SemistandardTableau(oracles.rows_from_string(args.tableau))
        else:
            raise _usage("bk needs --tableau or --json")
        if args.i is None:
            raise _usage("bk needs --i")
        out = oracles.bender_knuth(t, args.i)
        print(json.dumps([list(r) for r in out.rows]))
        return EXIT_OK
    raise _usage(f"unknown oracle {op!r}")


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        # int() would also take signs and digit separators: "2_1" is not (2, 1)
        if p and not (p.isascii() and p.isdigit()):
            raise ValueError(f"shape {text!r}: part {p!r} is not a decimal number")
    shape = tuple(int(p) for p in parts if p)
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

    srep = hecke.SeminormalRep(shape)
    op = args.op
    if op in ("u", "t", "tau"):
        text = hecke.generator_grid(srep, args.i, op)
    elif op == "jm":
        text = hecke.jm_matrix(srep, args.i).pretty()
    elif op == "sigma":
        # always at 1, but --i is checked before the product (r < 2 is sigma_vv's refusal)
        if srep.r >= 2:
            srep._check_index(args.i)
        text = hecke.sigma_vv(srep).pretty()
    else:
        raise _usage(f"unknown operator {op!r}")
    print(f"{srep.table.basis_line}\n{text}")
    return EXIT_OK


def cmd_verify(args) -> int:
    import cactusgrowth.suites as suites

    if args.tiny and (args.r is not None or args.maxsize is not None):
        raise _usage("--tiny sets its own bounds: drop --r and --maxsize")
    for flag, bound in (("--r", args.r), ("--maxsize", args.maxsize)):
        if bound is not None and bound < 2:
            raise _usage(f"{flag} must be at least 2, got {bound}")
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    overrides = {"seed": args.seed, "r_max": args.r, "max_boxes": args.maxsize}
    if args.suite != "all":  # a bound the named suite does not have would be dropped
        for flag, key in (("--r", "r_max"), ("--maxsize", "max_boxes")):
            if overrides[key] is not None and key not in suites.SUITES[args.suite].full:
                raise _usage(f"suite {args.suite} has no {key} for {flag} to replace")
    failures = 0
    checks = 0
    for name in names:
        suite = suites.SUITES[name]
        kwargs = dict(suite.tiny if args.tiny else suite.full)
        kwargs.update((k, v) for k, v in overrides.items() if k in kwargs and v is not None)
        rep = suite.check(**kwargs)
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
        back = oracles.tableau_from_dual_sequence([oracles.Partition(p) for p in moved_seq])
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
        checks = [
            ("promotion of the top row is the printed start word", growth.promotion(top), "printed_start_word"),
            ("promotion of the printed start word", growth.promotion(start), "consistent_promotion_of_printed_start"),
            ("evacuation column of the window", growth.evacuation(top), "evacuation_column_of_window"),
            ("wall crossing s(3,6) fixes the top row",
             growth.wall_cross(cactus.CactusGen(3, 6), win).row_word(0), "s36_on_top_row"),
            ("s(3,6) on the printed start word",
             growth.act(cactus.parse_cactus_word("s(3,6)", 6), start), "s36_on_printed_start"),
        ]
        for label, got_word, key in checks:
            bad += _check(label, [list(c) for c in got_word.corners], fix[key])
        return bad
    raise _usage(f"unknown demo {name!r}")
