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
# the Hecke algebra, the oracles or the verification suites, and the
# handlers other than act, and --help, are in commands.  In process those imports run
# on every request; the absolute form `import cactusgrowth.x as x` costs
# about a third of `from . import x`, which calls back into importlib's
# Python code.
from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .words import HighestWeightWord

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _read_word(args) -> HighestWeightWord:
    import cactusgrowth.words as words

    if len([s for s in (args.input, args.json, args.demo) if s]) != 1:
        raise _usage("provide exactly one of --input, --json, --demo")
    if args.demo:
        return _function("_demo_word")(args.demo)
    if args.input:
        with open(args.input) as fh:
            return words.word_from_json(json.load(fh))
    return words.word_from_json(json.loads(args.json))


def _usage(message: str) -> Exception:
    """errors.UsageError(message), looked up at call time as in main."""
    import cactusgrowth.errors as errors

    return errors.UsageError(message)


def _emit_word(w: HighestWeightWord, fmt: str) -> None:
    if fmt == "ascii":
        import cactusgrowth.windows as windows

        print(windows.render_word_ascii(w))
    else:
        import cactusgrowth.words as words

        print(words.json_text(w.context, w.steps, "corners", w.corners))


# -- subcommand handlers -----------------------------------------------------


def cmd_act(args) -> int:
    import cactusgrowth.cactus as cactus
    import cactusgrowth.growth as growth

    w = _read_word(args)
    g = cactus.parse_cactus_word(args.word, w.r)
    out = growth.act(g, w)
    _emit_word(out, args.format)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------
# One table drives parsing and help: a command is (handler name, about,
# positional (dest, choices) or None, options), an option name -> (dest, type,
# default, required, choices, about), with type bool for a flag.  A handler
# not defined here is looked up in commands.


def _opt(name: str, typ: type = str, default=None, required: bool = False, choices=None, about: str = "") -> tuple:
    return name, (name[2:].replace("-", "_"), typ, default, required, choices, about)


_WORD_IO = (_opt("--input", about="path to a word JSON file"), _opt("--json", about="inline word JSON"),
            _opt("--demo", about="named demo input (fig-cat-A..E, ex-sp, ex-sp-top, gl-window)"))
_COMMANDS = {
    "act": ("cmd_act", "apply a cactus word to a highest weight word", None, dict([
        _opt("--word", required=True, about='cactus word, e.g. "s(1,6) s(2,6)" (rightmost acts first)'),
        *_WORD_IO])),
    "evacuate": ("cmd_evacuate", "apply the full prefix reversal s(1,r)", None,
                 dict([*_WORD_IO, _opt("--show-diagram", bool, False)])),
    "promote": ("cmd_promote", "apply promotion s(1,r) s(2,r)", None, dict(_WORD_IO)),
    "tau": ("cmd_tau", "apply the local move at one position", None,
            dict([_opt("--i", int, required=True), *_WORD_IO])),
    "cylinder": ("cmd_cylinder", "build a cylindrical window from a top row", None,
                 dict([_opt("--depth", int, required=True), *_WORD_IO])),
    "validate": ("cmd_validate", "validate a word or window JSON file cell by cell", None,
                 dict([_opt("--input", required=True)])),
    "crystal": ("cmd_crystal", "materialized crystal utilities", ("crystal_cmd", ("dump", "decompose")), dict([
        _opt("--family", required=True, choices=("GL", "SL2", "Sp")), _opt("--rank", int, required=True),
        _opt("--kind", default="vector", about="vector | exterior:k | sl2"), _opt("--r", int, 2)])),
    "oracle": ("cmd_oracle", "classical tableau algorithms", ("oracle_cmd", ("evacuate", "promote", "bk", "dk")),
               dict([_opt("--tableau", about="rows as digits, e.g. 134/256"),
                     _opt("--json", about="rows as a JSON array"), _opt("--i", int)])),
    "hecke": ("cmd_hecke", "seminormal representation tools", ("hecke_cmd", ("check", "matrix")), dict([
        _opt("--shape", required=True, about="comma-separated partition, e.g. 3,2,1"),
        _opt("--op", default="tau", choices=("u", "t", "tau", "jm", "sigma")), _opt("--i", int, 1)])),
    "verify": ("cmd_verify", "run invariant suites", ("suite", (  # the names of suites.SUITES
        "algebra", "weights", "crystal", "cactus", "taupresentation", "hecke", "heckecactus", "oracle",
        "morphism", "wallcross", "all")), dict([
        _opt("--r", int, about="replaces r_max in the suites that have one"),
        _opt("--maxsize", int, about="replaces max_boxes in the suites that have one"),
        _opt("--tiny", bool, False, about="small bounds for a quick smoke run")])),
    "demo": ("cmd_demo", "reproduce the built-in worked examples",
             ("name", ("bk", "fig-cat", "gl-window", "ex-sp", "all")), {}),
}
_TOP = (None, __doc__, ("cmd", tuple(_COMMANDS)), dict([
    _opt("--format", default="json", choices=("json", "ascii")),
    _opt("--seed", int, 0, about="seed for randomized property sampling"),
    _opt("--max-size", int, 10**6,
         about="element cap for materialized crystals, Hecke bases and cylindrical windows")]))
# each command's option defaults, and the global ones (None) with no command yet
_DEFAULTS = {cmd: {spec[0]: spec[2] for spec in opts.values()} for cmd, (_, _, _, opts) in _COMMANDS.items()}
_DEFAULTS[None] = {"cmd": None, **{spec[0]: spec[2] for spec in _TOP[3].values()}}
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
            raise _usage(f"argument {name}: invalid int value: {text!r}") from None
    if choices and text not in choices:
        raise _usage(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return text


def _parse_args(argv: Optional[list[str]] = None) -> SimpleNamespace:
    """A fresh namespace from the table, with argparse's values and messages."""
    argv = sys.argv[1:] if argv is None else argv
    cmd, (fn, _, pos, opts) = None, _TOP
    values = dict(_DEFAULTS[None])
    extras, k = [], 0
    while k < len(argv):
        tok, k = argv[k], k + 1
        spec = opts.get(tok)  # `--name value` for a known option that takes a value, in one lookup
        if spec is not None and spec[1] is not bool and k < len(argv) and not _is_option(argv[k], opts):
            values[spec[0]] = _convert(tok, spec[1], spec[4], argv[k])
            k += 1
            continue
        if tok in ("-h", "--help"):
            print(_function("_help")(cmd))
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
                values.update(_DEFAULTS[cmd], fn=_function(fn))
        else:
            dest, typ, _, _, choices, _ = opts[name]
            if typ is bool and eq:
                raise _usage(f"argument {name}: ignored explicit argument {text!r}")
            if typ is bool:
                text = True
            elif not eq:  # `--name value` was taken above, so no value follows
                raise _usage(f"argument {name}: expected one argument")
            values[dest] = _convert(name, typ, choices, text)
    # a required option has no default, so None means it was not given
    missing = [pos[0]] if pos else []
    missing += [name for name, spec in opts.items() if spec[3] and values[spec[0]] is None]
    if missing:
        raise _usage(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _usage(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _function(name: str):
    """This module's function `name`, or else the commands module's."""
    if name in globals():
        return globals()[name]
    import cactusgrowth.commands as commands

    return getattr(commands, name)


def build_parser() -> SimpleNamespace:
    return SimpleNamespace(parse_args=_parse_args)


def main(argv: Optional[list[str]] = None) -> int:
    # Imported on every call, like the layers the handlers import, so that
    # errors.DomainError is the base their errors derive from, and
    # errors.UsageError the class commands raises, even after the package
    # has been imported afresh in this process.
    import cactusgrowth.errors as errors

    try:
        args = _parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help; argument errors raise UsageError instead
        return EXIT_OK
    except errors.UsageError as exc:
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
    sys.modules.setdefault("cactusgrowth.cli", sys.modules[__name__])  # as commands imports it
    sys.exit(main())
