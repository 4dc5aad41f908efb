import hashlib
import importlib
import json
import os
import shlex
import time

import pytest

import cactusgrowth.cli as cli
import cactusgrowth.commands as commands
import cactusgrowth.crystal as crystal_module
import cactusgrowth.growth as growth_module
from cactusgrowth import suites
from cactusgrowth.cli import build_parser, main
from cactusgrowth.errors import DEFAULT_SIZE_CAP, DomainError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_readme_usage_line_exits_0(capsys, monkeypatch, tmp_path):
    """Each line of the README's CLI block, run in process from a directory
    holding the word.json and window.json it reads."""
    with open(README) as fh:
        block = fh.read().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    monkeypatch.chdir(tmp_path)
    word = {"context": {"family": "Sp", "rank": 2}, "corners": [[0, 0], [1, 0], [1, 1], [1, 0], [1, 1], [1, 0], [0, 0]]}
    (tmp_path / "word.json").write_text(json.dumps(word))
    code, window, _ = run(capsys, "cylinder", "--depth", "3", "--input", "word.json")
    assert code == 0
    (tmp_path / "window.json").write_text(window)
    assert len(lines) == 17
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cactusgrowth"
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (line, err)


def test_act_demo_fig_cat(capsys):
    code, out, _ = run(capsys, "act", "--word", "s(1,6)", "--demo", "fig-cat-C")
    assert code == 0
    payload = json.loads(out)
    assert payload["corners"] == [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [3, 2], [3, 3]]  # 125/346


def test_act_empty_word_echoes(capsys):
    code, out, _ = run(capsys, "act", "--word", "", "--demo", "fig-cat-A")
    assert code == 0
    payload = json.loads(out)
    assert payload["corners"][-1] == [3, 3]
    assert payload["corners"][1] == [1, 0]


def test_act_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "act", "--word", "s(1,", "--demo", "fig-cat-A")
    assert code == 2
    assert "parse error" in err


def test_act_domain_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "word.json"
    bad.write_text(json.dumps({"context": {"family": "GL", "rank": 2}, "steps": None,
                               "corners": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    code, _, err = run(capsys, "act", "--word", "s(1,2)", "--input", str(bad))
    assert code == 3
    assert "domain error" in err


def test_act_requires_one_source(capsys):
    code, _, err = run(capsys, "act", "--word", "s(1,2)")
    assert code == 2


def test_argparse_error_is_one_line(capsys):
    for _ in range(2):  # the second round parses with the parser main kept
        code, out, err = run(capsys, "act")
        assert code == 2
        assert out == "" and err.splitlines() == ["usage error: the following arguments are required: --word"]
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: cactusgrowth")


def test_evacuate_and_promote_json(capsys, tmp_path):
    word = {"context": {"family": "Sp", "rank": 2}, "steps": ["vector"] * 6,
            "corners": [[0, 0], [1, 0], [1, 1], [1, 0], [1, 1], [1, 0], [0, 0]]}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(word))
    code, out, _ = run(capsys, "evacuate", "--input", str(f))
    assert code == 0
    assert json.loads(out)["corners"] == word["corners"]  # this word is evacuation-fixed
    code, out, _ = run(capsys, "promote", "--input", str(f))
    assert code == 0
    assert json.loads(out)["corners"] == [[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [1, 0], [0, 0]]


def test_tau_subcommand(capsys, tmp_path):
    word = {"context": {"family": "GL", "rank": 2},
            "corners": [[0, 0], [1, 0], [2, 0], [2, 1]]}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(word))
    code, out, _ = run(capsys, "tau", "--i", "2", "--input", str(f))
    assert code == 0
    assert json.loads(out)["corners"] == [[0, 0], [1, 0], [1, 1], [2, 1]]
    code, _, err = run(capsys, "tau", "--i", "3", "--input", str(f))
    assert code == 2  # index out of range is a usage-level ValueError


def test_cylinder_and_validate(capsys, tmp_path):
    word = {"context": {"family": "GL", "rank": 2},
            "corners": [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]]}
    f = tmp_path / "w.json"
    f.write_text(json.dumps(word))
    code, out, _ = run(capsys, "cylinder", "--depth", "3", "--input", str(f))
    assert code == 0
    win = json.loads(out)
    assert len(win["rows"]) == 3
    g = tmp_path / "win.json"
    g.write_text(json.dumps(win))
    code, out, _ = run(capsys, "validate", "--input", str(g))
    assert code == 0 and "valid" in out
    win["rows"][1][2] = [2, 0]
    g.write_text(json.dumps(win))
    code, out, _ = run(capsys, "validate", "--input", str(g))
    assert code == 1 and "invalid" in out


def test_validate_window_with_a_bad_top_row_is_invalid(capsys, tmp_path):
    # [0,0] -> [2,0] is not a GL(2) step: the same verdict as for a bad lower row
    win = {"context": {"family": "GL", "rank": 2}, "rows": [[[0, 0], [2, 0], [2, 1]], [[0, 0], [1, 0], [2, 1]]]}
    f = tmp_path / "win.json"
    f.write_text(json.dumps(win))
    assert run(capsys, "validate", "--input", str(f)) == (1, "invalid\n", "")


def test_ascii_format(capsys):
    code, out, _ = run(capsys, "--format", "ascii", "act", "--word", "", "--demo", "ex-sp")
    assert code == 0
    assert out.strip() == "[]  [1]  [11]  [1]  [11]  [1]  []"


def test_act_output_reads_back(capsys):
    word = '{"context":{"family":"GL","rank":2},"steps":["exterior(1)","exterior(1)"],"corners":[[0,0],[1,0],[1,1]]}'
    code, out, _ = run(capsys, "act", "--word", "s(1,2)", "--json", word)
    assert code == 0 and json.loads(out)["steps"] == ["exterior(1)", "exterior(1)"]
    again, out_again, err = run(capsys, "act", "--word", "s(1,2)", "--json", out)
    assert again == 0 and err == ""
    assert json.loads(out_again) == json.loads(word)


def test_crystal_dump_and_decompose(capsys):
    code, out, _ = run(capsys, "crystal", "dump", "--family", "Sp", "--rank", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == ["1", "2", "-2", "-1"]
    code, out, _ = run(capsys, "crystal", "decompose", "--family", "SL2", "--rank", "1",
                       "--kind", "sl2", "--r", "6")
    assert code == 0
    payload = json.loads(out)
    table = {tuple(c["weight"]): (c["count"], c["size"]) for c in payload["components"]}
    assert table[(0,)] == (5, 1)  # Catalan(3) trivial components


def test_crystal_dump_output_is_pinned_byte_for_byte(capsys):
    """Every minuscule crystal of GL(1..5) (vector and each exterior power),
    Sp(2..8) and SL2 (sl2 and vector): exit code, stdout and stderr hashed
    in order."""
    grid = [("GL", n, kind) for n in range(1, 6) for kind in ("vector", *(f"exterior:{k}" for k in range(n + 1)))]
    grid += [("Sp", n, "vector") for n in range(1, 5)] + [("SL2", 1, "sl2"), ("SL2", 1, "vector")]
    h = hashlib.sha256()
    for family, rank, kind in grid:
        code, out, err = run(capsys, "crystal", "dump", "--family", family, "--rank", str(rank), "--kind", kind)
        h.update(f"{code}\n{out}\n{err}".encode())
    assert len(grid) == 31
    assert h.hexdigest() == "bca88e3a9fda5fae53929573374a0a723bff3249e9daf08659ca776086ddd0fa"


@pytest.mark.parametrize("family, rank, kind, message", [
    ("SL2", "1", "exterior:1", "exterior(1) invalid in SL2"),
    ("Sp", "2", "exterior:2", "exterior(2) invalid in Sp(4)"),
    ("GL", "3", "sl2", "sl2 invalid in GL(3)"),
    ("GL", "3", "exterior:4", "exterior power 4 out of range for GL(3)"),
])
def test_crystal_of_a_kind_outside_its_family_exits_3(capsys, family, rank, kind, message):
    # the rule of StepKind.fundamental_weight, as for a word's steps
    for command in ("dump", "decompose"):
        argv = ["crystal", command, "--family", family, "--rank", rank, "--kind", kind]
        assert run(capsys, *argv) == (3, "", f"domain error: {message}\n")


@pytest.mark.parametrize("argv", [
    # a one-element factor: |B|^r = 1, but r alone is over the cap
    ["crystal", "decompose", "--family", "GL", "--rank", "2", "--kind", "exterior:2", "--r", "1000000000"],
    ["--max-size", "100", "crystal", "decompose", "--family", "GL", "--rank", "2", "--r", "12"],
    # the base crystal B alone is over the cap (|B| x rank): refused before it is built
    ["--max-size", "100", "crystal", "dump", "--family", "GL", "--rank", "24", "--kind", "exterior:12"],
    ["crystal", "decompose", "--family", "GL", "--rank", "40", "--kind", "exterior:20", "--r", "1"],
    ["crystal", "dump", "--family", "Sp", "--rank", "100000"],
    # a rank over the cap: refused before the highest weight's rank coordinates exist
    ["crystal", "dump", "--family", "Sp", "--rank", "1000000000"],
    ["crystal", "dump", "--family", "GL", "--rank", "1000000000"],
    ["crystal", "decompose", "--family", "GL", "--rank", "1000000000", "--kind", "exterior:3", "--r", "1"],
])
def test_crystal_power_over_the_size_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error: ")


def test_crystal_decompose_never_builds_the_power(capsys, monkeypatch):
    def no_product(*args, **kwargs):
        raise AssertionError("a tensor product was built")

    monkeypatch.setattr(crystal_module, "tensor", no_product)
    monkeypatch.setattr(crystal_module, "tensor_power", no_product)
    code, out, err = run(capsys, "crystal", "decompose", "--family", "GL", "--rank", "3", "--r", "5")
    assert code == 0 and err == ""
    assert json.loads(out) == {"crystal_size": 3, "r": 5, "components": [
        {"weight": [5, 0, 0], "count": 1, "size": 21}, {"weight": [4, 1, 0], "count": 4, "size": 24},
        {"weight": [3, 2, 0], "count": 5, "size": 15}, {"weight": [3, 1, 1], "count": 6, "size": 6},
        {"weight": [2, 2, 1], "count": 5, "size": 3}]}


def test_verify_crystal_reports_a_census_with_one_unit_moved(capsys, monkeypatch):
    real = crystal_module.decompose

    def moved(c, r, size_cap=DEFAULT_SIZE_CAP):
        # one component moves between two weights of equal size, so the
        # total is still len(c)^r: GL(3) r=4 has (4,0,0) and (3,1,0) of size 15
        census = dict(real(c, r, size_cap))
        by_size = {}
        for wt, (count, size) in census.items():
            by_size.setdefault(size, []).append(wt)
        equal = [wts for wts in by_size.values() if len(wts) > 1]
        if equal:
            a, b = equal[0][:2]
            census[a], census[b] = (census[a][0] + 1, census[a][1]), (census[b][0] - 1, census[b][1])
        return census

    monkeypatch.setattr(crystal_module, "decompose", moved)
    code, out, _ = run(capsys, "verify", "crystal", "--r", "4")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[1] for line in lines if line.startswith("FAIL:")] == [" GL(3) r=4"]
    assert json.loads(lines[-1])["failures"] == 1


def test_oracle_subcommands(capsys):
    code, out, _ = run(capsys, "oracle", "evacuate", "--tableau", "134/256")
    assert code == 0 and json.loads(out) == [[1, 2, 5], [3, 4, 6]]
    code, out, _ = run(capsys, "oracle", "promote", "--tableau", "12/34")
    assert code == 0 and json.loads(out) == [[1, 3], [2, 4]]
    code, out, _ = run(capsys, "oracle", "bk", "--tableau", "1112/23/4", "--i", "2")
    assert code == 0 and json.loads(out) == [[1, 1, 1, 3], [2, 3], [4]]
    code, out, _ = run(capsys, "oracle", "dk", "--tableau", "123/456", "--i", "2")
    assert code == 0 and json.loads(out) == [[1, 2, 4], [3, 5, 6]]


def assert_one_line_exit_2(code, out, err):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["oracle", "evacuate", "--json", "[1]"],
    ["oracle", "bk", "--json", "[1]", "--i", "1"],
    ["oracle", "evacuate", "--json", "{}"],
    # the one line must name the input that does not parse, not repeat int()'s own text
    ["evacuate", "--json", json.dumps({"context": {"family": "GL", "rank": 2}, "steps": ["exterior:x", "vector"],
                                       "corners": [[0, 0], [1, 1], [2, 1]]})],
    ["crystal", "dump", "--family", "GL", "--rank", "2", "--kind", "exterior:x"],
    ["oracle", "evacuate", "--tableau", "1 2/3"],
])
def test_malformed_tableau_json_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_line_exit_2(code, out, err)
    assert "int()" not in err


@pytest.mark.parametrize("argv,message", [
    (["oracle", "bk", "--json", "[[0]]", "--i", "1"], "entries >= 1"),
    (["oracle", "bk", "--json", "[[-1]]", "--i", "1"], "entries >= 1"),
    (["oracle", "bk", "--tableau", "1/", "--i", "1"], "rows must be nonempty"),
    (["oracle", "evacuate", "--json", "[[1,2],[]]"], "rows must be nonempty"),
])
def test_oracle_refuses_entries_below_one_and_empty_rows(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert_one_line_exit_2(code, out, err)
    assert message in err


@pytest.mark.parametrize("op", ["evacuate", "promote", "bk", "dk"])
def test_oracle_with_two_tableau_sources_exit_2(capsys, op):
    code, out, err = run(capsys, "oracle", op, "--tableau", "12/3", "--json", "[[1]]", "--i", "1")
    assert_one_line_exit_2(code, out, err)
    assert err == "usage error: provide exactly one of --tableau, --json\n"


@pytest.mark.parametrize("argv", [["--family", "GL", "--rank", "0"], ["--family", "SL2", "--rank", "2"],
                                  ["--family", "Sp", "--rank", "x"]])
def test_crystal_bad_rank_exit_2(capsys, argv):
    assert_one_line_exit_2(*run(capsys, "crystal", "decompose", *argv, "--r", "2"))


@pytest.mark.parametrize("rows", [[], [1], [[1]], [[[0, 0], [1, 0]], [[0, 0], [1]]]])
def test_malformed_window_rows_exit_2(capsys, tmp_path, rows):
    f = tmp_path / "win.json"
    f.write_text(json.dumps({"context": {"family": "GL", "rank": 2}, "steps": [], "rows": rows}))
    assert_one_line_exit_2(*run(capsys, "validate", "--input", str(f)))


@pytest.mark.parametrize("payload", [
    {"rows": [[[0, 0]]]},
    5,
    [],
    {},
    {"context": 3, "rows": [[[0, 0]]]},
    {"context": {"family": "GL", "rank": 2}},
    {"context": {"family": "GL", "rank": 2}, "corners": [[0, 0]], "steps": 5},
])
def test_validate_payload_without_a_context_or_corners_exit_2(capsys, tmp_path, payload):
    f = tmp_path / "payload.json"
    f.write_text(json.dumps(payload))
    assert_one_line_exit_2(*run(capsys, "validate", "--input", str(f)))


@pytest.mark.parametrize("argv", [
    ["verify", "cactus", "--r", "1"],
    ["verify", "hecke", "--maxsize", "-1"],
    ["verify", "oracle", "--maxsize", "0"],
    # a bound the named suite does not have would be dropped
    ["verify", "taupresentation", "--r", "3"],
    ["verify", "hecke", "--r", "2"],
    ["verify", "oracle", "--r", "3"],
    ["verify", "morphism", "--r", "9"],
    ["verify", "cactus", "--maxsize", "4"],
])
def test_verify_refuses_bounds_that_check_nothing(capsys, argv):
    assert_one_line_exit_2(*run(capsys, *argv))


def test_verify_applies_r_and_maxsize_to_the_row(capsys):
    code, out, _ = run(capsys, "verify", "heckecactus", "--r", "3", "--maxsize", "3")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["checks"] < 125


def test_verify_all_applies_a_bound_only_where_a_suite_has_it(capsys, monkeypatch):
    seen = {}

    def row(name, **full):
        def check(**kwargs):
            seen[name] = kwargs
            return suites.SuiteReport(name, 1)
        return suites.Suite(check, full, full, None)

    monkeypatch.setattr(suites, "SUITES", {
        "a": row("a", r_max=6, seed=0), "b": row("b", r=5), "c": row("c", max_boxes=8), "d": row("d")})
    code, out, _ = run(capsys, "--seed", "4", "verify", "all", "--r", "3", "--maxsize", "4")
    assert code == 0 and json.loads(out.splitlines()[-1]) == {"suites": 4, "checks": 4, "failures": 0}
    assert seen == {"a": {"r_max": 3, "seed": 4}, "b": {"r": 5}, "c": {"max_boxes": 4}, "d": {}}


def test_hecke_check_and_matrix(capsys):
    code, out, _ = run(capsys, "hecke", "check", "--shape", "2,1")
    assert code == 0 and out.splitlines() == ["hecke identities for shape (2, 1): 27 checks, ok"]
    code, out, _ = run(capsys, "hecke", "check", "--shape", "1")
    assert code == 0 and out.endswith("checks, ok\n")
    code, out, _ = run(capsys, "hecke", "matrix", "--shape", "2,1", "--op", "tau", "--i", "2")
    assert code == 0
    assert "basis: 12/3 13/2" in out


def test_hecke_error_exit_codes(capsys):
    # a domain error is a ValueError too, but exits 3, not 2
    code, out, err = run(capsys, "hecke", "matrix", "--shape", "3,2", "--op", "tau", "--i", "7")
    assert code == 3 and out == ""
    assert err.splitlines() == ["domain error: generator index 7 out of range for r=5"]
    code, out, err = run(capsys, "hecke", "matrix", "--shape", "3,x")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("parse error: ")


def test_hecke_sigma_checks_its_index(capsys, monkeypatch):
    import cactusgrowth.hecke as hecke

    # refused before sigma_VV is built
    with monkeypatch.context() as m:
        m.setattr(hecke, "sigma_vv", lambda rep: pytest.fail("sigma_vv built for an index out of range"))
        code, out, err = run(capsys, "hecke", "matrix", "--shape", "2,1", "--op", "sigma", "--i", "99")
    assert code == 3 and out == ""
    assert err.splitlines() == ["domain error: generator index 99 out of range for r=3"]
    code, out, _ = run(capsys, "hecke", "matrix", "--shape", "2,1", "--op", "sigma")
    assert code == 0 and out.startswith("basis: 12/3 13/2")


def test_hecke_shape_over_the_size_cap(capsys):
    # 7 646 001 090 standard tableaux: refused from the hook-length count
    code, out, err = run(capsys, "hecke", "matrix", "--shape", "10,10,10")
    assert code == 3 and out == ""
    assert err.splitlines() == ["domain error: shape 10,10,10 has 7646001090 standard tableaux, "
                                "over the cap of 1000000"]
    code, out, err = run(capsys, "--max-size", "4", "hecke", "matrix", "--shape", "3,2")
    assert code == 3 and out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    code, _, err = run(capsys, "--max-size", "4", "hecke", "check", "--shape", "3,2")
    assert code == 3 and len(err.splitlines()) == 1


def test_hecke_size_cap_is_checked_before_the_shape_table(capsys, monkeypatch):
    import cactusgrowth.hecke as hecke

    code, out, _ = run(capsys, "hecke", "matrix", "--shape", "3,2")
    assert code == 0 and out.startswith("basis: 123/45 ")
    # the table of (3, 2) is built, and the cap still refuses the shape, before reading it
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(hecke, "shape_table", lambda shape: pytest.fail("shape table read over the cap"))
        for sub in ("matrix", "check"):
            code, out, err = run(capsys, "--max-size", "4", "hecke", sub, "--shape", "3,2")
            assert code == 3 and out == ""
            assert err.splitlines() == ["domain error: shape 3,2 has 5 standard tableaux, over the cap of 4"]


def test_hecke_matrix_of_a_long_row_is_quick(capsys):
    # 1000 boxes, one standard tableau: the basis is enumerated without recursion
    start = time.perf_counter()
    code, out, err = run(capsys, "hecke", "matrix", "--shape", "1000", "--i", "1")
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "basis: " + "".join(map(str, range(1, 1001)))
    assert out.splitlines()[1:] == ["[ 1 ]"]


def test_hecke_shape_within_the_size_cap(capsys):
    code, out, _ = run(capsys, "hecke", "matrix", "--shape", "3,2")
    assert code == 0 and out.startswith("basis: 123/45 ")
    code, out, _ = run(capsys, "--max-size", "5", "hecke", "matrix", "--shape", "3,2")
    assert code == 0


def test_hecke_shape_that_is_not_a_partition(capsys):
    for shape in ("1,2", "-1"):
        code, out, err = run(capsys, "hecke", "matrix", "--shape", shape)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
    # a zero before a positive part is no partition; trailing zeros are dropped
    for shape in ("2,0,1", "0,2,1"):
        for sub in ("check", "matrix"):
            code, out, err = run(capsys, "hecke", sub, "--shape", shape, "--op", "tau", "--i", "1")
            assert code == 2 and out == ""
            assert err == f"parse error: ({shape.replace(',', ', ')}) is not weakly decreasing\n"
    code, out, _ = run(capsys, "hecke", "check", "--shape", "2,1,0")
    assert code == 0 and out.endswith(": 27 checks, ok\n")
    code, out, _ = run(capsys, "hecke", "matrix", "--shape", "2,1,0")
    assert code == 0 and out.startswith("basis: 12/3 13/2\n")
    # a shape with no positive part has nothing to check: refused, not a pass
    for shape in ("", "0", ",", "0,0"):
        for sub in ("check", "matrix"):
            code, out, err = run(capsys, "hecke", sub, "--shape", shape)
            assert code == 2 and out == ""
            assert err.splitlines() == [f"parse error: shape {shape!r} has no positive part"]
    # only ASCII decimal parts: int() alone would read "2_1" as (21) and "+2,1" as (2, 1)
    for shape, part in (("2_1", "2_1"), ("+2,1", "+2"), ("2,-1", "-1"), ("3,x", "x"), ("\uff12,1", "\uff12")):
        for sub in ("check", "matrix"):
            code, out, err = run(capsys, "hecke", sub, "--shape", shape)
            assert code == 2 and out == ""
            assert err.splitlines() == [f"parse error: shape {shape!r}: part {part!r} is not a decimal number"]


def test_hecke_matrix_after_a_shapes_grids_are_kept(capsys):
    """Once every grid of (3,2) is kept, --i 0 and --i 5 still exit 3 with one
    line, and jm and sigma still print the basis line and their own matrix."""
    from cactusgrowth import hecke

    hecke._kept_grid.cache_clear()
    argv = ["hecke", "matrix", "--shape", "3,2", "--op"]
    for op in ("u", "t", "tau"):
        for i in range(1, 5):
            assert run(capsys, *argv, op, "--i", str(i))[0] == 0
    for op in ("u", "t", "tau", "jm", "sigma"):
        for i in (0, 5) if op != "jm" else (5,):
            assert run(capsys, *argv, op, "--i", str(i)) == (
                3, "", f"domain error: {'Jucys-Murphy' if op == 'jm' else 'generator'} index {i} out of range for r=5\n")
    srep = hecke.SeminormalRep((3, 2))
    assert hecke._kept_grid.cache_info().currsize == 12
    for i in range(5):
        assert run(capsys, *argv, "jm", "--i", str(i)) == (
            0, f"{srep.table.basis_line}\n{hecke.jm_matrix(srep, i).pretty()}\n", "")
    assert run(capsys, *argv, "sigma") == (0, f"{srep.table.basis_line}\n{hecke.sigma_vv(srep).pretty()}\n", "")


def test_hecke_matrix_output_is_pinned_byte_for_byte(capsys):
    """Every operator at every index, the out-of-range ones included, on every
    shape with at most 6 boxes: exit code, stdout and stderr hashed in order."""
    from cactusgrowth.oracles import partitions_of

    h = hashlib.sha256()
    requests = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            for op in ("u", "tau", "t", "jm", "sigma"):
                for i in range(0, n + 1):
                    code, out, err = run(capsys, "hecke", "matrix", "--shape", ",".join(map(str, shape)),
                                         "--op", op, "--i", str(i))
                    h.update(f"{code}\n{out}\n{err}".encode())
                    requests += 1
    assert requests == 820
    assert h.hexdigest() == "d4679f16ac3e3edbe8c698716b9f7245e18ad955dc50d8630a284f7a1b2ceb2a"


def _pinned_words():
    """A fixed sample of words with r <= 6: about three of each length in five
    families, sorted by corners, and one mixed-factor GL(4) word."""
    from cactusgrowth.weights import CartanContext
    from cactusgrowth.words import SL2_STEP, VECTOR, enumerate_hw_words, exterior

    families = [("GL", 2, VECTOR), ("GL", 3, VECTOR), ("GL", 4, exterior(2)), ("Sp", 2, VECTOR), ("SL2", 1, SL2_STEP)]
    sample = []
    for family, rank, kind in families:
        for r in range(1, 7):
            ws = sorted(enumerate_hw_words(CartanContext(family, rank), (kind,) * r), key=lambda w: w.corners)
            sample += ws[::max(1, len(ws) // 3)]
    mixed = (VECTOR, exterior(2), exterior(3), VECTOR, exterior(2), VECTOR)
    ws = sorted(enumerate_hw_words(CartanContext("GL", 4), mixed), key=lambda w: w.corners)
    return sample + [ws[len(ws) // 2]]


def _word_command_corpus():
    """Every word command on each pinned word in both formats, then the
    malformed word requests of this file."""
    corpus = []
    for w in _pinned_words():
        context = {"family": w.context.family, "rank": w.context.rank}
        sources = [json.dumps({"context": context, "corners": [list(c) for c in w.corners]})]
        if len(set(w.steps)) > 1:  # the mixed word, also with explicit steps
            sources.append(json.dumps({"context": context, "steps": [str(s) for s in w.steps],
                                       "corners": [list(c) for c in w.corners]}))
        r = w.r
        commands = [["act", "--word", f"s({p},{q})"] for p in range(1, r + 1) for q in range(p + 1, r + 1)]
        commands += [["act", "--word", f"s(1,{r}) s(2,{r})"]] if r > 1 else []
        commands += [["evacuate"], ["promote"], *(["tau", "--i", str(i)] for i in range(r + 1)),
                     *(["cylinder", "--depth", str(d)] for d in range(1, 5))]
        for text in sources:
            for fmt in ("json", "ascii"):
                corpus += [["--format", fmt, *command, "--json", text] for command in commands]
            corpus.append(["--format", "ascii", "evacuate", "--show-diagram", "--json", text])
    gl2 = {"family": "GL", "rank": 2}
    payloads = WRONG_TYPE_WORDS + [{"context": c, "corners": [[0, 0], [1, 0]]} for c in CONTEXTS_MISSING_A_KEY]
    payloads += [{"context": gl2, "corners": corners} for corners, _ in WRONG_LENGTH_CORNERS]
    payloads += [
        {"context": gl2, "steps": None, "corners": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        {"context": gl2, "steps": None, "corners": [[0, 0], [1, 0], [1, 1]]},
        {"context": gl2, "steps": [], "corners": [[0, 0], [1, 0], [1, 1]]},
        {"context": {"family": "Sp", "rank": 2}, "steps": [], "corners": [[0, 0]]},
        {"context": gl2, "corners": [[0, 0], [0, 1]]},
    ]
    for payload in payloads:
        text = json.dumps(payload)
        corpus += [["evacuate", "--json", text], ["promote", "--json", text], ["tau", "--i", "1", "--json", text],
                   ["act", "--word", "s(1,2)", "--json", text], ["act", "--word", "", "--json", text],
                   ["cylinder", "--depth", "2", "--json", text]]
    corpus += [["act", "--word", "s(1,", "--demo", "fig-cat-A"], ["act", "--word", "s(1,2)"],
               ["act", "--word", "s(1,9)", "--json", json.dumps({"context": gl2, "corners": [[0, 0], [1, 0]]})],
               ["promote", "--json", "not json"], ["evacuate", "--input", "no-such-word.json"]]
    return corpus


def test_word_command_outputs_are_pinned_byte_for_byte(capsys):
    """act at every s(p,q), evacuate, promote, tau at every index and cylinder
    at depths 1-4, in both formats, and the malformed word requests: exit
    code, stdout and stderr hashed in order."""
    h = hashlib.sha256()
    corpus = _word_command_corpus()
    for argv in corpus:
        code, out, err = run(capsys, *argv)
        h.update(f"{code}\n{out}\n{err}".encode())
    assert len(corpus) == 3699
    assert h.hexdigest() == "92e5ad43ec400d3cdeaaad503a8e613517fa2429bb328f59efdcb314c53a00eb"


def test_word_commands_validate_only_their_input(capsys, monkeypatch):
    """The word a request reads is checked in one pass, every word evacuate
    and tau build from it is built unchecked, and act checks only the steps
    each s(p,q) reversed.  promote and cylinder still check what promotion
    builds (see growth.promotion)."""
    from cactusgrowth import words

    sources = [{"context": {"family": "GL", "rank": 3}, "corners": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0],
                                                                     [2, 1, 1], [3, 1, 1], [3, 2, 1]]},
               {"context": {"family": "Sp", "rank": 2}, "corners": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [1, 0]]},
               {"context": {"family": "GL", "rank": 4}, "corners": [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0],
                                                                     [3, 2, 1, 0], [3, 2, 1, 1], [4, 3, 1, 1]]}]
    requests = [[*fmt, *command, "--json", json.dumps(source)] for source in sources
                for fmt in ([], ["--format", "ascii"])
                for command in (["evacuate"], ["tau", "--i", "2"],
                                *(["act", "--word", f"s({p},{q})"] for q in range(2, len(source["corners"]))
                                  for p in range(1, q)))]
    assert len(requests) == 2 * (2 * 3 + 15 + 10 + 10)
    expected = [run(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _, _ in expected)

    def second_validation(*args):
        raise AssertionError("a word was checked twice")

    monkeypatch.setattr(words.HighestWeightWord, "__init__", second_validation)
    assert [run(capsys, *argv) for argv in requests] == expected


def test_act_refuses_a_wrong_image_in_one_line(capsys, monkeypatch):
    # every local-rule result off by one in its first part: the reversed
    # step out of the kept corner 1 breaks, and the request exits 3 with one line
    real = growth_module.local_rule

    def off_by_one(*args):
        mu = real(*args)
        return (mu[0] + 1,) + mu[1:]

    monkeypatch.setattr(growth_module, "local_rule", off_by_one)
    word = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]]}'
    code, out, err = run(capsys, "act", "--word", "s(2,4)", "--json", word)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == ["domain error: corner 1: [1,0] -> [3,1] is not a valid vector step"]


def test_cylinder_depth_over_the_size_cap(capsys):
    word = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]]}'
    # depth 2 on r = 4 is 2 rows of 5 corners: 10 cells, at the cap
    code, out, _ = run(capsys, "--max-size", "10", "cylinder", "--depth", "2", "--json", word)
    assert code == 0 and len(json.loads(out)["rows"]) == 2
    code, out, err = run(capsys, "--max-size", "10", "cylinder", "--depth", "3", "--json", word)
    assert code == 3 and out == ""
    assert err.splitlines() == ["domain error: a window of depth 3 on r=4 has 15 cells, over the cap of 10"]
    # refused before any row is built
    code, _, err = run(capsys, "cylinder", "--depth", str(10**9), "--json", word)
    assert code == 3 and len(err.splitlines()) == 1


# Global options and subcommand defaults alternate, so a value left over from
# one request would show in the next.
ALTERNATING_ARGV = [
    ["--format", "ascii", "act", "--word", "s(1,6)", "--demo", "fig-cat-C"],
    ["act", "--word", "s(1,6)", "--demo", "fig-cat-C"],
    ["--max-size", "4", "hecke", "matrix", "--shape", "2,1"],
    ["hecke", "matrix", "--shape", "2,1"],
    ["hecke", "matrix", "--shape", "2,1", "--op", "u", "--i", "2"],
    ["hecke", "matrix", "--shape", "2,1"],
    ["verify", "cactus", "--tiny", "--r", "3"],
    ["verify", "cactus", "--tiny"],
]


def test_reused_parser_parses_like_a_fresh_one(capsys, monkeypatch):
    real = cli._parse_args
    seen = []

    def recording(*a, **kw):
        ns = real(*a, **kw)
        seen.append(dict(vars(ns)))
        return ns

    monkeypatch.setattr(cli, "_parse_args", recording)
    for argv in ALTERNATING_ARGV:
        main(list(argv))
    capsys.readouterr()
    assert seen == [vars(real(argv)) for argv in ALTERNATING_ARGV]


# Recorded from the argparse parser that the table replaced: each argv's
# namespace without fn (the global options at their defaults left out), and
# each refused argv's one stderr line.
WORD = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0]]}'
GLOBAL_DEFAULTS = {"format": "json", "seed": 0, "max_size": 1000000}
PARSED = [
    (["act", "--word", "s(1,6) s(2,6)", "--json", WORD],
     {"cmd": "act", "word": "s(1,6) s(2,6)", "input": None, "json": WORD, "demo": None}),
    (["--format", "ascii", "act", "--word", "", "--demo", "ex-sp"],
     {"format": "ascii", "cmd": "act", "word": "", "input": None, "json": None, "demo": "ex-sp"}),
    (["act", "--word=s(1,2)=x", "--input", "-"],
     {"cmd": "act", "word": "s(1,2)=x", "input": "-", "json": None, "demo": None}),
    (["act", "--word", "a", "--demo", "x", "--word", "b"],
     {"cmd": "act", "word": "b", "input": None, "json": None, "demo": "x"}),
    (["--format=ascii", "--seed", "7", "--max-size", "10", "evacuate", "--demo", "ex-sp", "--show-diagram"],
     {"format": "ascii", "seed": 7, "max_size": 10, "cmd": "evacuate", "input": None, "json": None, "demo": "ex-sp",
      "show_diagram": True}),
    (["evacuate", "--input", "w.json"],
     {"cmd": "evacuate", "input": "w.json", "json": None, "demo": None, "show_diagram": False}),
    (["evacuate", "--json", "-1.5"],
     {"cmd": "evacuate", "input": None, "json": "-1.5", "demo": None, "show_diagram": False}),
    (["promote", "--json={}"],
     {"cmd": "promote", "input": None, "json": "{}", "demo": None}),
    (["--format", "json", "--format", "ascii", "promote", "--demo", "ex-sp"],
     {"format": "ascii", "cmd": "promote", "input": None, "json": None, "demo": "ex-sp"}),
    (["tau", "--i", "2", "--input", "w.json"],
     {"cmd": "tau", "i": 2, "input": "w.json", "json": None, "demo": None}),
    (["tau", "--i=-1", "--json", "[]"],
     {"cmd": "tau", "i": -1, "input": None, "json": "[]", "demo": None}),
    (["tau", "--json", WORD, "--i", "+3"],
     {"cmd": "tau", "i": 3, "input": None, "json": WORD, "demo": None}),
    (["cylinder", "--depth", "-3", "--json", WORD],
     {"cmd": "cylinder", "depth": -3, "input": None, "json": WORD, "demo": None}),
    (["cylinder", "--depth", "0", "--demo", "ex-sp-top"],
     {"cmd": "cylinder", "depth": 0, "input": None, "json": None, "demo": "ex-sp-top"}),
    (["validate", "--input", "win.json"],
     {"cmd": "validate", "input": "win.json"}),
    (["crystal", "dump", "--family", "Sp", "--rank", "2"],
     {"cmd": "crystal", "crystal_cmd": "dump", "family": "Sp", "rank": 2, "kind": "vector", "r": 2}),
    (["crystal", "--family", "SL2", "--rank", "1", "--kind", "sl2", "--r", "6", "decompose"],
     {"cmd": "crystal", "crystal_cmd": "decompose", "family": "SL2", "rank": 1, "kind": "sl2", "r": 6}),
    (["crystal", "--family=GL", "decompose", "--rank", "3", "--r=-2", "--kind", "exterior:2"],
     {"cmd": "crystal", "crystal_cmd": "decompose", "family": "GL", "rank": 3, "kind": "exterior:2", "r": -2}),
    (["oracle", "evacuate", "--tableau", "134/256"],
     {"cmd": "oracle", "oracle_cmd": "evacuate", "tableau": "134/256", "json": None, "i": None}),
    (["oracle", "--i", "2", "bk", "--tableau", "1112/23/4"],
     {"cmd": "oracle", "oracle_cmd": "bk", "tableau": "1112/23/4", "json": None, "i": 2}),
    (["oracle", "dk", "--json", "[[1, 2], [3]]", "--i", "-4"],
     {"cmd": "oracle", "oracle_cmd": "dk", "tableau": None, "json": "[[1, 2], [3]]", "i": -4}),
    (["oracle", "promote"],
     {"cmd": "oracle", "oracle_cmd": "promote", "tableau": None, "json": None, "i": None}),
    (["hecke", "check", "--shape", "3,2,1"],
     {"cmd": "hecke", "hecke_cmd": "check", "shape": "3,2,1", "op": "tau", "i": 1}),
    (["hecke", "--shape", "2,1", "matrix", "--op", "tau", "--i", "2"],
     {"cmd": "hecke", "hecke_cmd": "matrix", "shape": "2,1", "op": "tau", "i": 2}),
    (["hecke", "matrix", "--shape=3,2", "--op=sigma"],
     {"cmd": "hecke", "hecke_cmd": "matrix", "shape": "3,2", "op": "sigma", "i": 1}),
    (["--max-size", "-5", "hecke", "matrix", "--shape", "2,1"],
     {"max_size": -5, "cmd": "hecke", "hecke_cmd": "matrix", "shape": "2,1", "op": "tau", "i": 1}),
    (["verify", "all", "--tiny"],
     {"cmd": "verify", "suite": "all", "r": None, "maxsize": None, "tiny": True}),
    (["verify", "--tiny", "cactus"],
     {"cmd": "verify", "suite": "cactus", "r": None, "maxsize": None, "tiny": True}),
    (["verify", "--r", "5", "--maxsize", "7", "cactus"],
     {"cmd": "verify", "suite": "cactus", "r": 5, "maxsize": 7, "tiny": False}),
    (["verify", "hecke", "--tiny", "--r=3", "--maxsize", "-2"],
     {"cmd": "verify", "suite": "hecke", "r": 3, "maxsize": -2, "tiny": True}),
    (["demo", "all"],
     {"cmd": "demo", "name": "all"}),
    (["--seed", "3", "demo", "fig-cat"],
     {"seed": 3, "cmd": "demo", "name": "fig-cat"}),
]
REFUSED = [
    ([], "usage error: the following arguments are required: cmd"),
    (["--format", "ascii"], "usage error: the following arguments are required: cmd"),
    (["act"], "usage error: the following arguments are required: --word"),
    (["act", "extra"], "usage error: the following arguments are required: --word"),
    (["hecke", "--shape", "2,1"], "usage error: the following arguments are required: hecke_cmd"),
    (["crystal"], "usage error: the following arguments are required: crystal_cmd, --family, --rank"),
    (["demo", "-x"], "usage error: the following arguments are required: name"),
    (["act", "--word", "x", "--demo", "y", "extra"], "usage error: unrecognized arguments: extra"),
    (["verify", "all", "cactus"], "usage error: unrecognized arguments: cactus"),
    (["evacuate", "--show-diagram", "x", "--demo", "y"], "usage error: unrecognized arguments: x"),
    (["--bogus", "act", "--word", "x", "--bogus2=3"], "usage error: unrecognized arguments: --bogus --bogus2=3"),
    (["act", "--format", "ascii", "--word", "x"], "usage error: unrecognized arguments: --format ascii"),
    (["verify", "all", "--tiny=1"], "usage error: argument --tiny: ignored explicit argument '1'"),
    (["cylinder", "--depth", "x", "--demo", "y"], "usage error: argument --depth: invalid int value: 'x'"),
    (["--seed", "1.5", "demo", "all"], "usage error: argument --seed: invalid int value: '1.5'"),
    (["crystal", "dump", "--family", "B", "--rank", "2"],
     "usage error: argument --family: invalid choice: 'B' (choose from 'GL', 'SL2', 'Sp')"),
    (["hecke", "matrix", "--shape", "2,1", "--op", "v"],
     "usage error: argument --op: invalid choice: 'v' (choose from 'u', 't', 'tau', 'jm', 'sigma')"),
    (["frobnicate"],
     "usage error: argument cmd: invalid choice: 'frobnicate' (choose from 'act', 'evacuate', 'promote', 'tau', "
     "'cylinder', 'validate', 'crystal', 'oracle', 'hecke', 'verify', 'demo')"),
    (["demo", "-1"],
     "usage error: argument name: invalid choice: '-1' (choose from 'bk', 'fig-cat', 'gl-window', 'ex-sp', 'all')"),
    (["act", "--word", "-x", "--demo", "y"], "usage error: argument --word: expected one argument"),
    (["act", "--word"], "usage error: argument --word: expected one argument"),
    (["--max-size", "--seed", "act"], "usage error: argument --max-size: expected one argument"),
]


def test_parser_table_matches_the_recorded_argparse_results(capsys):
    for argv, expected in PARSED:
        ns = vars(build_parser().parse_args(list(argv)))
        home = cli if ns["cmd"] == "act" else commands
        assert ns.pop("fn") is getattr(home, f"cmd_{ns['cmd']}")
        assert ns == {**GLOBAL_DEFAULTS, **expected}, argv
    for argv, line in REFUSED:
        assert run(capsys, *argv) == (2, "", line + "\n"), argv


def test_options_take_exact_names_only(capsys):
    # argparse also took an unambiguous prefix (--dep for --depth); the table does not
    code, _, err = run(capsys, "cylinder", "--dep", "3", "--demo", "ex-sp-top")
    assert code == 2 and err == "usage error: the following arguments are required: --depth\n"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_of_each_subcommand(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith(f"usage: cactusgrowth {command} ")
    for name in cli._COMMANDS[command][3]:
        assert name in out


def test_verify_tiny(capsys):
    code, out, _ = run(capsys, "verify", "cactus", "--tiny")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["suites"] == 1 and summary["failures"] == 0


@pytest.mark.parametrize("bounds", [["--r", "2"], ["--maxsize", "4"], ["--r", "3", "--maxsize", "3"]])
def test_verify_tiny_refuses_r_and_maxsize(capsys, bounds):
    """--tiny has bounds of its own, so a bound given with it would be dropped."""
    for suite in ("cactus", "hecke", "all"):
        code, out, err = run(capsys, "verify", suite, "--tiny", *bounds)
        assert (code, out) == (2, "")
        assert err == "usage error: --tiny sets its own bounds: drop --r and --maxsize\n"


def test_verify_all_tiny_smoke(capsys):
    import time

    t0 = time.time()
    code, out, _ = run(capsys, "verify", "all", "--tiny")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {"suites": 10, "checks": 6226, "failures": 0}
    assert time.time() - t0 < 30.0


def test_demo_all(capsys):
    code, out, _ = run(capsys, "demo", "all")
    assert code == 0
    assert "FAIL" not in out


def test_demo_exit_1_on_mismatch(capsys, monkeypatch):
    real = commands._load_fixture

    def corrupted(name):
        fix = real(name)
        if name == "gl_window.json":
            fix = json.loads(json.dumps(fix))
            fix["rows"][1][2] = [2, 0]  # not the promotion of row 0
        return fix

    monkeypatch.setattr(commands, "_load_fixture", corrupted)
    code = main(["demo", "gl-window"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_determinism(capsys):
    code1, out1, _ = run(capsys, "act", "--word", "s(2,5)", "--demo", "fig-cat-C")
    code2, out2, _ = run(capsys, "act", "--word", "s(2,5)", "--demo", "fig-cat-C")
    assert (code1, out1) == (code2, out2)


# -- exit-code contract --------------------------------------------------------

# the domain errors of the layers, with the builtin base each always had
DOMAIN_ERRORS = [
    ("words", "InvalidStep", ValueError),
    ("weights", "ContextMismatch", ValueError),
    ("crystal", "BadParameter", ValueError),
    ("crystal", "SizeLimit", RuntimeError),
    ("qalgebra", "DimensionMismatch", ValueError),
    ("qalgebra", "DivisionByZero", ZeroDivisionError),
    ("windows", "BadPath", ValueError),
    ("hecke", "IndexOutOfRange", ValueError),
    ("oracles", "StripViolation", ValueError),
]


@pytest.mark.parametrize("module, name, base", DOMAIN_ERRORS)
def test_domain_errors_derive_from_domain_error(module, name, base):
    cls = getattr(importlib.import_module(f"cactusgrowth.{module}"), name)
    assert issubclass(cls, DomainError) and issubclass(cls, base)


@pytest.mark.parametrize("module, name, base", DOMAIN_ERRORS)
def test_every_domain_error_exits_3(capsys, monkeypatch, module, name, base):
    cls = getattr(importlib.import_module(f"cactusgrowth.{module}"), name)

    def refuse(*args):
        raise cls("refused")

    monkeypatch.setattr(growth_module, "act", refuse)
    code, out, err = run(capsys, "act", "--word", "s(1,2)", "--demo", "fig-cat-A")
    assert code == 3 and out == "" and err == "domain error: refused\n"


@pytest.mark.parametrize("argv", [
    ["evacuate", "--json", '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [0, 1]]}'],  # InvalidStep
    ["crystal", "dump", "--family", "GL", "--rank", "2", "--kind", "exterior:5"],  # BadParameter
    ["--max-size", "100", "crystal", "decompose", "--family", "GL", "--rank", "2", "--r", "12"],  # SizeLimit
    ["hecke", "matrix", "--shape", "3,2", "--op", "tau", "--i", "7"],  # IndexOutOfRange
])
def test_reachable_domain_errors_exit_3_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error: ")


def test_verify_choices_are_the_suites():
    assert cli._COMMANDS["verify"][2] == ("suite", (*suites.SUITES, "all"))


# -- word JSON types -------------------------------------------------------------


WRONG_TYPE_WORDS = [
    {"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1.9, 0], [1, 1]]},
    {"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [True, 0], [1, 1]]},
    {"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], "10", [1, 1]]},
    {"context": {"family": "GL", "rank": 2}, "corners": "[[0, 0]]"},
    {"context": {"family": "GL", "rank": 2.7}, "corners": [[0, 0], [1, 0], [1, 1]]},
    {"context": {"family": "GL", "rank": "2"}, "corners": [[0, 0], [1, 0], [1, 1]]},
    {"context": {"family": "GL", "rank": True}, "corners": [[0], [1]]},
    {"context": {"family": 1, "rank": 2}, "corners": [[0, 0], [1, 0]]},
    {"context": None, "corners": [[0, 0], [1, 0]]},
    {"context": {"family": "GL", "rank": 2}, "steps": "vector", "corners": [[0, 0], [1, 0], [1, 1]]},
    {"context": {"family": "GL", "rank": 2}, "steps": [1, 2], "corners": [[0, 0], [1, 0], [1, 1]]},
]
CONTEXTS_MISSING_A_KEY = [{"family": "GL"}, {"rank": 2}]
WRONG_LENGTH_CORNERS = [
    ([[0, 0], [3]], "((0, 0), (3,))"),
    ([[0, 0], [1]], "((0, 0), (1,))"),
    ([[0, 0], [3, 0, 0]], "((0, 0), (3, 0, 0))"),
]


@pytest.mark.parametrize("payload", WRONG_TYPE_WORDS)
def test_word_json_of_the_wrong_type_exit_2(capsys, payload):
    code, out, err = run(capsys, "evacuate", "--json", json.dumps(payload))
    assert_one_line_exit_2(code, out, err)
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("command", [["act", "--word", "s(1,2)"], ["evacuate"], ["tau", "--i", "1"]])
@pytest.mark.parametrize("context", CONTEXTS_MISSING_A_KEY)
def test_word_json_context_missing_a_key_exit_2(capsys, command, context):
    payload = {"context": context, "corners": [[0, 0], [1, 0]]}
    code, out, err = run(capsys, *command, "--json", json.dumps(payload))
    assert_one_line_exit_2(code, out, err)
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("corners, shown", WRONG_LENGTH_CORNERS)
def test_word_json_corner_of_the_wrong_length_exit_2(capsys, corners, shown):
    """The rank is checked before any step, whatever the corner's values."""
    payload = {"context": {"family": "GL", "rank": 2}, "corners": corners}
    code, out, err = run(capsys, "evacuate", "--json", json.dumps(payload))
    assert_one_line_exit_2(code, out, err)
    assert err == f"parse error: corners {shown} do not match rank 2\n"


def test_word_json_with_null_steps_infers_them(capsys):
    payload = {"context": {"family": "GL", "rank": 2}, "steps": None, "corners": [[0, 0], [1, 0], [1, 1]]}
    code, out, _ = run(capsys, "evacuate", "--json", json.dumps(payload))
    assert code == 0 and json.loads(out)["steps"] == ["vector", "vector"]


def test_word_json_with_no_steps_for_its_corners_exit_2(capsys):
    """An empty step list is a step list: it is checked, not a cue to infer."""
    payload = {"context": {"family": "GL", "rank": 2}, "steps": [], "corners": [[0, 0], [1, 0], [1, 1]]}
    code, out, err = run(capsys, "evacuate", "--json", json.dumps(payload))
    assert_one_line_exit_2(code, out, err)
    assert err == "parse error: 0 steps need 1 corners, got 3\n"


def test_zero_step_word_json_round_trips(capsys):
    payload = {"context": {"family": "Sp", "rank": 2}, "steps": [], "corners": [[0, 0]]}
    for command in (["evacuate"], ["act", "--word", ""]):
        code, out, err = run(capsys, *command, "--json", json.dumps(payload))
        assert code == 0 and err == "" and json.loads(out) == payload


def test_tensor_power_of_a_one_element_crystal_at_the_cap_is_quick(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "crystal", "decompose", "--family", "GL", "--rank", "2",
                         "--kind", "exterior:2", "--r", "1000000")
    assert time.perf_counter() - start < 2
    assert code in (0, 3) and len((out + err).splitlines()) == 1
