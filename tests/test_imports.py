"""Import discipline: `import cactusgrowth` loads no layer, and a one-shot
command loads only the layers it runs.  Each check starts a fresh
interpreter, so what this test process has imported does not count."""
import importlib
import os
import subprocess
import sys

import pytest

import cactusgrowth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORD = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3]]}'


def python(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, cwd=cwd)


def loaded_by(statement: str) -> set[str]:
    proc = python("-c", f"{statement}; import sys; print(*sorted(m for m in sys.modules if 'cactusgrowth' in m))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_package_loads_no_layer():
    assert loaded_by("import cactusgrowth") == {"cactusgrowth"}


def test_import_cli_loads_no_layer():
    assert loaded_by("import cactusgrowth.cli") == {"cactusgrowth", "cactusgrowth.cli"}


def test_import_oracles_loads_no_growth_layer():
    """The oracles cross-check the growth path, so they must not run on it."""
    assert loaded_by("import cactusgrowth.oracles") == {
        "cactusgrowth", "cactusgrowth.errors", "cactusgrowth.weights", "cactusgrowth.oracles",
    }


def imported_by_command(*argv: str) -> set[str]:
    """Every module a fresh `python -m cactusgrowth.cli *argv` imports, site's included."""
    proc = python("-X", "importtime", "-m", "cactusgrowth.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: self | cumulative | name" line per module
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


# The source lines a cold `act` compiles: the package modules it imports and
# cli itself, which runs as __main__.
COLD_ACT_LINES = 1352


def test_cold_act_loads_only_the_layers_it_runs():
    loaded = imported_by_command("act", "--word", "s(1,6) s(2,6)", "--json", WORD)
    package = {m for m in loaded if m.startswith("cactusgrowth")}
    assert package == {
        "cactusgrowth", "cactusgrowth.errors", "cactusgrowth.weights", "cactusgrowth.words",
        "cactusgrowth.cactus", "cactusgrowth.growth",
    }
    assert not {"cactusgrowth.commands", "cactusgrowth.windows"} & loaded
    lines = 0
    for name in package | {"cactusgrowth.cli"}:
        with open(os.path.join(SRC, "cactusgrowth", (name.partition(".")[2] or "__init__") + ".py")) as fh:
            lines += len(fh.readlines())
    assert lines <= COLD_ACT_LINES
    # value classes are plain __slots__ classes: no dataclass machinery
    assert not {"dataclasses", "inspect"} & loaded
    # arguments are parsed from the cli module's own table, not by argparse
    assert not {"argparse", "gettext", "locale"} & loaded


def test_cold_crystal_decompose_loads_only_the_crystal_layers():
    loaded = imported_by_command("crystal", "decompose", "--family", "Sp", "--rank", "2", "--r", "4")
    assert {m for m in loaded if m.startswith("cactusgrowth")} == {
        "cactusgrowth", "cactusgrowth.commands", "cactusgrowth.errors", "cactusgrowth.weights",
        "cactusgrowth.words", "cactusgrowth.crystal",
    }
    assert not {"dataclasses", "fractions"} & loaded


def test_cold_hecke_matrix_loads_no_dataclasses_or_fractions():
    loaded = imported_by_command("hecke", "matrix", "--shape", "3,2", "--op", "tau", "--i", "2")
    assert {m for m in loaded if m.startswith("cactusgrowth")} == {
        "cactusgrowth", "cactusgrowth.commands", "cactusgrowth.errors", "cactusgrowth.weights",
        "cactusgrowth.oracles", "cactusgrowth.cactus", "cactusgrowth.qalgebra", "cactusgrowth.hecke",
    }
    assert not {"dataclasses", "fractions"} & loaded


def test_no_submodule_imports_dataclasses():
    package = os.path.join(SRC, "cactusgrowth")
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py") and f != "__init__.py")
    imports = "; ".join(f"import cactusgrowth.{name}" for name in names)
    proc = python("-c", f"{imports}; import sys; print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_exit_codes_hold_after_the_package_is_imported_afresh():
    """A cli module imported before a fresh import of the package still
    exits 3 on a domain error raised by the layers imported afterwards."""
    code = (
        "import sys\n"
        "import cactusgrowth.cli as old\n"
        "for name in [n for n in sys.modules if n.startswith('cactusgrowth')]:\n"
        "    del sys.modules[name]\n"
        "import cactusgrowth.crystal\n"
        "sys.exit(old.main(['--max-size', '100', 'crystal', 'decompose', '--family', 'GL', '--rank', '2', '--r', '12']))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("domain error: ")


@pytest.mark.parametrize("argv", [
    ["oracle", "bk", "--tableau", "12/3"],  # refused in commands: no --i
    ["act", "--word", "s(1,2)", "--json", WORD, "--demo", "fig-cat-A"],  # refused in cli: two sources
])
def test_usage_errors_hold_after_the_package_is_imported_afresh(argv):
    """A cli module imported before a fresh import of the package still
    exits 2 on a usage error, whether the cli module it holds raises it or
    a commands module imported afresh does."""
    code = (
        "import sys\n"
        "import cactusgrowth.cli as old\n"
        "for name in [n for n in sys.modules if n.startswith('cactusgrowth')]:\n"
        "    del sys.modules[name]\n"
        "import cactusgrowth\n"
        f"codes = [old.main({argv!r}) for _ in range(2)]\n"
        "sys.exit(10 * codes[0] + codes[1])\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 22 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1] and lines[0].startswith("usage error: ")


def test_the_benchmark_binds_every_name_it_uses():
    """perfbench binds the program's functions by module and name at set-up;
    a name moved away from where it binds it fails here, not in a benchmark run."""
    code = 'import sys; sys.path[:0] = ["perfbench", "src"]; from layers import Calls, fresh_import; Calls(fresh_import())'
    proc = python("-c", code, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", cactusgrowth.__all__)
def test_exported_name_is_the_submodules_own_object(name):
    obj = getattr(cactusgrowth, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("cactusgrowth.") and getattr(home, name) is obj


def test_exports_are_distinct_and_listed_by_dir():
    assert len(set(cactusgrowth.__all__)) == len(cactusgrowth.__all__) == 44
    assert set(cactusgrowth.__all__) <= set(dir(cactusgrowth))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cactusgrowth.no_such_name
