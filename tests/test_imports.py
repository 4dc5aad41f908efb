"""Import discipline: `import cactusgrowth` loads no layer, and a one-shot
command loads only the layers it runs.  Each check starts a fresh
interpreter, so what this test process has imported does not count."""
import importlib
import os
import subprocess
import sys

import pytest

import cactusgrowth

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORD = '{"context": {"family": "GL", "rank": 2}, "corners": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 3]]}'


def python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def loaded_by(statement: str) -> set[str]:
    proc = python("-c", f"{statement}; import sys; print(*sorted(m for m in sys.modules if 'cactusgrowth' in m))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_package_loads_no_layer():
    assert loaded_by("import cactusgrowth") == {"cactusgrowth"}


def test_import_cli_loads_no_layer():
    assert loaded_by("import cactusgrowth.cli") == {"cactusgrowth", "cactusgrowth.cli"}


def imported_by_command(*argv: str) -> set[str]:
    """Every module a fresh `python -m cactusgrowth.cli *argv` imports, site's included."""
    proc = python("-X", "importtime", "-m", "cactusgrowth.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: self | cumulative | name" line per module
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_cold_act_loads_only_the_layers_it_runs():
    loaded = imported_by_command("act", "--word", "s(1,6) s(2,6)", "--json", WORD)
    assert {m for m in loaded if m.startswith("cactusgrowth")} == {
        "cactusgrowth", "cactusgrowth.errors", "cactusgrowth.weights", "cactusgrowth.words",
        "cactusgrowth.cactus", "cactusgrowth.growth",
    }
    # value classes are plain __slots__ classes: no dataclass machinery
    assert not {"dataclasses", "inspect"} & loaded
    # arguments are parsed from the cli module's own table, not by argparse
    assert not {"argparse", "gettext", "locale"} & loaded


def test_cold_crystal_decompose_loads_only_the_crystal_layers():
    loaded = imported_by_command("crystal", "decompose", "--family", "Sp", "--rank", "2", "--r", "4")
    assert {m for m in loaded if m.startswith("cactusgrowth")} == {
        "cactusgrowth", "cactusgrowth.errors", "cactusgrowth.weights", "cactusgrowth.words",
        "cactusgrowth.crystal",
    }
    assert not {"dataclasses", "fractions"} & loaded


def test_cold_hecke_matrix_loads_no_dataclasses_or_fractions():
    loaded = imported_by_command("hecke", "matrix", "--shape", "3,2", "--op", "tau", "--i", "2")
    assert {m for m in loaded if m.startswith("cactusgrowth")} == {
        "cactusgrowth", "cactusgrowth.errors", "cactusgrowth.weights", "cactusgrowth.oracles",
        "cactusgrowth.cactus", "cactusgrowth.qalgebra", "cactusgrowth.hecke",
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
