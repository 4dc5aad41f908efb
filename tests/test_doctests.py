import doctest
import importlib

import pytest

MODULES = ("qalgebra", "weights", "crystal", "words", "cactus", "growth", "windows", "oracles", "hecke")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    mod = importlib.import_module(f"cactusgrowth.{name}")
    result = doctest.testmod(mod)
    assert result.failed == 0
    assert result.attempted > 0
