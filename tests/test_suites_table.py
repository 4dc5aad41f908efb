"""suites.SUITES is the one place for suite bounds and acceptance budgets:
every suite is a row, each row gives every bound its check takes, and
every acceptance id has a budget."""
import inspect

import pytest

from cactusgrowth import suites


def test_every_suite_is_a_row():
    checks = {name for name, fn in vars(suites).items()
              if name.startswith("check_") and inspect.isfunction(fn) and fn.__module__ == suites.__name__}
    assert checks - {"check_hecke_shape"} == {suite.check.__name__ for suite in suites.SUITES.values()}


@pytest.mark.parametrize("name", suites.SUITES)
def test_row_gives_each_bound_once(name):
    suite = suites.SUITES[name]
    params = inspect.signature(suite.check).parameters
    # no default to disagree with the table, and the same keys at both bounds
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    assert set(suite.tiny) == set(suite.full) == set(params)


def test_every_acceptance_id_has_a_budget():
    ids = {suite.acceptance for suite in suites.SUITES.values()} - {None}
    assert ids == set(suites.BUDGETS) == {2, 3, 4, 5, 6}
