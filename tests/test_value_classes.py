"""The value-class contract: the __slots__ classes that define __eq__ and
__hash__ compare and hash by all their fields, and only against their own
class."""
import copy

import pytest

from cactusgrowth.cactus import CactusGen, CactusWord
from cactusgrowth.oracles import Matching, SemistandardTableau, StandardTableau
from cactusgrowth.qalgebra import LaurentPoly
from cactusgrowth.weights import CartanContext, Partition, Weight
from cactusgrowth.words import VECTOR, HighestWeightWord, StepKind

# each maker builds a fresh object, so two calls give equal but distinct ones
MAKERS = {
    "CartanContext": lambda: CartanContext("GL", 2),
    "Weight": lambda: Weight(CartanContext("GL", 2), (1, 0)),
    "Partition": lambda: Partition([2, 1]),
    "StepKind": lambda: StepKind("exterior", 2),
    "HighestWeightWord": lambda: HighestWeightWord(
        CartanContext("GL", 2), (StepKind("vector"),) * 2, tuple(map(tuple, [[0, 0], [1, 0], [1, 1]]))),
    "CactusGen": lambda: CactusGen(1, 3),
    "CactusWord": lambda: CactusWord(4, (CactusGen(1, 3), CactusGen(2, 4))),
    "StandardTableau": lambda: StandardTableau([[1, 2], [3]]),
    "SemistandardTableau": lambda: SemistandardTableau([[1, 1], [2]]),
    "Matching": lambda: Matching(4, [(3, 4), (1, 2)]),
    "LaurentPoly": lambda: LaurentPoly({2: 1, 0: 3}),
}


def fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


@pytest.mark.parametrize("name", MAKERS)
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", MAKERS)
def test_changing_any_one_field_makes_objects_unequal(name):
    a = MAKERS[name]()
    for field in type(a).__slots__:
        changed = copy.copy(a)
        setattr(changed, field, object())
        assert changed != a and a != changed, field


@pytest.mark.parametrize("name", MAKERS)
def test_other_classes_are_never_equal(name):
    a = MAKERS[name]()
    assert a != fields(a) and a.__eq__(fields(a)) is NotImplemented
    for other_name, make in MAKERS.items():
        if other_name != name:
            assert a != make() and a.__eq__(make()) is NotImplemented


@pytest.mark.parametrize("name", MAKERS)
def test_instances_have_no_dict(name):
    assert not hasattr(MAKERS[name](), "__dict__")


def test_partition_ignores_trailing_zeros():
    assert Partition((2, 1, 0)) == Partition((2, 1))
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))


def test_a_new_step_kind_equals_the_shared_one():
    v = StepKind("vector")
    assert v is not VECTOR and v == VECTOR and hash(v) == hash(VECTOR)
