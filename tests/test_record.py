"""`record` against what the package relied on from frozen dataclasses:
equality per class, hashing, immutability, the repr, defaults, factories,
`hash=False`, `init=False` and argument binding.  Where a behaviour is
generic, a frozen dataclass declared the same way is the oracle."""

import dataclasses
from fractions import Fraction as F

import pytest

from metriclogic.formula import AtomD, ConstName, Half, Neg, Relation, Signature, Var
from metriclogic.intervals import Enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.record import field, record
from metriclogic.structures import FiniteStructure
from metriclogic.urysohn import QuantifierBudget
from metriclogic.vaught import FiniteGSpace


def test_equality_needs_the_same_class():
    x = AtomD(Var("x"), ConstName("a"))
    assert Half(x) != Neg(x)
    assert Half(x) == Half(AtomD(Var("x"), ConstName("a")))
    assert Var("a") != ConstName("a")
    assert Var("a") != ("a",)


def test_equal_values_hash_equal_and_serve_as_keys():
    a, b = Enclosure(F(1, 3), F(1, 2)), Enclosure(F(1, 3), F(1, 2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert len({Var("x"), Var("x"), Var("y")}) == 2
    f = Half(AtomD(Var("x"), ConstName("a")))
    assert {f: "kept"}[Half(AtomD(Var("x"), ConstName("a")))] == "kept"


@pytest.mark.parametrize("value", [Var("x"), Enclosure(F(0), F(1)),
                                   QuantifierBudget(F(1, 4), 1)])
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value.__record_fields__[0].name
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1


def test_repr_is_the_dataclass_repr():
    assert repr(AtomD(Var("x"), ConstName("a"))) == \
        "AtomD(left=Var(name='x'), right=ConstName(name='a'))"
    assert repr(Half(Var("x"))) == "Half(body=Var(name='x'))"


def test_default_factory_gives_each_structure_its_own_dict():
    space = RationalMetricSpace.build(("p",), {})
    m1, m2 = FiniteStructure(space, Signature()), FiniteStructure(space, Signature())
    assert m1.tables == {} and m1.constants == {}
    assert m1.tables is not m2.tables and m1.constants is not m2.constants


def test_hash_false_field_stays_out_of_the_hash():
    near = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 4)})
    far = RationalMetricSpace.build(("a", "b"), {("a", "b"): F(3, 4)})
    assert hash(near) == hash(far) == hash((("a", "b"),))
    assert near != far
    assert near == RationalMetricSpace.build(("a", "b"), {("a", "b"): F(1, 4)})


def test_init_false_fields_are_set_by_post_init():
    X = FiniteGSpace(("x", "y"), {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}})
    assert X.elements == ("e", "s") and X.identity == "e"
    assert X.inv == {"e": "e", "s": "s"} and X.mult[("s", "s")] == "e"
    with pytest.raises(TypeError):
        FiniteGSpace(("x",), {"e": {"x": "x"}}, ("e",))
    with pytest.raises(TypeError):
        FiniteGSpace(("x",), {"e": {"x": "x"}}, identity="e")


def test_defaults_and_keywords_bind_as_in_a_call():
    assert QuantifierBudget(F(1, 4)).rounds == 0
    assert QuantifierBudget(rounds=2, mesh=F(1, 4)) == QuantifierBudget(F(1, 4), 2)
    assert Enclosure(hi=F(1), lo=F(0)) == Enclosure(F(0), F(1))
    assert Var(name="x") == Var("x")
    assert Relation("P", 2).modulus_coefficient == 2      # set by __post_init__


@pytest.mark.parametrize("build", [
    lambda: Enclosure(F(0)),
    lambda: Enclosure(F(0), F(1), F(1)),
    lambda: Enclosure(F(0), lo=F(0)),
    lambda: Enclosure(F(0), F(1), width=F(1)),
    lambda: Var(),
    lambda: Var("x", "y"),
    lambda: Var(label="x"),
    lambda: QuantifierBudget(),
    lambda: QuantifierBudget(rounds=1),
    lambda: QuantifierBudget(F(1, 4), 1, 2),
    lambda: QuantifierBudget(F(1, 4), steps=2),
], ids=["missing", "extra", "twice", "unknown_keyword", "var_missing", "var_extra",
        "var_unknown_keyword", "budget_missing", "budget_missing_first",
        "budget_extra", "budget_unknown_keyword"])
def test_a_missing_or_extra_argument_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_runs_on_every_construction():
    with pytest.raises(ValueError):
        Enclosure(F(1), F(0))
    with pytest.raises(ValueError):
        Enclosure(hi=F(0), lo=F(1))


def twins(body):
    """body(field) declares a class: as a frozen dataclass and as a record."""
    return dataclasses.dataclass(frozen=True)(body(dataclasses.field)), record(body(field))


def one(make_field):
    class One:
        name: str
    return One


def two(make_field):
    class Two:
        lo: F
        hi: F
    return Two


def mixed(make_field):
    class Mixed:
        points: tuple
        table: dict = make_field(default_factory=dict, hash=False)
        rounds: int = 0
    return Mixed


@pytest.mark.parametrize("body, arglists", [
    (one, [("a",), ("b",)]),
    (two, [(F(1, 3), F(1, 2)), (F(1, 3), F(2, 3))]),
    (mixed, [(("p", "q"),), (("p", "q"), {"k": 1}), (("p",), {}, 3)]),
])
def test_eq_hash_and_repr_match_a_frozen_dataclass(body, arglists):
    dc, rec = twins(body)
    for args in arglists:
        d, r = dc(*args), rec(*args)
        assert repr(d) == repr(r)
        assert hash(d) == hash(r)
        for other in arglists:
            assert (d == dc(*other)) == (r == rec(*other))


@record
class Base:
    a: int
    b: int = 2


@record
class Child(Base):
    c: int = 3


def test_base_fields_come_first():
    assert repr(Child(1)) == "Child(a=1, b=2, c=3)"
    assert Child(1, c=4) == Child(a=1, b=2, c=4) != Base(1, 2)

