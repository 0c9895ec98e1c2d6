"""The value classes are frozen records: fields by position or keyword with
defaults, equality and hash by class and fields, no assignment."""

import pytest

from grasscy.dop import DOp
from grasscy.laurent import LaurentPoly
from grasscy.laxmirror import MirrorSystem
from grasscy.mirror_analysis import FrobeniusPair
from grasscy.pipeline import RunReport
from grasscy.qh import ConjectureReport, QHMatrix
from grasscy.record import record
from grasscy.registry import RegistryCase
from grasscy.series import PowerSeries, Q
from grasscy.toric import DeltaKN

from support import LogSeries

PS = PowerSeries("z", (1, 2))
OP = DOp({(0, 1): 1})
# the fields of X4_G24 without defaults
CY = ("X4_G24", 2, 4, (4,), (1,), 1, 89, (2, 86, -168), 4, (Q(8),), (Q(1), Q(-1024)), 1)

# each class with the positional arguments of one valid instance
RECORDS = {
    DOp: ({(0, 1): 1, (1, 0): 2},),
    LaurentPoly: (1, {(1,): 1}),
    MirrorSystem: (2, 4, ((1, 2, 3, 4),), (), ()),
    FrobeniusPair: (PS, PS),
    RunReport: (RegistryCase(*CY), OP, PS, True, [1]),
    QHMatrix: (1, 2, ((1,), (2,)), (((1, 0),), ((0, 1),))),
    ConjectureReport: (2, 4, 5, OP, PS, True, True),
    RegistryCase: CY + ((2875,), "note"),
    PowerSeries: ("z", (1, 2)),
    LogSeries: ((PS,),),
    DeltaKN: (2, 4, ((1,),), ((1, 0, 0, 0),)),
}


def names(cls) -> list[str]:
    return list(cls.__annotations__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*RECORDS[cls])
    first = names(cls)[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, None)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_go_by_fields(cls):
    args = RECORDS[cls]
    a, b = cls(*args), cls(**dict(zip(names(cls), args)))
    assert a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    try:
        h = hash(a)
    except TypeError:  # a dict or list field, as with a frozen dataclass
        return
    assert h == hash(b)


def test_equality_needs_the_same_class():
    @record
    class Twin:  # FrobeniusPair's fields under another class
        phi0: PowerSeries
        psi: PowerSeries

    assert FrobeniusPair(PS, PS) != Twin(PS, PS)
    assert PowerSeries("z", (1,)) != LogSeries((PowerSeries("z", (1,)),))
    assert len({FrobeniusPair(PS, PS), Twin(PS, PS), FrobeniusPair(PS, PS)}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_missing_or_unknown_arguments_raise_type_error(cls):
    args = RECORDS[cls]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, *args)
    with pytest.raises(TypeError):
        cls(*args, **{names(cls)[0]: args[0]})  # given twice


def test_defaults_by_position_and_keyword():
    delta = (2, 4, ((1,),), ((1, 0, 0, 0),))
    assert DeltaKN(*delta) == DeltaKN(2, n=4, labels=delta[2], vertices=delta[3]) \
        == DeltaKN(vertices=delta[3], labels=delta[2], k=2, n=4)
    case = RegistryCase(*CY)
    assert (case.instantons, case.notes) == (None, "")
    assert RegistryCase(*CY, notes="x") == RegistryCase(*CY, None, "x") != case


def test_post_init_still_normalises():
    P = DOp({(0, 1): 1, (1, 0): 0, (2, 2): Q(0)})
    assert P.terms == {(0, 1): 1} and type(P.terms[(0, 1)]) is Q
    assert P == DOp({(0, 1): Q(1)}) and hash(P) == hash(DOp({(0, 1): Q(1)}))
    f = PowerSeries("z", (1, 2))
    assert all(type(c) is Q for c in f.coeffs)
    assert PowerSeries(var="z", coeffs=[1, Q(2)]) == f
    with pytest.raises(ValueError):
        PowerSeries("z", ())
    with pytest.raises(ValueError):
        DOp(terms={(-1, 0): 1})
