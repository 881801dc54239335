"""The value types keep the contract of the frozen dataclasses they were,
and importing the command line loads none of the modules dataclasses needs."""

import copy
import pickle
import subprocess
import sys

import pytest

from flatcount.cli import Family, TableSpec
from flatcount.dsl import Atom, Compose, Iterate, KSet, Product, Sum
from flatcount.oracle import GainInterval, HeightFunction
from flatcount.species import CountSeq
from flatcount.triangles import Triangle

# (class, field names and values, the repr a frozen dataclass gave them)
RECORDS = [
    (Triangle, {"rows": ((1, 1), (0, 1))}, "Triangle(rows=((1, 1), (0, 1)))"),
    (CountSeq, {"coeffs": (1, 2, 6)}, "CountSeq(coeffs=(1, 2, 6))"),
    (GainInterval, {"lo": -1, "hi": 2}, "GainInterval(lo=-1, hi=2)"),
    (HeightFunction, {"items": ((1, 0), (3, 2))}, "HeightFunction(items=((1, 0), (3, 2)))"),
    (Atom, {"name": "L+"}, "Atom(name='L+')"),
    (KSet, {"k": 3}, "KSet(k=3)"),
    (Sum, {"left": Atom("E"), "right": KSet(2)}, "Sum(left=Atom(name='E'), right=KSet(k=2))"),
    (
        Product,
        {"left": Atom("E"), "right": KSet(2)},
        "Product(left=Atom(name='E'), right=KSet(k=2))",
    ),
    (
        Compose,
        {"left": Atom("E"), "right": KSet(2)},
        "Compose(left=Atom(name='E'), right=KSet(k=2))",
    ),
    (Iterate, {"base": Atom("L+"), "times": 3}, "Iterate(base=Atom(name='L+'), times=3)"),
    (
        Family,
        {
            "interval": GainInterval.shi,
            "q_shift": 0,
            "m_min": 1,
            "table_m": (1, 2),
            "verify_m_max": 3,
        },
        "Family(interval=<bound method GainInterval.shi of <class "
        "'flatcount.oracle.GainInterval'>>, q_shift=0, m_min=1, table_m=(1, 2), "
        "verify_m_max=3)",
    ),
    (
        TableSpec,
        {
            "family": "shi",
            "m_values": (1, 2),
            "n_values": (1, 2, 3),
            "mode": "totals",
            "fmt": "tsv",
        },
        "TableSpec(family='shi', m_values=(1, 2), n_values=(1, 2, 3), mode='totals', "
        "fmt='tsv')",
    ),
]
FIELDS = {cls: tuple(fields) for cls, fields, _ in RECORDS}
IDS = [cls.__name__ for cls, _, _ in RECORDS]

# (class, field values, the ValueError message a frozen dataclass raised)
INVALID = [
    (Triangle, (((1,), (0, 1)),), "row 1 has length 1, expected 2"),
    (Triangle, (((1, -1), (0, 1)),), "row 1: entries must be nonnegative integers"),
    (Triangle, (((1, 1), (1, 1)),), "row 2: entries below the diagonal must be 0"),
    (CountSeq, ((),), "a counting sequence needs at least the order-0 coefficient"),
    (CountSeq, ((1, -2),), "coefficients must be nonnegative integers, got -2"),
    (CountSeq, ((1, 2.0),), "coefficients must be nonnegative integers, got 2.0"),
    (GainInterval, (2, 1), r"empty interval \[2, 1\]"),
    (HeightFunction, ((),), "height function needs a nonempty domain"),
    (HeightFunction, (((2, 0), (1, 1)),), "labels must be distinct and sorted"),
    (HeightFunction, (((1, 0), (1, 1)),), "labels must be distinct and sorted"),
    (HeightFunction, (((1, 1), (2, 1)),), "heights must be nonnegative integers with minimum 0"),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, text):
    names, values = tuple(fields), tuple(fields.values())
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**fields) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    assert repr(record) == text


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_bad_arguments_raise_type_error(cls, fields, text):
    first, values = next(iter(fields)), tuple(fields.values())
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, bogus=1)


@pytest.mark.parametrize("cls,values,message", INVALID)
def test_post_init_raises_the_same_errors(cls, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*values)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**dict(zip(FIELDS[cls], values)))


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, fields, text):
    record, twin = cls(**fields), cls(**copy.deepcopy(fields))
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    assert record != tuple(fields.values()) and record != text


def test_equality_is_by_type():
    x, y = Atom("E"), KSet(2)
    nodes = [Sum(x, y), Product(x, y), Compose(x, y)]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            assert a != b and not a == b
    assert len(set(nodes)) == 3
    assert Sum(x, y) != Sum(y, x)
    assert Atom("E") != Atom("L")
    assert GainInterval(-1, 1) != GainInterval(0, 1)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, text):
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is cls and again == record and repr(again) == text
    for again in (copy.copy(record), copy.deepcopy(record)):
        assert type(again) is cls and again == record and repr(again) == text


def test_command_line_imports_no_dataclasses():
    # Compared with the modules loaded before the import, because `site`
    # may load some of them (typing, through a .pth file) on its own.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import flatcount.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "flatcount.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "typing"})
