"""The contract of the ten public records: repr, equality and hashing,
pickling and copying, frozen fields and read-only arrays, positional
``match``, constructor parameters and every validation message. A
``Universe`` is a record whose ``==``, ``repr`` and lack of a hash are
those of a sequence. Pickles and copies are rebuilt by the constructor,
so they are checked as the record was. That a memoized ``WeightVector``
pickles to the same bytes is tested in test_diagnostics.py."""

import copy
import inspect
import io
import math
import pickle

import numpy as np
import pytest

from powerindex import (
    CalibrationResult,
    CalibrationTarget,
    CapRule,
    Constituent,
    DiagnosticsReport,
    LinearizedPowerRule,
    OrderViolation,
    PowerRule,
    RebalanceError,
    Universe,
    WeightVector,
    parse_universe,
    weights_from_market_caps,
)
from powerindex.weights import _Record

from helpers import whole

REPORT_FIELDS = (
    "order_violations", "max_before", "max_after", "max_increased", "turnover",
    "hhi_before", "hhi_after", "top_k_sums", "diversity_before", "diversity_after",
)


def _report(**changes):
    values = dict(
        order_violations=[], max_before=0.75, max_after=0.5, max_increased=False,
        turnover=0.25, hhi_before=0.625, hhi_after=0.5, top_k_sums={1: (0.75, 0.5)},
        diversity_before=1.5, diversity_after=2.0,
    )
    return DiagnosticsReport(**{**values, **changes})


# Each record, its fields in order, and its literal repr.
RECORDS = [
    (Constituent("A", market_cap=2),
     ("identifier", "market_cap"),
     "Constituent(identifier='A', market_cap=2.0)"),
    (Constituent(0, np.float32(6)),
     ("identifier", "market_cap"),
     "Constituent(identifier='0', market_cap=6.0)"),
    (WeightVector(["A", "B"], [0.25, 0.75]),
     ("identifiers", "weights"),
     "WeightVector(identifiers=('A', 'B'), weights=array([0.25, 0.75]))"),
    (PowerRule(np.float32(0.5)), ("p",), "PowerRule(p=0.5)"),
    (LinearizedPowerRule(0.5), ("p", "knot"), "LinearizedPowerRule(p=0.5, knot=0.01)"),
    (CapRule(), ("threshold", "target_aggregate"),
     "CapRule(threshold=0.045, target_aggregate=0.4)"),
    (CalibrationTarget("top_k_sum", 0.4, k=np.int64(6)), ("kind", "bound", "k"),
     "CalibrationTarget(kind='top_k_sum', bound=0.4, k=6)"),
    (CalibrationTarget("max_weight", 0.25), ("kind", "bound", "k"),
     "CalibrationTarget(kind='max_weight', bound=0.25, k=None)"),
    (CalibrationResult(0.5, 0.25, 3, (0.5, 0.75)),
     ("p_star", "achieved", "iterations", "bracket"),
     "CalibrationResult(p_star=0.5, achieved=0.25, iterations=3, "
     "bracket=(0.5, 0.75))"),
    (Universe(["A", 0], [3, 1.0]), ("identifiers", "market_caps"),
     "Universe(n=2, first=[Constituent(identifier='A', market_cap=3.0), "
     "Constituent(identifier='0', market_cap=1.0)])"),
    (OrderViolation("A", "B", 0.25, 0.5, 0.5, 0.25),
     ("identifier_low", "identifier_high", "mu_low", "mu_high", "eta_low", "eta_high"),
     "OrderViolation(identifier_low='A', identifier_high='B', mu_low=0.25, "
     "mu_high=0.5, eta_low=0.5, eta_high=0.25)"),
    (_report(), REPORT_FIELDS,
     "DiagnosticsReport(order_violations=[], max_before=0.75, max_after=0.5, "
     "max_increased=False, turnover=0.25, hhi_before=0.625, hhi_after=0.5, "
     "top_k_sums={1: (0.75, 0.5)}, diversity_before=1.5, diversity_after=2.0)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]
UNHASHABLE = (WeightVector, DiagnosticsReport, Universe)


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize(("record", "names", "text"), RECORDS, ids=IDS)
def test_repr_is_the_fields_in_order(record, names, text):
    assert repr(record) == text
    assert type(record).__match_args__ == names


@pytest.mark.parametrize(("record", "names", "text"), RECORDS, ids=IDS)
def test_fields_and_asdict_name_the_fields_in_order(record, names, text):
    assert type(record)._fields == record._fields == names
    assert record._asdict() == {name: getattr(record, name) for name in names}
    assert list(record._asdict()) == list(names)


@pytest.mark.parametrize(("record", "names", "text"), RECORDS, ids=IDS)
def test_equality_and_hash_go_by_class_and_field_values(record, names, text):
    twin = type(record)(**{name: getattr(record, name) for name in names})
    assert twin is not record and twin == record and not twin != record
    assert record != _values(record, names)
    assert record != object()
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(_values(record, names))


def test_equal_values_of_another_class_are_unequal():
    assert CapRule(0.045, 0.4) != LinearizedPowerRule(0.045, 0.4)
    assert hash(CapRule(0.045, 0.4)) == hash(LinearizedPowerRule(0.045, 0.4))
    assert PowerRule(0.5) != PowerRule(0.25)
    assert len({PowerRule(0.5), PowerRule(np.float64(0.5)), PowerRule(1)}) == 2
    assert WeightVector(["A"], [1.0]) != WeightVector(["B"], [1.0])
    assert _report() != _report(turnover=0.5)


class WideCap(CapRule):
    """A subclass that adds no field."""


class TaggedVector(WeightVector):
    """A subclass of the vector, which compares its own way."""


def test_a_subclass_keeps_the_fields_and_compares_by_class():
    wide = WideCap(0.1, 0.5)
    assert repr(wide) == "WideCap(threshold=0.1, target_aggregate=0.5)"
    assert WideCap.__match_args__ == ("threshold", "target_aggregate")
    assert wide == WideCap(0.1, 0.5) and wide != WideCap(0.1, 0.6)
    assert wide != CapRule(0.1, 0.5) and hash(wide) == hash(CapRule(0.1, 0.5))
    tagged = TaggedVector(["A", "B"], [0.25, 0.75])
    plain = WeightVector(["A", "B"], [0.25, 0.75])
    assert TaggedVector.__match_args__ == ("identifiers", "weights")
    assert tagged == TaggedVector(["A", "B"], [0.25, 0.75])
    assert tagged != plain and plain != tagged


@pytest.mark.parametrize(("record", "names", "text"), RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(record, names, text):
    backs = [
        pickle.loads(pickle.dumps(record, protocol=protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for back in backs:
        assert type(back) is type(record) and back == record
    twins = (copy.copy(record), copy.deepcopy(record))
    for twin in twins:
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == text
    # An array field comes back read-only and, rebuilt by the constructor,
    # is the record's own: a copy does not share it.
    for twin in (*backs, *twins):
        for name in names:
            value = getattr(twin, name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                assert not np.shares_memory(value, getattr(record, name))


@pytest.mark.parametrize(("record", "names", "text"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, names, text):
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_a_universe_is_frozen_whether_built_or_parsed():
    built = Universe(["A", "B", "C"], [3.0, 2.0, 1.0])
    parsed = parse_universe(io.StringIO("id,market_cap\nA,3\nB,2\nC,1\n"))
    for universe in (built, parsed):
        with pytest.raises(ValueError):
            universe.market_caps[1] = -5.0
        for name in ("identifiers", "market_caps"):
            with pytest.raises(AttributeError):
                setattr(universe, name, universe.market_caps.copy())
        assert universe == [Constituent(i, c) for i, c in zip("ABC", (3, 2, 1))]
        assert weights_from_market_caps(universe).weights.tolist() == [
            3.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0
        ]


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` that its constructor would refuse."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize(
    ("bad", "error", "message"),
    [
        (_unchecked(WeightVector, identifiers=("A",), weights=np.array([5.0])),
         ValueError, "weights must lie in [0, 1]"),
        (_unchecked(Universe, identifiers=("A", "B"), market_caps=np.array([1, -1.0])),
         RebalanceError, "B: market_cap -1.0 is negative"),
    ],
    ids=["WeightVector", "Universe"],
)
def test_a_pickle_is_checked_by_the_constructor_on_load(bad, error, message):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol=protocol)
        with pytest.raises(error, match=whole(message)):
            pickle.loads(data)
    for clone in (copy.copy, copy.deepcopy):
        with pytest.raises(error, match=whole(message)):
            clone(bad)


def test_a_record_constructor_takes_its_fields_in_order():
    """A record that writes its own constructor takes its fields, in order,
    as its parameters: it hands them to the base by position, and the CLI
    reads a rule's required parameters as those before the defaults."""
    classes = {type(record) for record, _, _ in RECORDS}
    own = {cls for cls in classes if "__init__" in vars(cls)}
    assert {cls.__name__ for cls in own} == {
        "Constituent", "WeightVector", "PowerRule", "LinearizedPowerRule",
        "CapRule", "CalibrationTarget", "Universe", "OrderViolation",
    }
    # OrderViolation takes the shared constructor's parameters, then checks.
    assert inspect.signature(OrderViolation) == inspect.signature(_Record)
    for cls in own - {OrderViolation}:
        params = inspect.signature(cls).parameters.values()
        assert tuple(param.name for param in params) == cls._fields, cls
        assert all(param.kind is param.POSITIONAL_OR_KEYWORD for param in params)


def test_positional_match_patterns():
    def describe(record):
        match record:
            case PowerRule(p):
                return ("power", p)
            case LinearizedPowerRule(p, knot):
                return ("linpower", p, knot)
            case CapRule(threshold, target):
                return ("cap", threshold, target)
            case CalibrationTarget(kind, bound, k):
                return (kind, bound, k)
            case CalibrationResult(p_star, _, iterations, (lo, hi)):
                return (p_star, iterations, lo, hi)
            case OrderViolation(low, high):
                return (low, high)
            case Constituent(ident, cap):
                return (ident, cap)
            case WeightVector(ids, _):
                return ids
            case Universe(ids, caps):
                return ("universe", ids, caps.tolist())
            case DiagnosticsReport([], before, after):
                return (before, after)
        return None

    assert describe(PowerRule(0.5)) == ("power", 0.5)
    assert describe(LinearizedPowerRule(0.5, 0.25)) == ("linpower", 0.5, 0.25)
    assert describe(CapRule()) == ("cap", 0.045, 0.4)
    assert describe(CalibrationTarget("top_k_sum", 0.4, 6)) == ("top_k_sum", 0.4, 6)
    result = CalibrationResult(0.5, 0.25, 3, (0.5, 0.75))
    assert describe(result) == (0.5, 3, 0.5, 0.75)
    violation = OrderViolation("A", "B", 0.25, 0.5, 0.5, 0.25)
    assert describe(violation) == ("A", "B")
    assert describe(Constituent(1, market_cap=6)) == ("1", 6.0)
    assert describe(WeightVector(["A", "B"], [0.5, 0.5])) == ("A", "B")
    assert describe(Universe(["A"], [2])) == ("universe", ("A",), [2.0])
    assert describe(_report()) == (0.75, 0.5)


REJECTED = [
    (lambda: Constituent("", 1.0), ValueError, "constituent identifier must be nonempty"),
    (lambda: Constituent("A", market_cap=math.inf), ValueError,
     "A: market_cap must be finite"),
    (lambda: Constituent("A", math.nan), ValueError, "A: market_cap must be finite"),
    (lambda: Constituent("A", market_cap=-1), RebalanceError,
     "A: market_cap -1.0 is negative"),
    (lambda: WeightVector(["A", "B"], [1.0]), ValueError,
     "identifiers and weights must match in length"),
    (lambda: WeightVector(["A"], [[1.0]]), ValueError,
     "identifiers and weights must match in length"),
    (lambda: WeightVector([], []), RebalanceError, "weight vector has no entries"),
    (lambda: WeightVector(["", "B"], [0.5, 0.5]), ValueError,
     "constituent identifier must be nonempty"),
    (lambda: WeightVector(["A", "A", "B", "B"], [0.25] * 4), RebalanceError,
     "duplicate identifiers: ['A', 'B']"),
    (lambda: WeightVector(["A", "B"], [math.nan, 1.0]), ValueError,
     "weights must be finite"),
    (lambda: WeightVector(["A", "B"], [-0.5, 1.5]), ValueError,
     "weights must lie in [0, 1]"),
    (lambda: WeightVector(["A", "B"], [0.5, 0.25]), ValueError,
     "weights sum to 0.75, not 1"),
    (lambda: PowerRule(1.5), ValueError, "p must be in [0, 1], got 1.5"),
    (lambda: PowerRule(np.float32(-0.5)), ValueError, "p must be in [0, 1], got -0.5"),
    (lambda: PowerRule(math.nan), ValueError, "p must be in [0, 1], got nan"),
    (lambda: PowerRule("x"), ValueError, "could not convert string to float: 'x'"),
    (lambda: LinearizedPowerRule(2, knot=2), ValueError, "p must be in [0, 1], got 2.0"),
    (lambda: LinearizedPowerRule(0.5, knot=1), ValueError,
     "knot must be in (0, 1), got 1.0"),
    (lambda: LinearizedPowerRule(0.5, knot=0.0), ValueError,
     "knot must be in (0, 1), got 0.0"),
    (lambda: CapRule(0.5, 0.4), ValueError,
     "need 0 < threshold < target_aggregate < 1, got threshold=0.5, "
     "target_aggregate=0.4"),
    (lambda: CapRule(target_aggregate=np.float32(1)), ValueError,
     "need 0 < threshold < target_aggregate < 1, got threshold=0.045, "
     "target_aggregate=1.0"),
    (lambda: CapRule(threshold=math.nan), ValueError,
     "need 0 < threshold < target_aggregate < 1, got threshold=nan, "
     "target_aggregate=0.4"),
    (lambda: CalibrationTarget("max", 2.0), ValueError,
     "kind must be one of ('max_weight', 'top_k_sum'), got 'max'"),
    (lambda: CalibrationTarget("max_weight", 1.0), ValueError,
     "bound must be in (0, 1), got 1.0"),
    (lambda: CalibrationTarget("max_weight", np.float32(1.5)), ValueError,
     "bound must be in (0, 1), got 1.5"),
    (lambda: CalibrationTarget("top_k_sum", math.nan, k=0), ValueError,
     "bound must be in (0, 1), got nan"),
    (lambda: CalibrationTarget("top_k_sum", 0.5), ValueError,
     "top_k_sum targets need k >= 1"),
    (lambda: CalibrationTarget("top_k_sum", 0.5, k=2.5), ValueError,
     "k must be a positive integer, got 2.5"),
    (lambda: CalibrationTarget("top_k_sum", 0.5, k=True), ValueError,
     "k must be a positive integer, got True"),
    (lambda: CalibrationTarget("max_weight", 0.5, k=1), ValueError,
     "k only applies to top_k_sum targets"),
    (lambda: OrderViolation("A", "B", 0.5, 0.5, 0.5, 0.25), ValueError,
     "violation requires mu_low < mu_high and eta_low > eta_high"),
    (lambda: OrderViolation("A", "B", 0.25, 0.5, 0.25, 0.25), ValueError,
     "violation requires mu_low < mu_high and eta_low > eta_high"),
]


@pytest.mark.parametrize(("build", "error", "message"), REJECTED)
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=whole(message)) as caught:
        build()
    assert type(caught.value) is error


def test_converged_is_a_constant_not_a_field():
    # The solver raises rather than return an unconverged result.
    result = CalibrationResult(0.5, 0.25, 3, (0.5, 0.75))
    assert CalibrationResult.converged is True and result.converged is True
    assert "converged" not in result._asdict()
    with pytest.raises(AttributeError):
        result.converged = False


def test_a_constituent_is_an_identifier_and_a_cap_read_as_a_universe_reads_them():
    assert Constituent(0, 1.0) == Universe([0], [1.0])[0]
    assert Constituent(1, 2.0).identifier == "1"
    with pytest.raises(TypeError):
        Constituent("A")


def test_constructors_take_each_field_by_position_and_keyword():
    assert Constituent("A", 6.0) == Constituent(market_cap=6.0, identifier="A")
    assert LinearizedPowerRule(0.5, 0.25) == LinearizedPowerRule(knot=0.25, p=0.5)
    assert CapRule(0.1, 0.5) == CapRule(target_aggregate=0.5, threshold=0.1)
    assert CalibrationTarget("top_k_sum", 0.4, 6) == CalibrationTarget(
        k=6.0, bound=0.4, kind="top_k_sum"
    )
    with pytest.raises(TypeError):
        PowerRule()
    with pytest.raises(TypeError):
        CapRule(0.1, 0.5, 0.2)
    with pytest.raises(TypeError):
        CalibrationResult(0.5, 0.25, 3)
    old_layout = whole("CalibrationResult takes 4 fields, got 5")
    with pytest.raises(TypeError, match=old_layout):
        CalibrationResult(0.5, 0.25, 3, True, (0.5, 0.75))
    for record, names, _ in RECORDS:
        values = _values(record, names)
        assert type(record)(*values[:2], **dict(zip(names[2:], values[2:]))) == record
    # The records that take their fields through the shared constructor name
    # a field that is unknown, given twice or missing, and one too many.
    shared = (CalibrationResult, OrderViolation, DiagnosticsReport)
    for record in [record for record, _, _ in RECORDS if type(record) in shared]:
        cls, names = type(record), record._fields
        values, name = _values(record, names), cls.__name__
        bad = [
            (lambda: cls(*values, extra=1), f"{name} got unknown field 'extra'"),
            (lambda: cls(*values[:-1], **{names[0]: values[0], names[-1]: values[-1]}),
             f"{name} got repeated field {names[0]!r}"),
            (lambda: cls(**dict(zip(names[:-1], values))),
             f"{name} is missing field {names[-1]!r}"),
            (lambda: cls(*values, values[-1]),
             f"{name} takes {len(names)} fields, got {len(names) + 1}"),
        ]
        for build, message in bad:
            with pytest.raises(TypeError, match=whole(message)):
                build()
    message = "violation requires mu_low < mu_high and eta_low > eta_high"
    with pytest.raises(ValueError, match=whole(message)):
        OrderViolation(
            identifier_low="A", identifier_high="B",
            mu_low=0.5, mu_high=0.25, eta_low=0.5, eta_high=0.25,
        )
