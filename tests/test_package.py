import powerindex

# The error classes that the two-class error family replaced.
REMOVED = (
    "AllWeightsZeroError",
    "DegenerateComplementError",
    "DuplicateIdentifierError",
    "EmptyUniverseError",
    "IdentifierMismatchError",
    "KExceedsNError",
    "MalformedHeaderError",
    "MalformedRowError",
    "NegativeEntryError",
    "NegativeMarketCapError",
    "NonConvergenceError",
    "NonFiniteNumberError",
    "WeightSumError",
    "ZeroAggregateError",
)


def test_exports_resolve_and_are_sorted():
    names = powerindex.__all__
    assert names == sorted(names)
    assert [name for name in names if not hasattr(powerindex, name)] == []
    assert set(REMOVED).isdisjoint(names)
    assert [name for name in REMOVED if hasattr(powerindex, name)] == []
