"""In-memory spans recorded around calls into each powerindex module.

The package itself is not modified: ``instrumented`` swaps each traced
public function for a timing wrapper in every powerindex module that
binds it, and restores the originals on exit. Spans stay in memory
until the benchmark writes them out at the end of a traced run.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# Fields of a span record, stored as a list to keep a long trace small.
# COUNTS is None or a dict of counter name -> value seen in that call.
ID, OP, NAME, PARENT, START, END, COUNTS = range(7)

CountFn = Callable[[tuple, Any], dict[str, float]]


class Tracer:
    """Collects spans; each span belongs to one workload operation."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), self.op, name, parent, perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def wrap(
        self, name: str, fn: Callable[..., Any], counter: CountFn | None = None
    ) -> Callable[..., Any]:
        """``fn`` inside a span named ``name``; ``counter(args, result)``
        gives the counts recorded on the span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counter is not None:
                    rec[COUNTS] = counter(args, out)
                return out

        return traced

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Per span id: its duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def child_counts(self, name: str) -> dict[int, int]:
        """Span id -> number of its direct children named ``name``."""
        out: dict[int, int] = {}
        for s in self.spans:
            if s[NAME] == name and s[PARENT] is not None:
                out[s[PARENT]] = out.get(s[PARENT], 0) + 1
        return out

    def counts(self, counter: str) -> list[float]:
        """Every value of ``counter``, one per call that recorded it."""
        return [s[COUNTS][counter] for s in self.spans if s[COUNTS] and counter in s[COUNTS]]

    def per_op(self, counter: str) -> list[float]:
        """Sum of ``counter`` over each operation's spans."""
        ops: dict[int, float] = {}
        for s in self.spans:
            total = ops.setdefault(s[OP], 0.0)
            if s[COUNTS] and counter in s[COUNTS]:
                ops[s[OP]] = total + s[COUNTS][counter]
        return list(ops.values())

    def table(self) -> list[dict[str, Any]]:
        """Calls, inclusive seconds and self seconds per span name."""
        own = self.self_times()
        rows: dict[str, dict[str, Any]] = {}
        for s in self.spans:
            row = rows.setdefault(
                s[NAME], {"span": s[NAME], "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += own[s[ID]]
        return sorted(rows.values(), key=lambda r: -r["self_s"])


def _read(args: tuple, rows: int) -> dict[str, float]:
    return {"io.rows": float(rows), "io.bytes_read": float(os.path.getsize(args[0]))}


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Trace the public functions of every powerindex module.

    Each function is rebound wherever a powerindex module imported it,
    so calls between modules (the CLI calling ``parse_universe``, the
    solver calling ``power_rebalance``) are traced too. Callers must look
    functions up on the module at call time to be traced.
    """
    import powerindex
    from powerindex import calibration, cli, diagnostics, io, transforms, weights

    modules = (powerindex, calibration, cli, diagnostics, io, transforms, weights)
    targets: list[tuple[Callable[..., Any], str, CountFn | None]] = [
        (io.parse_universe, "io.parse_universe", lambda a, r: _read(a, len(r))),
        (io.read_weight_file, "io.read_weight_file", lambda a, r: _read(a, r.n)),
        (io.report_payload, "io.report_payload", None),
        (io.render_report_csv, "io.render_csv", None),
        (io.render_report_json, "io.render_json", None),
        (io.write_report, "io.write_report",
         lambda a, r: {"io.bytes_written": float(os.path.getsize(a[0]))}),
        (weights.weights_from_market_caps, "weights.from_market_caps", None),
        (transforms.power_rebalance, "transforms.power", None),
        (transforms.linearized_power_rebalance, "transforms.linpower", None),
        (transforms.cap_rebalance, "transforms.cap", None),
        (calibration.solve_exponent, "calibration.solve",
         lambda a, r: {"calibration.iterations": float(r.iterations)}),
        (diagnostics.diagnostics_report, "diagnostics.report",
         lambda a, r: {"diagnostics.violations": float(len(r.order_violations))}),
        (diagnostics.find_order_violations, "diagnostics.find_violations", None),
        (diagnostics.turnover, "diagnostics.turnover", None),
        (diagnostics.concentration_metrics, "diagnostics.concentration", None),
        (diagnostics.compare_methods, "diagnostics.compare_methods", None),
    ]
    saved: list[tuple[Any, str, Any]] = []
    try:
        for fn, name, counter in targets:
            wrapped = tracer.wrap(name, fn, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        post_init = weights.WeightVector.__post_init__
        saved.append((weights.WeightVector, "__post_init__", post_init))
        weights.WeightVector.__post_init__ = tracer.wrap("weights.vector", post_init)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
