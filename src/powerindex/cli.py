"""Command-line interface.

Four subcommands: ``rebalance`` (apply one rule to a universe file and
write a report), ``solve`` (calibrate the exponent to a concentration
bound), ``diagnose`` (compare two weight files for pathologies), and
``compare`` (run several rules side by side).

Exit codes: 0 success/clean, 1 usage error, 2 input error, 3 infeasible
solve, 4 pathology detected by diagnose. Console numbers are rendered to
6 significant digits, except the ``p_star`` that ``solve`` prints, which
is exact so that it can be passed back to ``rebalance --p``; report
files carry full precision.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from .calibration import CalibrationTarget, solve_exponent
from .errors import InfeasibleError, RebalanceError
from .transforms import RULES, RebalanceRule, apply_rule
from .weights import weights_from_market_caps

if TYPE_CHECKING:
    from .diagnostics import DiagnosticsReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_PATHOLOGY = 4

MAX_VIOLATIONS_LISTED = 20

# Every rule parameter, in the order the rules declare them.
_RULE_PARAMS = list(dict.fromkeys(n for rule in RULES.values() for n in rule._fields))
# Shorter spellings accepted in a --methods entry.
_SPEC_ALIASES = {"target": "target_aggregate"}


class _UsageError(Exception):
    """A usage error, printed as ``error: <message>`` after ``usage``,
    argparse's usage text where the parser raised it."""

    def __init__(self, message: str, usage: str = "") -> None:
        super().__init__(f"{usage}error: {message}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # argparse quotes some arguments raw; keep the error on one line.
        message = message.replace("\r", "\\r").replace("\n", "\\n")
        raise _UsageError(message, self.format_usage())


def _g(value: float) -> str:
    """6-significant-digit console rendering."""
    return f"{value:.6g}"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="powerindex",
        description=(
            "Rebalance capitalization-weighted index weights with power "
            "transforms, calibrate the exponent to concentration targets, "
            "and diagnose rebalance pathologies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rb = sub.add_parser("rebalance", help="apply one reweighting rule")
    so = sub.add_parser("solve", help="calibrate the exponent to a bound")
    dg = sub.add_parser("diagnose", help="compare two weight files")
    cp = sub.add_parser("compare", help="run several rules side by side")
    for command in (rb, so, cp):
        command.add_argument("--input", required=True, help="constituent CSV")

    rb.add_argument(
        "--method",
        required=True,
        choices=list(RULES),
        help="rule to apply; parameters left out take the rule's defaults",
    )
    for name in _RULE_PARAMS:
        rb.add_argument(_flag(name), dest=name, type=float)
    rb.add_argument("--output", required=True, help="report file to write")
    rb.add_argument("--format", choices=["csv", "json"], default="csv")

    so.add_argument("--target", required=True, choices=["max", "top-k"])
    so.add_argument("--k", type=int, help="k for the top-k target")
    so.add_argument("--bound", type=float, required=True)

    dg.add_argument("--before", required=True)
    dg.add_argument("--after", required=True)

    cp.add_argument(
        "--methods",
        required=True,
        help=(
            "comma-separated rules, e.g. "
            "'power:p=0.5,linpower:p=0.5:knot=0.01,cap'"
        ),
    )
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _make_rule(
    method: str,
    given: dict[str, float],
    label: str,
    spell: Callable[[str], str],
) -> RebalanceRule:
    """Build ``RULES[method]`` from the given parameters; the others take
    the defaults of the rule's constructor. ``label`` names the rule in
    messages, and ``spell`` writes a parameter the way the user does:
    ``--p`` as a flag, ``p=`` in a --methods entry.
    """
    rule = RULES.get(method)
    if rule is None:
        raise _UsageError(f"unknown method {method!r}")
    names = rule._fields
    unknown = [key for key in given if key not in names]
    if unknown:
        raise _UsageError(
            f"{label} takes no {spell(unknown[0])}; "
            f"it takes {', '.join(map(spell, names))}"
        )
    # The constructor takes the fields in order; the last ones have defaults.
    required = names[: len(names) - len(rule.__init__.__defaults__ or ())]
    for name in required:
        if name not in given:
            raise _UsageError(f"{label} requires {spell(name)}")
    try:
        return rule(**given)
    except ValueError as exc:
        raise _UsageError(f"{label}: {exc}") from exc


def parse_methods_spec(spec: str) -> list[tuple[str, RebalanceRule]]:
    """Parse 'method[:key=value...]' entries separated by commas."""
    rules: list[tuple[str, RebalanceRule]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        method = parts[0].strip()
        given: dict[str, float] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise _UsageError(f"malformed method parameter {part!r} in {entry!r}")
            key, _, raw = part.partition("=")
            key = key.strip()
            name = _SPEC_ALIASES.get(key, key)
            if name in given:
                raise _UsageError(f"{name}= given twice in {entry!r}")
            try:
                given[name] = float(raw)
            except ValueError:
                raise _UsageError(f"{raw!r} is not a number in {entry!r}") from None
        rule = _make_rule(method, given, repr(entry), lambda name: name + "=")
        rules.append((entry, rule))
    if not rules:
        raise _UsageError("--methods names no rules")
    return rules


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from .diagnostics import diagnostics_report
    from .io import parse_universe, report_payload, write_report

    given = {n: v for n in _RULE_PARAMS if (v := getattr(args, n)) is not None}
    rule = _make_rule(args.method, given, f"--method {args.method}", _flag)
    mu = weights_from_market_caps(parse_universe(args.input))
    eta = apply_rule(mu, rule)
    report = diagnostics_report(mu, eta)
    payload = report_payload(args.method, rule._asdict(), mu, eta, report)
    write_report(args.output, payload, args.format)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    from .io import parse_universe

    if args.target == "top-k" and args.k is None:
        raise _UsageError("--target top-k requires --k")
    kind = "max_weight" if args.target == "max" else "top_k_sum"
    try:
        target = CalibrationTarget(kind, args.bound, k=args.k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    mu = weights_from_market_caps(parse_universe(args.input))
    result = solve_exponent(mu, target)
    lo, hi = result.bracket
    print(
        f"p_star={result.p_star!r} achieved={_g(result.achieved)} converged=true "
        f"iterations={result.iterations} bracket_width={_g(hi - lo)}"
    )
    return EXIT_OK


def _print_report(report: DiagnosticsReport) -> None:
    print(f"turnover={_g(report.turnover)}")
    print(
        f"max_before={_g(report.max_before)} max_after={_g(report.max_after)} "
        f"max_increased={'true' if report.max_increased else 'false'}"
    )
    print(f"order_violations={len(report.order_violations)}")
    for violation in report.order_violations[:MAX_VIOLATIONS_LISTED]:
        print(
            f"  {violation.identifier_low} "
            f"({_g(violation.mu_low)} -> {_g(violation.eta_low)}) "
            f"now above {violation.identifier_high} "
            f"({_g(violation.mu_high)} -> {_g(violation.eta_high)})"
        )
    hidden = len(report.order_violations) - MAX_VIOLATIONS_LISTED
    if hidden > 0:
        print(f"  ... {hidden} more")
    print(f"hhi_before={_g(report.hhi_before)} hhi_after={_g(report.hhi_after)}")
    for k, (before, after) in sorted(report.top_k_sums.items()):
        print(f"top{k}_before={_g(before)} top{k}_after={_g(after)}")
    print(
        f"diversity_before={_g(report.diversity_before)} "
        f"diversity_after={_g(report.diversity_after)}"
    )


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnostics import diagnostics_report
    from .io import read_weight_file

    before = read_weight_file(args.before)
    after = read_weight_file(args.after)
    report = diagnostics_report(before, after)
    _print_report(report)
    return EXIT_PATHOLOGY if report.has_pathology else EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .diagnostics import compare_methods
    from .io import parse_universe

    labeled = parse_methods_spec(args.methods)
    mu = weights_from_market_caps(parse_universe(args.input))
    results = compare_methods(mu, [rule for _, rule in labeled])
    row = "{:<32} {:>10} {:>10} {:>10} {:>10} {:>10}".format
    print(row("method", "turnover", "max_after", "violations", "hhi_after", "diversity"))
    for (label, _), (_, report) in zip(labeled, results):
        print(row(
            label, _g(report.turnover), _g(report.max_after),
            len(report.order_violations), _g(report.hhi_after),
            _g(report.diversity_after),
        ))
    return EXIT_OK


_COMMANDS = {
    "rebalance": _cmd_rebalance,
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
    "compare": _cmd_compare,
}


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run one subcommand, return the exit status."""
    command = "powerindex"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        return _COMMANDS[command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (RebalanceError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # A short line of strings that exist already: printing it needs no
        # large allocation while the command's memory is still held.
        print(f"{command}: out of memory", file=sys.stderr)
        return EXIT_INPUT
