"""Command-line interface.

Subcommands: analyze (full JSON report), standardize (standardized
points), collapse (collapsibility reports), plot (figure SVGs), and
simulate (sample a table from a potential-outcomes population).

Tables come from a CSV or JSON file, standard input (``-``), or a
bundled fixture name. Exit status is 0 on success, 1 on input or
validation errors, and 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .diagnostics import (analyze, collapsibility_report_json, full_number,
                          json_text, number_pair, point_json)
from .errors import (GlmError, ParseError, RothmanError, ValidationError,
                     ZeroMarginError)
from .figures import FIGURE_SLUGS, figure_filename, figure_svg
from .geometry import (DEFAULT_CONTAINMENT_TOL, PRESETS, StandardPopulation,
                       standard_population, standardized_point)
from .glm import DEFAULT_LEVEL
from .simulate import parse_population_spec, population_truth, sample_table
from .tables import StratifiedCohortTable, parse_table
from .whickham import BUILTIN_TABLES, builtin_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="rothman",
        description="Geometric cohort-study analysis on the unit square "
                    "of risks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser, default: str | None = "whickham",
                  help: str = "table file, '-' for stdin, or a builtin name "
                              f"({', '.join(sorted(BUILTIN_TABLES))})",
                  ) -> None:
        p.add_argument("input", nargs="?", default=default, help=help)
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="input format (default: by file extension, csv "
                            "otherwise)")

    def add_output(p: argparse.ArgumentParser,
                   help: str = "output path (default: stdout)") -> None:
        p.add_argument("-o", "--output", default=None, help=help)

    p = sub.add_parser("analyze", help="full analysis report as JSON")
    add_input(p)
    add_output(p)
    p.add_argument("--level", type=float, default=DEFAULT_LEVEL,
                   help="confidence level for likelihood-ratio intervals")
    p.add_argument("--tol", type=float, default=DEFAULT_CONTAINMENT_TOL,
                   help="containment tolerance for the confounding flag")
    p.add_argument("--weights", default=None,
                   help="comma-separated custom standard population")

    p = sub.add_parser("standardize", help="standardized points as JSON")
    add_input(p)
    add_output(p)
    p.add_argument("--preset", action="append", choices=PRESETS,
                   default=None, help="standard population preset "
                                      "(repeatable; default: all three)")
    p.add_argument("--weights", default=None,
                   help="comma-separated custom standard population")

    p = sub.add_parser("collapse", help="collapsibility reports as JSON")
    add_input(p)
    add_output(p)

    p = sub.add_parser("plot", help="write a figure as an SVG file")
    add_input(p, None, "table file, '-', or builtin name (default: the "
                       "figure's bundled fixture)")
    p.add_argument("--figure", type=int, required=True,
                   choices=sorted(FIGURE_SLUGS),
                   help="figure number to render")
    add_output(p, "output path (default: fig<N>_<slug>.svg)")

    p = sub.add_parser("simulate",
                       help="sample a table from a population spec")
    p.add_argument("input", help="population spec JSON file or '-'")
    add_output(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (64-bit)")
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_table(source: str, fmt: str | None) -> StratifiedCohortTable:
    if source in BUILTIN_TABLES:
        return builtin_table(source)
    text = _read_source(source)
    if fmt is None:
        fmt = "json" if source.endswith(".json") else "csv"
    return parse_table(text, format=fmt)


def _parse_weights(raw: str, k: int) -> StandardPopulation:
    try:
        weights = tuple(float(w) for w in raw.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --weights value {raw!r}: {exc}") from exc
    if len(weights) != k:
        raise ValidationError(
            f"--weights has {len(weights)} entries for {k} strata")
    return StandardPopulation(weights=weights, preset="custom")


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_analyze(args: argparse.Namespace) -> int:
    table = _load_table(args.input, args.format)
    customs = None
    if args.weights is not None:
        customs = {"custom": _parse_weights(args.weights, table.k)}
    report = analyze(table, level=args.level, containment_tol=args.tol,
                     custom_standards=customs)
    _write(report.to_json(), args.output)
    return EXIT_OK


def _cmd_standardize(args: argparse.Namespace) -> int:
    table = _load_table(args.input, args.format)
    requested: list[tuple[str, StandardPopulation]] = []
    for preset in args.preset or (list(PRESETS)
                                  if args.weights is None else []):
        requested.append((preset, standard_population(table, preset)))
    if args.weights is not None:
        requested.append(("custom", _parse_weights(args.weights, table.k)))
    points = []
    for name, std in requested:
        p = standardized_point(table, std)
        entry: dict = {"name": name}
        entry["weights"] = [float(w) for w in std.weights]
        number_pair(entry, "x", p.x)
        number_pair(entry, "y", p.y)
        points.append(entry)
    _write(json_text({"standardized": points}), args.output)
    return EXIT_OK


def _cmd_collapse(args: argparse.Namespace) -> int:
    table = _load_table(args.input, args.format)
    _write(json_text({"collapsibility": collapsibility_report_json(table)}),
           args.output)
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    table = (None if args.input is None
             else _load_table(args.input, args.format))
    output = args.output or figure_filename(args.figure)
    _write(figure_svg(args.figure, table), output)
    if output != "-":
        sys.stdout.write(output + "\n")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = parse_population_spec(_read_source(args.input))
    if args.n < 1:
        raise ValidationError(f"--n must be positive, got {args.n}")
    truth = population_truth(spec)
    table = sample_table(spec, args.n, args.seed)
    out = json_text({
        "spec": spec.to_json_dict(),
        "n": args.n,
        "seed": args.seed,
        "table": table.to_json_dict(),
        "truth": {
            "causal_points": [point_json(p) for p in truth.causal_points],
            "marginal_causal_point": point_json(truth.marginal_causal_point),
            "association_points": [point_json(p)
                                   for p in truth.association_points],
            "crude_point": point_json(truth.crude_point),
            "confounded": truth.confounded,
        },
    })
    _write(out, args.output)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "standardize": _cmd_standardize,
    "collapse": _cmd_collapse,
    "plot": _cmd_plot,
    "simulate": _cmd_simulate,
}


def _emit_error(code: str, exc: Exception) -> None:
    error = {"code": code, "type": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "trace", None):  # a failed fit's deviance trace
        error["trace"] = [full_number(v) for v in exc.trace]
    sys.stderr.write(json.dumps({"error": error}) + "\n")


def run(argv: list[str]) -> int:
    """Parse and dispatch one invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are validation
        # failures here, and --help/--version exit 0.
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, ZeroMarginError) as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except GlmError as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERICAL
    except RothmanError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        _emit_error("io", exc)
        return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
