"""Command line interface.

    cep run --pattern FILE (--input FILE | --generate SPEC) --mode MODE ...
    cep gen --spec FILE --out FILE
    cep difftest --cases N --seed S [--max-events K]

``python -m cep`` runs the same interface.

Exit codes: 0 success, 1 differential divergence, 2 usage, build or output
error, 3 stream data error. ``cep run`` opens its output files before it
reads the stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from typing import Optional

from .bench import run_benchmark
from .difftest import run_suite
from .engine import MODES, apply_group_by
from .events import StreamDataError
from .nfa import BuildError
from .patterns import (ParseError, PatternError, parse_pattern, parse_window,
                       to_dnf)
from .streams import (StreamSpec, generate_stream, load_csv, measure_rates,
                      read_rates, save_csv)


def _parse_duration(text: str) -> int:
    """A window in milliseconds (:func:`cep.patterns.parse_window`)."""
    try:
        return parse_window(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {least}, got {text!r}")
        return int(text)
    return parse


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cep")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a pattern over a stream")
    run.add_argument("--pattern", required=True, help="pattern file")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="event CSV file")
    src.add_argument("--generate", help="stream spec JSON file")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--window", type=_parse_duration,
                     help="override the pattern's window")
    run.add_argument("--rates", help="JSON file: type -> events/sec")
    run.add_argument("--measure-rates", type=_count(2), metavar="N",
                     help="estimate rates from the first N events")
    run.add_argument("--seed", type=int, help="override generator seed")
    run.add_argument("--dedup", action="store_true",
                     help="suppress duplicate matches of composite patterns")
    run.add_argument("--group-by", metavar="ROLE.ATTR",
                     help="group-by attribute for the iterated role")
    run.add_argument("--repeats", type=_count(1), default=1)
    run.add_argument("--warmup", action="store_true",
                     help="discard one untimed warm-up run")
    run.add_argument("--matches-out", help="write match lines here")
    run.add_argument("--metrics-out", help="write the JSON report here")
    run.add_argument("--metrics-csv",
                     help="append long-format metric rows (mode,metric,x,value)")

    gen = sub.add_parser("gen", help="generate a synthetic stream CSV")
    gen.add_argument("--spec", required=True, help="stream spec JSON file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, help="override spec seed")

    diff = sub.add_parser("difftest",
                          help="randomized oracle/eager/lazy comparison")
    diff.add_argument("--cases", type=_count(1), default=500)
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--max-events", type=_count(0), default=25)
    return top


def _read_spec(path: str, seed: Optional[int]) -> StreamSpec:
    """The stream spec in the JSON file ``path``, with ``seed`` if given."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = StreamSpec.from_json(fh.read())
    return spec if seed is None else replace(spec, seed=seed)


def _flatten_report(report: dict, prefix: str = "") -> list:
    rows = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_report(value, f"{name}."))
        elif isinstance(value, (int, float)) and value is not None:
            rows.append((name, value))
    return rows


# cep run's output files, each opened in its mode before the stream is read.
OUTPUTS = {"matches_out": "w", "metrics_out": "w", "metrics_csv": "a"}


def cmd_run(args) -> int:
    try:
        with open(args.pattern, "r", encoding="utf-8") as fh:
            ast = parse_pattern(fh.read())
        chains = to_dnf(ast)
    except (ParseError, PatternError, OSError) as exc:
        print(f"pattern error: {exc}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        try:
            outs = {name: stack.enter_context(open(
                getattr(args, name), mode, encoding="utf-8", newline="\n"))
                for name, mode in OUTPUTS.items() if getattr(args, name)}
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        return _run(args, chains, outs)


def _run(args, chains, outs: dict) -> int:
    """Read the stream, run it and write ``outs``, the open output files."""
    try:
        spec = None if args.input else _read_spec(args.generate, args.seed)
        events = load_csv(args.input) if args.input else generate_stream(spec)
    except (StreamDataError, OSError, ValueError) as exc:
        print(f"stream error: {exc}", file=sys.stderr)
        return 3

    rates = None
    if args.rates:
        try:
            with open(args.rates, "r", encoding="utf-8") as fh:
                rates = read_rates(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"rates error: {exc}", file=sys.stderr)
            return 2
    elif args.measure_rates:
        try:
            rates = measure_rates(events, args.measure_rates)
        except StreamDataError as exc:
            print(f"stream error: {exc}", file=sys.stderr)
            return 3
    elif spec is not None:
        rates = dict(spec.rates)

    try:
        if args.window is not None:
            chains = [replace(c, window=args.window) for c in chains]
        if args.group_by:
            role, _, attr = args.group_by.partition(".")
            if not attr:
                raise BuildError("--group-by expects ROLE.ATTR")
            chains = apply_group_by(chains, role, attr)
        result = run_benchmark(chains, events, args.mode, rates=rates,
                               repeats=args.repeats, warmup=args.warmup,
                               dedup=args.dedup)
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return 2
    except StreamDataError as exc:
        print(f"stream error: {exc}", file=sys.stderr)
        return 3

    if "matches_out" in outs:
        outs["matches_out"].writelines(line + "\n" for line in result.lines)
    if "metrics_out" in outs:
        json.dump(result.report, outs["metrics_out"], indent=2, sort_keys=True)
        outs["metrics_out"].write("\n")
    if "metrics_csv" in outs:
        window = chains[0].window
        outs["metrics_csv"].writelines(
            f"{args.mode},{metric},{window},{value}\n"
            for metric, value in _flatten_report(result.report))
    tp = result.report["throughput_eps"]
    print(f"{args.mode}: {result.metrics.events_processed} events, "
          f"{result.metrics.matches} matches, "
          f"throughput {tp:.0f} events/sec" if tp else
          f"{args.mode}: {result.metrics.matches} matches")
    return 0


def cmd_gen(args) -> int:
    try:
        events = generate_stream(_read_spec(args.spec, args.seed))
        save_csv(events, args.out)
    except (OSError, ValueError) as exc:
        print(f"gen error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def cmd_difftest(args) -> int:
    divergence = run_suite(args.cases, args.seed, args.max_events,
                           progress=lambda n: print(f"  {n} cases ok"))
    if divergence is not None:
        print("DIVERGENCE FOUND (shrunken case):")
        print(divergence.describe())
        return 1
    print(f"{args.cases} cases, all modes agree with the oracle")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "gen":
        return cmd_gen(args)
    return cmd_difftest(args)


if __name__ == "__main__":
    sys.exit(main())
