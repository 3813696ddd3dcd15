"""Command line front end.

    nextstep gen --scenario mix --components 40 --seed 7 --output trace.txt
    nextstep run trace.txt --output metrics.csv --save-db rules.db
    nextstep compare trace.txt --output-prefix report
    nextstep repl --steps 1,2,3,4 --classifications 0,1
    nextstep db-inspect rules.db

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed data.  Diagnostics and the effective configuration go to
stderr; requested data goes to stdout or the named files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Iterable, Sequence

from .atomicwrite import write_text_atomically
from .engine import (
    ENGINE_MODES,
    EXTENSION_DIRECTIONS,
    Engine,
    PredictorConfig,
)
from .errors import NextStepError
from .evaluation import (
    compare_engines,
    dump_trace,
    metrics_to_csv,
    parse_record,
    read_trace,
    render_comparison_svg,
    run_trace,
)
from .lookupdb import LookupDB, read_snapshot, split_slot_key, write_snapshot
from .scenarios import TRACE_KINDS, generate_trace
from .window import Observation, parse_id, reject_loose_numbers


def _add_engine_arguments(
    parser: argparse.ArgumentParser, with_engine_flag: bool
) -> None:
    """One flag per PredictorConfig field, each defaulting to the field's
    default; ``compare`` runs both engine modes and so has no --engine."""
    default = PredictorConfig()
    group = parser.add_argument_group("engine configuration")
    group.add_argument("--alpha", type=float, default=default.alpha,
                       help="reinforcement rate in (0, 1), default %(default)s")
    group.add_argument("--theta", type=float, default=default.theta,
                       help="context weight threshold in [0, 1), default %(default)s")
    group.add_argument("--window-capacity", type=int, default=default.window_capacity,
                       help="observations kept for matching, default %(default)s")
    if with_engine_flag:
        group.add_argument("--engine", choices=ENGINE_MODES, dest="engine_mode",
                           default=default.engine_mode,
                           help="score with or without context weights")
    group.add_argument("--extension-direction", choices=EXTENSION_DIRECTIONS,
                       default=default.extension_direction,
                       help="grow rules toward the new step or into the past")


def _config_from_args(args: argparse.Namespace) -> PredictorConfig:
    return PredictorConfig(**{
        field.name: getattr(args, field.name)
        for field in fields(PredictorConfig)
        if hasattr(args, field.name)
    })


def _echo_config(config: PredictorConfig, mode_text: str | None = None) -> None:
    values = {field.name: getattr(config, field.name) for field in fields(config)}
    if mode_text:
        values["engine_mode"] = mode_text
    pairs = "".join(f" {name}={value}" for name, value in values.items())
    print(f"config:{pairs}", file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    write_text_atomically(path, text)


def _parse_id_list(text: str, what: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    reject_loose_numbers(text)
    return tuple(parse_id(token.strip(), f"{what} id") for token in text.split(","))


def _read_records(path: str) -> list[Observation]:
    """The trace's records; a file without any is bad data (exit 2)."""
    observations = read_trace(path)
    if not observations:
        raise NextStepError(f"trace {path} is empty")
    return observations


def _cmd_gen(args: argparse.Namespace) -> int:
    print(
        f"config: scenario={args.scenario} components={args.components}"
        f" requirements={args.requirements} seed={args.seed}",
        file=sys.stderr,
    )
    trace = generate_trace(
        args.scenario, args.components, args.requirements, args.seed
    )
    _write_text(args.output, dump_trace(trace))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _echo_config(config)
    observations = _read_records(args.trace)
    engine, rows = run_trace(observations, config)
    _write_text(args.output, metrics_to_csv(rows))
    if args.save_db:
        write_snapshot(engine.db, config.alpha, config.theta, args.save_db)
        print(f"wrote {args.save_db}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _echo_config(config, mode_text="context+baseline")
    observations = _read_records(args.trace)
    context_rows, baseline_rows = compare_engines(observations, config)
    outputs = (
        (f"{args.output_prefix}_context.csv", metrics_to_csv(context_rows)),
        (f"{args.output_prefix}_baseline.csv", metrics_to_csv(baseline_rows)),
        (f"{args.output_prefix}.svg",
         render_comparison_svg(context_rows, baseline_rows)),
    )
    for path, text in outputs:
        _write_text(path, text)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _inspect_lines(db: LookupDB) -> list[str]:
    """Human-oriented dump: strongest and longest rules first."""
    lines = [f"{len(db)} entries"]
    ordered = sorted(
        db, key=lambda e: (-len(e.condition), -e.p, e.entry_id)
    )
    for entry in ordered:
        cond = ",".join(str(step) for step in entry.condition)
        line = f"cond={cond} pred={entry.prediction} p={entry.p:.3f}"
        for key, slot in sorted(entry.slots.items()):
            cc, index = split_slot_key(key)
            top_ctx = min(
                slot.per_context, key=lambda ctx: (-slot.per_context[ctx], ctx)
            )
            line += f" | {cc},{index}={top_ctx}:{slot.weight(top_ctx):.2f}"
        lines.append(line)
    return lines


def _cmd_db_inspect(args: argparse.Namespace) -> int:
    db, alpha, theta = read_snapshot(args.snapshot)
    print(f"config: alpha={alpha!r} theta={theta!r}", file=sys.stderr)
    sys.stdout.write("\n".join(_inspect_lines(db)) + "\n")
    return 0


def _loaded_engine(
    path: str, config: PredictorConfig, steps: Iterable[int], classifications: Iterable[int]
) -> Engine:
    """An engine over the snapshot at ``path``, with its alpha and theta."""
    db, alpha, theta = read_snapshot(path)
    return Engine(replace(config, alpha=alpha, theta=theta), steps, classifications, db)


def _cmd_repl(args: argparse.Namespace) -> int:
    steps = _parse_id_list(args.steps, "step")
    classifications = _parse_id_list(args.classifications, "classification")
    config = _config_from_args(args)
    if args.load:
        engine = _loaded_engine(args.load, config, steps, classifications)
    else:
        engine = Engine(config, steps, classifications)
    _echo_config(engine.config)
    while True:
        result = engine.predict()
        if result is None:
            print("no suggestion")
        else:
            cond = ",".join(str(step) for step in result.condition)
            print(
                f"suggestion: step={result.step}"
                f" actual_p={result.actual_p:.6f} cond={cond}"
            )
        sys.stdout.flush()
        raw = sys.stdin.readline()
        if not raw:
            break
        line = raw.lstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(":"):
            next_engine = _repl_command(engine, line.rstrip())
            if next_engine is None:
                break
            engine = next_engine
            continue
        try:
            engine.learn(parse_record(raw))
        except (NextStepError, ValueError) as exc:
            print(f"error: {exc}")
    return 0


def _repl_command(engine: Engine, line: str) -> Engine | None:
    """Handle one meta command.

    Returns the engine to continue with (:load swaps it) or None to
    leave the loop.
    """
    command, _, argument = line.partition(" ")
    argument = argument.strip()
    try:
        if command == ":quit":
            return None
        if command == ":db":
            print("\n".join(_inspect_lines(engine.db)))
        elif command == ":save":
            if not argument:
                raise ValueError(":save needs a path")
            write_snapshot(
                engine.db, engine.config.alpha, engine.config.theta, argument
            )
            print(f"saved {argument}")
        elif command == ":load":
            if not argument:
                raise ValueError(":load needs a path")
            engine = _loaded_engine(argument, engine.config, engine.steps, engine.classifications)
            print(f"loaded {argument} ({len(engine.db)} entries)")
        else:
            raise ValueError(f"unknown command {command!r}")
    except (NextStepError, OSError, ValueError) as exc:
        print(f"error: {exc}")
    return engine


# The namespace attribute where a subcommand's parser leaves itself and
# the arguments it did not know.
_SUBCOMMAND_EXTRA = "_subcommand_extra"


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it names its own unknown arguments.

    argparse's subparsers hand arguments they do not know back to the
    top parser, which would report them under the top usage.  This
    parser leaves itself and those arguments in the namespace, for
    _TopParser to report under this parser's usage.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            setattr(namespace, _SUBCOMMAND_EXTRA, (self, extra))
        return namespace, extra


class _TopParser(argparse.ArgumentParser):
    """The top parser: it names every unknown argument, in the order given.

    When all of them follow the subcommand, that subcommand's parser
    reports them under its usage.  When any comes before it, this
    parser reports them all under the top usage.
    """

    def parse_args(self, args=None, namespace=None):
        namespace, extra = self.parse_known_args(args, namespace)
        if extra:
            subparser, theirs = getattr(namespace, _SUBCOMMAND_EXTRA, (self, extra))
            reporter = subparser if theirs == extra else self
            reporter.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace


def _build_parser() -> argparse.ArgumentParser:
    parser = _TopParser(
        prog="nextstep",
        description="Online next-step prediction over enactment traces.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    gen = commands.add_parser("gen", help="generate a synthetic trace")
    gen.add_argument("--scenario", choices=TRACE_KINDS, required=True,
                     help="block style: depth-first (a), breadth-first (b), mix")
    gen.add_argument("--components", type=int, required=True,
                     help="number of components worked through, one block each")
    gen.add_argument("--requirements", type=int, default=3,
                     help="requirements handled per component, default 3")
    gen.add_argument("--seed", type=int, default=0,
                     help="style generator seed for --scenario mix, default 0")
    gen.add_argument("--output", default="-",
                     help="trace file to write, - for stdout")
    gen.set_defaults(handler=_cmd_gen)

    run = commands.add_parser("run", help="replay a trace file, emit metrics")
    run.add_argument("trace", help="trace file to replay")
    run.add_argument("--output", default="-",
                     help="metrics CSV to write, - for stdout")
    run.add_argument("--save-db", default=None, metavar="PATH",
                     help="write the trained rule database snapshot here")
    _add_engine_arguments(run, with_engine_flag=True)
    run.set_defaults(handler=_cmd_run)

    compare = commands.add_parser(
        "compare", help="replay with and without context, emit CSVs and SVG"
    )
    compare.add_argument("trace", help="trace file to replay")
    compare.add_argument("--output-prefix", required=True,
                         help="writes <prefix>_context.csv, <prefix>_baseline.csv, <prefix>.svg")
    _add_engine_arguments(compare, with_engine_flag=False)
    compare.set_defaults(handler=_cmd_compare)

    repl = commands.add_parser(
        "repl", help="interactive loop: suggestion out, observation in"
    )
    repl.add_argument("--load", default=None, metavar="PATH",
                      help="start from a saved database snapshot")
    repl.add_argument("--steps", default="1,2,3,4",
                      help="comma-separated step universe, default 1,2,3,4")
    repl.add_argument("--classifications", default="0,1",
                      help="comma-separated classification universe, default 0,1")
    _add_engine_arguments(repl, with_engine_flag=True)
    repl.set_defaults(handler=_cmd_repl)

    inspect = commands.add_parser("db-inspect", help="print a snapshot's rules")
    inspect.add_argument("snapshot", help="database snapshot to read")
    inspect.set_defaults(handler=_cmd_db_inspect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # A usage error exits 1, not argparse's 2: 2 means bad data here.
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except (NextStepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
