"""Command-line front end: run episodes, sweep seeds, render traces, check configs."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .harness import (
    ParseError,
    SweepSpec,
    ValidationError,
    effective_config_text,
    format_summary_table,
    load_scenario,
    parse_seed_range,
    read_trace,
    run_sweep,
    summarize,
)
from .sim import Condition, ConfigError, run_episode
from .trace_plots import render_trace_svg, render_trace_text

_CONDITION_NAMES = [c.value for c in Condition]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnav",
        description="Deterministic guide-robot navigation episodes with two depth viewpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode and print its report")
    run_p.add_argument("--scenario", default="canonical", help="shipped name or a YAML path")
    run_p.add_argument("--condition", choices=_CONDITION_NAMES, default="crossview")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="runs", help="directory for trace files")
    run_p.add_argument("--no-sentinel", action="store_true", help="disable hazard announcements")

    sweep_p = sub.add_parser("sweep", help="batch episodes over conditions and seeds")
    sweep_p.add_argument("--scenario", default="canonical")
    sweep_p.add_argument(
        "--conditions",
        default=",".join(_CONDITION_NAMES),
        help="comma-separated subset of: " + ", ".join(_CONDITION_NAMES),
    )
    sweep_p.add_argument("--seeds", default="0..19", help='inclusive range "A..B" or one integer')
    sweep_p.add_argument("--out", default="runs")
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel episode processes")
    sweep_p.add_argument("--no-sentinel", action="store_true")

    trace_p = sub.add_parser("trace", help="re-render a trace CSV as a plot")
    trace_p.add_argument("trace", help="path to an episode trace CSV")
    trace_p.add_argument("--format", choices=("text", "svg"), default="text")
    trace_p.add_argument("--out", default=None, help="output file (default: stdout / <trace>.svg)")

    check_p = sub.add_parser("check", help="validate a scenario without running it")
    check_p.add_argument("--scenario", default="canonical")
    check_p.add_argument(
        "--print-effective",
        action="store_true",
        help="dump the fully resolved configuration (defaults included)",
    )
    return parser


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.no_sentinel:
        config = dataclasses.replace(config, sentinel_enabled=False)
    report = run_episode(config, Condition(args.condition), args.seed, args.out)
    print(report.to_text_record())
    return 0


def _cmd_sweep(args) -> int:
    try:
        conditions = tuple(Condition(c.strip()) for c in args.conditions.split(",") if c.strip())
    except ValueError as exc:
        raise ConfigError(f"conditions: {exc}") from None
    spec = SweepSpec(
        scenario=args.scenario,
        conditions=conditions,
        seeds=parse_seed_range(args.seeds),
        out_dir=args.out,
        jobs=args.jobs,
        sentinel_enabled=False if args.no_sentinel else None,
    )
    reports = run_sweep(spec)
    table = format_summary_table(summarize(reports))
    records = "\n".join(r.to_text_record() for r in reports)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.txt").write_text(table + "\n\n" + records + "\n")
    print(table)
    return 0


def _cmd_trace(args) -> int:
    trace = read_trace(args.trace)
    if args.format == "svg":
        out = Path(args.out) if args.out else Path(args.trace).with_suffix(".svg")
        out.write_text(render_trace_svg(trace))
        print(f"wrote {out}")
    else:
        text = render_trace_text(trace)
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
    return 0


def _cmd_check(args) -> int:
    config = load_scenario(args.scenario)
    if args.print_effective:
        print(effective_config_text(config), end="")
    else:
        n_ground = sum(1 for ob in config.scene.obstacles if ob.kind.value == "ground")
        n_over = len(config.scene.obstacles) - n_ground
        print(
            f"{config.name}: valid ({n_ground} ground + {n_over} overhead obstacles, "
            f"goal at {config.scene.goal.tolist()})"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "trace": _cmd_trace, "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
