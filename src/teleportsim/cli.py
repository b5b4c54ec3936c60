"""Command line front end for scenario runs, budgets, ladders and rates."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from . import harness


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="reports", help="output directory (default: reports)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleportsim",
        description="Three-node teleportation network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file and write reports")
    run.add_argument("scenario", help="scenario configuration file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--analytic", action="store_true", help="force analytic mode")
    _add_out(run)

    budget = sub.add_parser("budget", help="error-budget table for a link or the teleporter")
    budget.add_argument("scenario", help="scenario configuration file")
    budget.add_argument("--link", required=True, choices=("AB", "BC", "teleport"))
    _add_out(budget)

    ladder = sub.add_parser("ladder", help="cumulative effect of the protocol upgrades")
    ladder.add_argument("scenario", help="baseline scenario configuration file")
    _add_out(ladder)

    rates = sub.add_parser("rates", help="event-rate estimates for detection windows")
    rates.add_argument("scenario", help="scenario configuration file")
    rates.add_argument(
        "--windows", default="15,10,7.5", help="comma-separated window lengths in ns"
    )
    _add_out(rates)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.command == "run":
        report = harness.run_scenario(
            args.scenario, out, seed=args.seed, shots=args.shots, analytic=args.analytic
        )
        print(f"scenario {report.scenario.name}: wrote {len(report.files)} files to {out}")
        if "average_fidelity" in report.results:
            print(f"  average fidelity: {report.results['average_fidelity']:.4f}")
        return 0

    scenario = harness.load_scenario(args.scenario)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "budget":
        if args.link == "teleport":
            rows = harness.teleport_budget_table(scenario)
        else:
            rows = harness.link_budget_table(args.link, scenario.window_ns)
        path = out / f"{scenario.name}.budget_{args.link}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "infidelity"])
            for src in sorted(rows):
                writer.writerow([src, f"{rows[src]:.6f}"])
        print(json.dumps({"budget": args.link, "rows": rows}, sort_keys=True, indent=2))
        print(f"wrote {path}")
        return 0

    if args.command == "ladder":
        rows = harness.improvement_ladder(scenario)
        path = out / f"{scenario.name}.ladder.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "average_fidelity", "rate_hz"])
            for row in rows:
                writer.writerow(
                    [row["step"], f"{row['average_fidelity']:.6f}", f"{row['rate_hz']:.8f}"]
                )
        for row in rows:
            print(
                f"{row['step']:>22}: fidelity {row['average_fidelity']:.4f}"
                f"  rate 1/({1.0 / row['rate_hz']:.0f} s)"
            )
        print(f"wrote {path}")
        return 0

    if args.command == "rates":
        try:
            windows = tuple(float(w) for w in str(args.windows).split(","))
        except ValueError:
            raise harness.HarnessError(
                f"--windows: expected comma-separated numbers, got {args.windows!r}"
            ) from None
        rows = harness.window_rate_sweep(scenario, windows)
        path = out / f"{scenario.name}.rates.json"
        path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
        for row in rows:
            print(
                f"window {row['window_ns']:>5.1f} ns: rate 1/({1.0 / row['rate_hz']:.0f} s)"
                f"  fidelity {row['average_fidelity']:.4f}"
            )
        print(f"wrote {path}")
        return 0

    raise harness.HarnessError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
