"""Command-line entry point.

Subcommands: null (expected return), sim (Monte-Carlo pings), compare
(expected vs simulated mean) and detect (likelihood-ratio detector).

Exit codes: 0 success (and comparison pass), 1 invalid input or usage,
2 comparison failure, 3 numerical diagnostic (quadrature did not converge).
"""

from __future__ import annotations

import argparse
import sys

from .nullmodel import QuadratureError
from .runner import run_compare, run_detect, run_null, run_sim, with_overrides
from .scenario import load_scenario


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1 so exit
    code 2 stays reserved for comparison failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        help="scenario file path or bundled name (scenario1, scenario2)",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    parser.add_argument("--rays", type=int, default=None,
                        help="override rays per ping")
    parser.add_argument("--pings", type=int, default=None,
                        help="override pings per beam")
    parser.add_argument("--gamma", type=float, default=None,
                        help="override the detection threshold")
    parser.add_argument("--no-noise", action="store_true",
                        help="disable ambient noise")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, text in (
        ("null", "write the analytic expected return per beam"),
        ("sim", "simulate pings and write per-bin intensities"),
        ("compare", "simulate and compare against the expected return"),
        ("detect", "simulate and run the likelihood-ratio detector"),
    ):
        p = sub.add_parser(name, help=text, description=text)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        scenario = with_overrides(
            scenario,
            seed=args.seed,
            rays=args.rays,
            pings=args.pings,
            gamma=args.gamma,
            no_noise=args.no_noise,
        )
        if args.command == "null":
            run_null(scenario, args.out)
        elif args.command == "sim":
            run_sim(scenario, args.out)
        elif args.command == "compare":
            if not run_compare(scenario, args.out):
                print("comparison failed: simulated mean strays from the "
                      "expected return", file=sys.stderr)
                return 2
        else:
            run_detect(scenario, args.out)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except QuadratureError as err:
        print(f"numerical diagnostic: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
