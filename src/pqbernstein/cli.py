"""Command-line interface.

Subcommands: selftest, korovkin, moments, bounds, figure.  Exit codes:
0 all checks passed, 1 a bound/convergence check failed, 2 configuration
error, 3 numerical infeasibility (quadrature truncation cap, basis
coefficients outside the double range, or an array larger than the memory
available, such as the basis matrix of a very large --grid).
"""

from __future__ import annotations

import argparse
import sys

from .error_bounds import DEFAULT_RATIO_CAP
from .experiments import (
    DEFAULT_GRID_SIZE,
    DEFAULT_SCHEDULE_GUARD,
    FIGURE_DEFAULT_PARAMS,
    ConfigError,
    custom_schedule,
    run_bounds,
    run_figure,
    run_korovkin,
    run_moments,
    run_selftest,
    schedule,
)
from .functions import BUILTINS
from .operator_eval import BasisVariant, NumericalRangeError, SchurerConfig
from .pq_core import PQPair
from .pq_quadrature import TruncationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _list_of(kind: type):
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            )

    return parse


def _param_triples(text: str) -> list[tuple[float, float, int]]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected p:q:n triples separated by commas, got {tok!r}"
            )
        out.append((float(parts[0]), float(parts[1]), int(parts[2])))
    return out


def _config(args) -> SchurerConfig:
    return SchurerConfig(
        n=args.n, ell=args.ell, basis_variant=BasisVariant(args.basis), quad_tol=args.tol
    )


def _pq(args) -> PQPair:
    if args.p is None or args.q is None:
        raise ConfigError("this subcommand needs explicit --p and --q")
    return PQPair(args.p, args.q)


def _emit(args, report) -> None:
    """CSV to stdout, or BASE.csv and BASE.json with --out BASE."""
    if args.out is None:
        sys.stdout.write(report.to_csv_text())
    else:
        csv_path, json_path = report.write(args.out)
        print(f"wrote {csv_path} and {json_path}", file=sys.stderr)


def _cmd_selftest(args) -> int:
    result = run_selftest(basis_variant=BasisVariant(args.basis))
    sys.stdout.write(result.matrix_text())
    return EXIT_OK if result.all_passed else EXIT_CHECK_FAILED


def _cmd_korovkin(args) -> int:
    if args.schedule == "custom":
        if args.p_list is None or args.q_list is None:
            raise ConfigError("--schedule custom needs --p-list and --q-list")
        sched = custom_schedule(args.n_list, args.p_list, args.q_list)
    elif args.p_list is not None or args.q_list is not None:
        raise ConfigError("--p-list and --q-list need --schedule custom")
    else:
        sched = schedule(args.schedule)
    result = run_korovkin(
        sched,
        args.n_list,
        ell=args.ell,
        grid_size=args.grid,
        quad_tol=args.tol,
        basis_variant=BasisVariant(args.basis),
        guard=args.guard,
    )
    _emit(args, result)
    if not result.converged:
        print("korovkin: sup errors are not strictly decreasing", file=sys.stderr)
    if not result.e0_within_budget:
        print("korovkin: constant-function error above truncation budget", file=sys.stderr)
    return EXIT_OK if result.all_passed else EXIT_CHECK_FAILED


def _cmd_moments(args) -> int:
    report = run_moments(_config(args), _pq(args), grid_size=args.grid)
    _emit(args, report)
    if report.flagged:
        print(
            "moments: closed forms deviate from the operator oracle "
            f"(max {report.max_abs_diff_overall:.3e}); see the discrepancy flag",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if (args.lip_m is None) != (args.lip_alpha is None):
        raise ConfigError("give both --lip-m and --lip-alpha, or neither for the built-in data")
    lipschitz = None if args.lip_m is None else (args.lip_m, args.lip_alpha)
    report = run_bounds(
        args.theorem,
        _config(args),
        _pq(args),
        function_name=args.function,
        grid_size=args.grid,
        ratio_cap=args.ratio_cap,
        lipschitz=lipschitz,
    )
    _emit(args, report)
    if not report.all_passed:
        print(f"bounds[{args.theorem}]: check failed on the grid", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_figure(args) -> int:
    table = run_figure(
        args.params,
        ell=args.ell,
        grid_size=args.grid,
        quad_tol=args.tol,
        basis_variant=BasisVariant(args.basis),
    )
    _emit(args, table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqbernstein",
        description=(
            "Kantorovich-type (p,q)-Bernstein-Schurer operator toolkit: "
            "convergence runs, moment and bound reports, figure data."
        ),
    )
    basis = argparse.ArgumentParser(add_help=False)
    basis.add_argument(
        "--basis",
        choices=("printed", "normalized"),
        default=SchurerConfig.basis_variant.value,
        help="basis convention (printed is not a partition of unity for p<1)",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[basis])
    common.add_argument(
        "--ell", type=int, default=SchurerConfig.ell, help="Schurer shift (default %(default)s)"
    )
    common.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, help="x-grid size on [0,1]")
    common.add_argument(
        "--tol", type=float, default=SchurerConfig.quad_tol, help="quadrature tolerance"
    )
    common.add_argument(
        "--out",
        default=None,
        metavar="BASE",
        help="write BASE.csv and BASE.json (CSV to stdout if omitted)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_self = sub.add_parser("selftest", parents=[basis], help="run the built-in check matrix")
    p_self.set_defaults(handler=_cmd_selftest)

    p_kor = sub.add_parser("korovkin", parents=[common], help="convergence run along a schedule")
    p_kor.add_argument("--n", dest="n_list", type=_list_of(int), default=[8, 16, 32, 64, 128])
    p_kor.add_argument("--schedule", choices=("classic", "q-only", "custom"), default="classic")
    p_kor.add_argument("--p-list", type=_list_of(float), default=None, help="custom p per n")
    p_kor.add_argument("--q-list", type=_list_of(float), default=None, help="custom q per n")
    p_kor.add_argument("--guard", type=float, default=DEFAULT_SCHEDULE_GUARD)
    p_kor.set_defaults(handler=_cmd_korovkin)

    p_mom = sub.add_parser("moments", parents=[common], help="oracle vs closed-form moments")
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--p", type=float, default=None)
    p_mom.add_argument("--q", type=float, default=None)
    p_mom.set_defaults(handler=_cmd_moments)

    p_bnd = sub.add_parser("bounds", parents=[common], help="error-bound checks")
    p_bnd.add_argument("--theorem", choices=("t32", "t33", "t34"), required=True)
    p_bnd.add_argument("--n", type=int, required=True)
    p_bnd.add_argument("--p", type=float, default=None)
    p_bnd.add_argument("--q", type=float, default=None)
    p_bnd.add_argument("--function", choices=tuple(BUILTINS), default="f_fig")
    p_bnd.add_argument("--lip-m", type=float, default=None, help="Lipschitz constant M (t33)")
    p_bnd.add_argument("--lip-alpha", type=float, default=None, help="Lipschitz exponent (t33)")
    p_bnd.add_argument(
        "--ratio-cap",
        type=float,
        default=None,
        help=f"ratio cap, t34 only (default {DEFAULT_RATIO_CAP:g})",
    )
    p_bnd.set_defaults(handler=_cmd_bounds)

    p_fig = sub.add_parser("figure", parents=[common], help="figure data columns")
    p_fig.add_argument(
        "--params",
        type=_param_triples,
        default=list(FIGURE_DEFAULT_PARAMS),
        help="comma-separated p:q:n triples",
    )
    p_fig.set_defaults(handler=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TruncationError, NumericalRangeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError, DomainError and NotLipschitzError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
