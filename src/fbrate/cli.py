"""Command-line interface: rate sweeps, MGF/PDF grids, and validation runs.

Exit codes: 0 success, 1 failed validation checks, 2 argument/parameter
errors, 3 numerical errors (nonconvergence, closed form unavailable).
Numbers are printed with 9 significant digits in CSV mode; JSON-lines mode
leaves them unrounded.  The default Monte-Carlo seed can be set through the
FBRATE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .crosscheck import (CROSS_REL_TOL, MC_Z_LIMIT, closed_form_grid, db_to_linear,
                         mc_grid, run_cross_check, run_mc_check)
from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .mc import McConfig
from .model import ChannelParams, PRESET_NAMES, mgf, preset
from .poles import pdf
from .rate import ErRequest, er_sweep

SEED_ENV_VAR = "FBRATE_SEED"

_METHOD_ALIASES = {
    "auto": "auto",
    "quadrature": "quadrature",
    "quad": "quadrature",
    "closed": "closed_form",
    "closed_form": "closed_form",
    "mc": "monte_carlo",
    "monte_carlo": "monte_carlo",
}


class CliError(Exception):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _parse_grid(spec: str, what: str) -> np.ndarray:
    """start:stop:step (inclusive stop) -> grid; a bare number is one point."""
    parts = spec.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"cannot parse {what} grid {spec!r}; "
                       f"expected start:stop:step", 2) from None
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"{what} grid {spec!r} must be finite", 2)
    if len(values) == 1:
        return np.array(values)
    start, stop, step = values
    if start == stop:
        return np.array([start])
    if step <= 0:
        raise CliError(f"{what} grid step must be > 0", 2)
    if start > stop:
        raise CliError(f"{what} grid start must be <= stop", 2)
    span = (stop - start) / step
    if not math.isfinite(span):
        raise CliError(f"{what} grid {spec!r} has a non-finite point count", 2)
    n = int(math.floor(span + 1e-9)) + 1
    if n > 100_000:
        raise CliError(f"{what} grid has {n} points; limit is 100000", 2)
    return start + step * np.arange(n)


def _add_channel_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=PRESET_NAMES, help="named special-case channel")
    p.add_argument("--mu", type=float, help="number of multipath clusters")
    p.add_argument("--m", type=float, help="LoS fluctuation severity (inf allowed)")
    p.add_argument("--kappa", type=float, help="LoS-to-scatter power ratio")
    p.add_argument("--eta", type=float, help="in-phase/quadrature scatter variance ratio")
    p.add_argument("--rho2", type=float, help="in-phase/quadrature LoS power ratio")


def _build_params(args, gamma_bar: float, **fields: float) -> ChannelParams:
    """The channel of the flags, with ``fields`` in place of their values."""
    overrides = {k: getattr(args, k) for k in ("mu", "m", "kappa", "eta", "rho2")
                 if getattr(args, k) is not None}
    overrides.update(fields)
    if args.preset:
        return preset(args.preset, gamma_bar=gamma_bar, **overrides)
    defaults = {"mu": 1.0, "m": 1.0, "kappa": 0.0, "eta": 1.0, "rho2": 1.0}
    defaults.update(overrides)
    return ChannelParams(gamma_bar=gamma_bar, **defaults)


def _a_exponent(args) -> tuple[float, list[str]]:
    header = []
    if args.A is not None:
        return args.A, header
    if args.theta is not None and args.T is not None and args.B is not None:
        a = args.theta * args.T * args.B / math.log(2.0)
        header.append(f"# A = theta*T*B/ln2 = {_fmt(a)} "
                      f"(theta={args.theta:g}, T={args.T:g}, B={args.B:g})")
        return a, header
    raise CliError("provide --A or the full --theta/--T/--B triple", 2)


def _emit(rows, columns, fmt, header_lines=()):
    out = sys.stdout
    if fmt == "csv":
        for line in header_lines:
            print(line, file=out)
        print(",".join(columns), file=out)
        for row in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v)
                           for v in row), file=out)
    else:
        for row in rows:
            print(json.dumps(dict(zip(columns, row))), file=out)


def cmd_er(args) -> int:
    a, header = _a_exponent(args)
    method = _METHOD_ALIASES[args.method]
    snr_grid = _parse_grid(args.snr_db, "--snr-db")
    vary_values = [None]
    if args.vary:
        if not args.vary_values:
            raise CliError("--vary requires --vary-values", 2)
        try:
            vary_values = [float(v) for v in args.vary_values.split(",") if v.strip()]
        except ValueError:
            raise CliError(f"cannot parse --vary-values {args.vary_values!r}; "
                           f"expected comma-separated numbers", 2) from None
        if not vary_values:
            raise CliError("--vary-values is empty", 2)

    vary_values.sort(key=lambda v: -math.inf if v is None else v)

    base = _build_params(args, gamma_bar=1.0)
    shapes = {v: base if v is None else _build_params(args, 1.0, **{args.vary: v})
              for v in vary_values}
    requests = {v: ErRequest(params=shape, a_exponent=a, method=method, rel_tol=args.rel_tol)
                for v, shape in shapes.items()}
    snr_dbs = [float(snr_db) for snr_db in snr_grid]
    gamma_bars = [db_to_linear(snr_db) for snr_db in snr_dbs]
    mc_config = None
    if method == "monte_carlo":
        mc_config = McConfig(n_samples=args.samples, seed=_default_seed(args))
    sweeps = {v: er_sweep(request, gamma_bars, mc_config) for v, request in requests.items()}
    rows = []
    for i, snr_db in enumerate(snr_dbs):
        for v in vary_values:
            result = sweeps[v][i]
            rows.append((snr_db, "" if v is None else v, result.rate, result.expectation_j,
                         result.method_used, result.error_estimate))
    _emit(rows, ("snr_db", "vary", "rate", "j", "method", "err"),
          args.format, header)
    return 0


def cmd_mgf(args) -> int:
    params = _build_params(args, args.gamma_bar)
    grid = _parse_grid(args.s, "--s")
    rows = [(float(s), mgf(params, float(s)).value) for s in grid]
    _emit(rows, ("x", "value"), args.format)
    return 0


def cmd_pdf(args) -> int:
    params = _build_params(args, args.gamma_bar)
    grid = _parse_grid(args.gamma, "--gamma")
    values = pdf(params, grid)
    rows = list(zip((float(x) for x in grid), (float(v) for v in values)))
    _emit(rows, ("x", "value"), args.format)
    return 0


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    value = os.environ.get(SEED_ENV_VAR, "42")
    try:
        return int(value)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {value!r}", 2) from None


def cmd_validate(args) -> int:
    grid = closed_form_grid()
    if args.max_configs is not None:
        if args.max_configs <= 0:
            raise CliError("--max-configs must leave a nonempty grid", 2)
        grid = grid[:: max(1, len(grid) // args.max_configs)]
    report = run_cross_check(grid)
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] quad/closed max rel diff = {report.max_rel_diff:.3e} "
          f"over {report.n_configs} configs (limit {CROSS_REL_TOL:.0e})")
    if not report.passed and report.worst:
        print(f"        worst: {report.worst[0]}, A={report.worst[1]}")
    ok = report.passed

    if not args.skip_mc:
        mc_report = run_mc_check(n_samples=args.samples, seed=_default_seed(args))
        mc_status = "PASS" if mc_report.passed else "FAIL"
        print(f"[{mc_status}] MC concordance: {mc_report.n_within}/"
              f"{len(mc_report.results)} within |z| <= {MC_Z_LIMIT:g} "
              f"(max |z| = {mc_report.max_abs_z:.2f}, seed {_default_seed(args)})")
        ok = ok and mc_report.passed
    return 0 if ok else 1


def cmd_mc_validate(args) -> int:
    report = run_mc_check(n_samples=args.samples, seed=_default_seed(args))
    for r in report.results:
        print(f"z={r.z_score:+.2f}  j_quad={_fmt(r.j_quad)}  j_hat={_fmt(r.j_hat)}"
              f"  stderr={r.j_stderr:.2e}  A={r.a_exponent:g}  {r.params}")
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.n_within}/{len(report.results)} within "
          f"|z| <= {MC_Z_LIMIT:g}; max |z| = {report.max_abs_z:.2f}")
    return 0 if report.passed else 1


@functools.cache  # one per process: building it costs a large share of a short sweep
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbrate",
        description="Effective rate of the fluctuating Beckmann fading channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_er = sub.add_parser("er", help="effective rate over an SNR grid")
    _add_channel_flags(p_er)
    p_er.add_argument("--A", type=float, help="delay-QoS exponent")
    p_er.add_argument("--theta", type=float, help="delay exponent (with --T/--B)")
    p_er.add_argument("--T", type=float, help="block duration in seconds")
    p_er.add_argument("--B", type=float, help="bandwidth in Hz")
    p_er.add_argument("--snr-db", default="0:0:1", help="mean SNR grid start:stop:step in dB")
    p_er.add_argument("--vary", choices=("mu", "m"), help="second sweep axis")
    p_er.add_argument("--vary-values", help="comma-separated values for --vary")
    p_er.add_argument("--method", choices=sorted(_METHOD_ALIASES), default="auto")
    p_er.add_argument("--rel-tol", type=float, default=1e-8)
    p_er.add_argument("--samples", type=int, default=1_000_000,
                      help="Monte-Carlo sample count (method mc)")
    p_er.add_argument("--seed", type=int, help=f"Monte-Carlo seed (default ${SEED_ENV_VAR} or 42)")
    p_er.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_er.set_defaults(func=cmd_er)

    p_mgf = sub.add_parser("mgf", help="MGF values over a transform-argument grid")
    _add_channel_flags(p_mgf)
    p_mgf.add_argument("--gamma-bar", type=float, default=1.0, help="mean SNR, linear")
    p_mgf.add_argument("--s", default="0:10:0.5", help="grid start:stop:step")
    p_mgf.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_mgf.set_defaults(func=cmd_mgf)

    p_pdf = sub.add_parser("pdf", help="SNR density over a grid (closed-form regime)")
    _add_channel_flags(p_pdf)
    p_pdf.add_argument("--gamma-bar", type=float, default=1.0, help="mean SNR, linear")
    p_pdf.add_argument("--gamma", default="0:10:0.1", help="grid start:stop:step")
    p_pdf.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_pdf.set_defaults(func=cmd_pdf)

    p_val = sub.add_parser("validate", help="cross-engine grid + MC concordance")
    p_val.add_argument("--max-configs", type=int, help="subsample the cross grid")
    p_val.add_argument("--skip-mc", action="store_true")
    p_val.add_argument("--samples", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int)
    p_val.set_defaults(func=cmd_validate)

    p_mcv = sub.add_parser("mc-validate", help="MC concordance grid only")
    p_mcv.add_argument("--samples", type=int, default=1_000_000)
    p_mcv.add_argument("--seed", type=int)
    p_mcv.set_defaults(func=cmd_mc_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClosedFormUnavailableError, ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
