"""Command-line front end.

Six subcommands: spectrum, wavefunction, coherent, resolution, expect, and
verify.  Data goes to stdout (or --out) as CSV or JSON with a fixed layout,
so identical invocations produce byte-identical output; progress and
diagnostics go to stderr.

Exit codes: 0 on success, 1 when verify finds a failing check, 2 for usage
and domain errors and for an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .algebra import _eigenvalues
from .checks import CheckConfig, run_checks
from .coherent import (
    build_coherent_state, general_expectation, lowering_eigenstate_residual, resolution_of_identity_check
)
from .errors import ConvergenceError, DomainError, IntegrationError, _check_int
from .model import _MAX_LEVEL, PotentialParams, build_basis_state, eval_state, momentum_level
from .quadrature import default_r_max

__all__ = ["main", "parse_z"]

TABLE_VERSION = "fhpt-table/1"


def parse_z(text: str) -> complex:
    """Complex label from 'a+bi' notation or polar 'r@theta' (theta in radians)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise DomainError("empty complex value")
    if "@" in s:
        mag, _, ang = s.partition("@")
        try:
            return cmath.rect(float(mag), float(ang))
        except ValueError:
            raise DomainError(f"cannot parse polar complex value {text!r}") from None
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex value {text!r}") from None


_WELL = [f.name for f in fields(PotentialParams)]


def _config(args: argparse.Namespace, **extra) -> dict:
    """The well parameters of a command, followed by its own settings in order."""
    return {name: getattr(args, name) for name in _WELL} | extra


def _params(args: argparse.Namespace) -> PotentialParams:
    return PotentialParams(**_config(args))


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise DomainError(f"{flag} must be at least {low}, got {value}")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# JSON output is json.dumps(payload, indent=2) as the C encoder writes it, which it does only without
# indent: each encoder below ends every item in the line break and indent of its depth, so that only the
# brackets are laid out afterwards.  Every payload value is a scalar or a flat list or dict, except the
# table, whose rows are tuples of scalars (a report's are flat dicts); the encoder writes a tuple as an
# array.  A command hands over tuples, not one list per row: a 2,000-row table of lists sets off cyclic
# GC passes, while 2- and 3-tuples come from CPython's tuple free list.  The encoder escapes every control
# character inside a string, so each raw line break in its text is a separator.  check_circular=False: every
# payload is built fresh from scalars, so it holds no cycle to look for
_JSON_FLAT = json.JSONEncoder(separators=(",\n    ", ": "), check_circular=False).encode
_JSON_ROWS = json.JSONEncoder(separators=(",\n      ", ": "), check_circular=False).encode
# allow_nan=False: a non-finite float raises instead of printing as NaN or Infinity
_CSV_ROWS = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode


def _json_value(v) -> str:
    # the text of a scalar or flat value of a top-level key
    text = _JSON_FLAT(v)
    return f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}" if isinstance(v, (list, dict)) and v else text


def _json_rows(rows: list) -> str:
    """The text of a table of rows at a top-level key, in one encoder pass: tuples of scalars, or the flat
    dicts of a report."""
    if not (rows and all(rows)):  # [] and an empty row print on one line
        return json.dumps(rows, indent=2).replace("\n", "\n  ")
    text = _JSON_ROWS(rows)
    o, c = text[1], text[-2]
    body = text[2:-2].replace(f"{c},\n      {o}", f"\n    {c},\n    {o}\n      ")
    return f"[\n    {o}\n      {body}\n    {c}\n  ]"


def _csv_rows(rows: list) -> list[str]:
    """One CSV line per row, a tuple of scalars, each cell as _fmt_cell spells it.

    The compact JSON of int, finite float and bool cells is _fmt_cell's text, so one encoder pass
    writes every line; a table with a str (quoted), None (null) or non-finite cell goes cell by cell."""
    try:
        text = _CSV_ROWS(rows)
    except ValueError:  # a non-finite float
        text = None
    if not rows or text is None or '"' in text or "null" in text:
        return [",".join(_fmt_cell(v) for v in row) for row in rows]
    return text[2:-2].split("],[")


def _write(
    args: argparse.Namespace, payload: dict, table: str, header: str, columns: list[str], rows: list, summary: dict
) -> None:
    """Write payload as JSON, exactly json.dumps(payload, indent=2) with its table key's rows in one
    encoder pass, or as CSV: a header line, '# key=value' lines of payload["config"], the table, then
    '# key=value' summary lines.  rows are tuples of scalars, not lists: one list per row of a
    2,000-row table sets off cyclic GC passes, a tuple of a few scalars comes from the free list."""
    if args.format == "json":
        items = (f"{_JSON_FLAT(k)}: {_json_rows(v) if k == table else _json_value(v)}" for k, v in payload.items())
        text = "{\n  " + ",\n  ".join(items) + "\n}\n"
    else:
        lines = [header]
        for k, v in payload["config"].items():
            lines.append(f"# {k}={_fmt_cell(v)}")
        lines.append(",".join(columns))
        lines.extend(_csv_rows(rows))
        for k, v in summary.items():
            lines.append(f"# {k}={_fmt_cell(v)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:  # a missing directory, a directory path, no permission
            raise DomainError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, command: str, config: dict, columns: list[str], rows: list, summary: dict) -> None:
    payload = {
        "version": TABLE_VERSION,
        "command": command,
        "config": config,
        "columns": columns,
        "rows": rows,
        "summary": summary,
    }
    _write(args, payload, "rows", f"# {TABLE_VERSION} command={command}", columns, rows, summary)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    _at_least("--nmax", args.nmax, 0)
    params = _params(args)
    rows = list(enumerate(momentum_level(range(args.nmax + 1), params).tolist()))
    config = _config(args, nmax=args.nmax)
    summary = {"a_prime": params.a_prime, "L": params.L, "mass_scale": params.mass_scale}
    _emit(args, "spectrum", config, ["n", "momentum"], rows, summary)
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    _at_least("--samples", args.samples, 1)
    params = _params(args)
    state = build_basis_state(args.n, params, args.interval)
    k = np.arange(args.samples)
    tau = -0.5 * np.pi + (k + 1.0) * np.pi / (args.samples + 1.0)
    psi = eval_state(state, tau)
    rows = list(zip(tau.tolist(), psi.tolist()))
    config = _config(args, n=args.n, interval=args.interval, samples=args.samples)
    summary = {"a_prime": params.a_prime, "norm_constant": state.norm}
    _emit(args, "wavefunction", config, ["tau", "psi"], rows, summary)
    return 0


def _coherent(args: argparse.Namespace) -> tuple:
    # what coherent and expect share: the well, the state of the label, its weights |c_n|^2 and the config echo
    params = _params(args)
    z = parse_z(args.z)
    cs = build_coherent_state(z, params, tail_tol=args.tail_tol)
    return params, cs, np.abs(cs.coeffs) ** 2, _config(args, z_re=z.real, z_im=z.imag, tail_tol=args.tail_tol)


def _cmd_coherent(args: argparse.Namespace) -> int:
    params, cs, weights, config = _coherent(args)
    rows = list(zip(range(len(weights)), weights.tolist(), np.angle(cs.coeffs).tolist()))
    mean_level = float(np.dot(weights, np.arange(len(weights))))
    summary = {
        "truncation_level": cs.truncation_level,
        "tail_bound": cs.tail_bound,
        "weight_sum": float(np.sum(weights)),
        "mean_level": mean_level,
        "mean_gamma0": mean_level + params.L + 0.5,
        "lowering_residual": lowering_eigenstate_residual(cs),
    }
    _emit(args, "coherent", config, ["n", "weight", "phase"], rows, summary)
    return 0


def _cmd_resolution(args: argparse.Namespace) -> int:
    _check_int("--nmax", args.nmax, 0, _MAX_LEVEL)  # the level bound, before any per-level list is built
    params, levels = _params(args), range(args.nmax + 1)
    r_max = default_r_max(2.0 * args.nmax + 2.0 * params.L + 1.0)  # the top level's degree: one K-grid for every level
    moments = resolution_of_identity_check(levels, levels, params, r_max).tolist()
    rows = [(n, v, abs(v - 1.0)) for n, v in enumerate(moments)]
    config = _config(args, nmax=args.nmax)
    summary = {"r_max": r_max, "max_abs_deviation": max(abs(v - 1.0) for v in moments)}
    _emit(args, "resolution", config, ["n", "value", "deviation"], rows, summary)
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    params, cs, weights, config = _coherent(args)
    ns = np.arange(len(weights), dtype=float)
    mean_level = float(np.dot(weights, ns))
    var_level = float(np.dot(weights, ns * ns)) - mean_level**2
    momenta = momentum_level(range(len(weights)), params)
    L = params.L
    raising_mean = general_expectation(cs, lambda i, j: _eigenvalues(j, L)[0], (1,))  # K+ has one diagonal
    rows = [
        ("level_mean", mean_level),
        ("level_variance", var_level),
        ("gamma0_mean", mean_level + L + 0.5),
        ("momentum_mean", float(np.dot(weights, momenta))),
        ("raising_mean_re", raising_mean.real),
        ("raising_mean_im", raising_mean.imag),
        ("weight_sum", cs.norm_sq),
    ]
    summary = {"truncation_level": cs.truncation_level, "tail_bound": cs.tail_bound}
    _emit(args, "expect", config, ["observable", "value"], rows, summary)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = CheckConfig(**_config(args, nmax=args.nmax, quad_order=args.quad_order, tol_override=args.tol))
    report = run_checks(config)
    for c in report.checks:
        word = "pass" if c.passed else "FAIL"
        print(f"{word} {c.name}: residual={c.residual:.3e} tol={c.tol:.1e}", file=sys.stderr)
    n_failed = sum(1 for c in report.checks if not c.passed)
    if n_failed:
        print(f"{n_failed} of {len(report.checks)} checks failed", file=sys.stderr)
    else:
        print(f"all {len(report.checks)} checks passed", file=sys.stderr)
    payload = report.to_dict()
    columns = list(payload["checks"][0])
    rows = [tuple(c.values()) for c in payload["checks"]]
    _write(args, payload, "checks", f"# {report.version}", columns, rows, {"pass": report.passed})
    return 0 if report.passed else 1


_WELL_HELP = {
    "A": "well strength (default %(default)s)",
    "c1": "time-scaling frequency (default %(default)s)",
    "m0": "mass parameter (default %(default)s, natural units)",
    "c": "speed scale (default %(default)s)",
    "hbar": "action scale (default %(default)s)",
}
# the options that more than one command takes
_SHARED = {
    "--nmax": {"type": int, "default": CheckConfig.nmax, "help": "highest level (default %(default)s)"},
    "--z": {"default": "1", "help": "complex label, 'a+bi' or polar 'r@theta'"},
    "--tail-tol": {"type": float, "default": 1e-13, "help": "dropped-weight bound"},
}


def _command(sub, name: str, func, summary: str, *shared: str, **reworded: str) -> argparse.ArgumentParser:
    """A subcommand taking the well parameters, --format, --out and the shared options named; reworded
    gives a shared option this command's own help, keyed by its dest."""
    p = sub.add_parser(name, help=summary)
    for name in _WELL:
        p.add_argument(f"--{name}", type=float, default=getattr(CheckConfig, name), help=_WELL_HELP[name])
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    for flag in shared:
        settings = _SHARED[flag]
        p.add_argument(flag, **{**settings, "help": reworded.get(flag[2:].replace("-", "_"), settings["help"])})
    p.set_defaults(func=func)
    return p


# built on the first request and reused: parse_args leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhpt",
        description="Quantized-momentum states of a trigonometric secant-squared well: "
        "spectrum, states, ladder algebra, coherent superpositions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "spectrum", _cmd_spectrum, "momentum eigenvalues by level", "--nmax")
    p = _command(sub, "wavefunction", _cmd_wavefunction, "sample one normalized state on a tau grid")
    p.add_argument("--n", type=int, default=0, help="level index (default %(default)s)")
    p.add_argument("--samples", type=int, default=201, help="number of interior grid points")
    p.add_argument("--interval", choices=("full", "half"), default="full", help="normalization convention")
    _command(sub, "coherent", _cmd_coherent, "coefficient table of a coherent superposition", "--z", "--tail-tol")
    _command(sub, "resolution", _cmd_resolution, "diagonal completeness moments over the label plane", "--nmax")
    _command(sub, "expect", _cmd_expect, "expectation values in a coherent state", "--z", "--tail-tol")
    p = _command(sub, "verify", _cmd_verify, "run every named identity check and report", "--nmax",
                 nmax="level budget for the checks")
    p.add_argument(
        "--quad-order", type=int, default=CheckConfig.quad_order,
        help="Gram rule order; gram-order-doubling adds a rule of twice it (the K-grid is 8 panels of 80 nodes)",
    )
    p.add_argument("--tol", type=float, default=None, help="override every check tolerance")
    parser.commands = sub.choices  # the subcommand parsers by name, which main calls directly
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command goes straight to its own parser, the one the top-level parser hands it to; no command,
    # an option first, an unknown command and leftover arguments get the top-level parser's own text
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        args, extra = (parser.parse_args(argv), []) if sub is None else sub.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
