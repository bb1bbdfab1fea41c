"""Command-line interface.

Every subcommand writes CSV (default) or JSON to stdout or ``--out`` and
exits 0; usage and domain violations print a one-line diagnostic to
stderr and exit 2; a refused block computation, or an allocation the
machine cannot make, exits 3.  Numeric output carries 17 significant
digits.  The literal ``inf`` spells an infinite space parameter.
"""

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import accuracy, exact, gamma_approx, moments, sampler
from .errors import DomainError, WorkBudgetError
from .params import INFINITE, OccupancyParams, conditional_params

__all__ = ["execute", "main"]


class _CliError(Exception):
    """Usage or parse failure; rendered as a one-line diagnostic."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _space_arg(text: str):
    if text == "inf":
        return INFINITE
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"m must be a positive integer or 'inf', got {text!r}"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{float(value):.17g}"


def _params_from(ns) -> OccupancyParams:
    """The --m/--k/--theta triple; every subcommand rejects --r with m = inf."""
    if ns.r and ns.m == INFINITE:
        raise DomainError("conditioning (--r > 0) requires finite m")
    return OccupancyParams(ns.m, ns.k, ns.theta)


def _effective_params(ns) -> OccupancyParams:
    """Apply the conditional-start transform when --r is given."""
    params = _params_from(ns)
    if ns.r == 0:
        return params
    return conditional_params(ns.m, ns.k, ns.theta, ns.r)


def _default_tmax(ns, params: OccupancyParams) -> int:
    return accuracy.truncation_point(params) if ns.tmax is None else ns.tmax


class _Output:
    """Line sink for one invocation: stdout or --out FILE, closed on exit."""

    def __init__(self, path):
        self._stream = sys.stdout if path is None else open(path, "w")

    def line(self, text: str):
        self._stream.write(text + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._stream is sys.stdout:
            self._stream.flush()
        else:
            self._stream.close()


def _json_safe(value):
    """Strict JSON has no infinities; log-space zeros become the string '-inf'."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def _emit_json(out: _Output, params: dict, method: str, values):
    payload = {"params": params, "method": method, "values": _json_safe(values)}
    out.line(json.dumps(payload))


#: Rows formatted per write, so CSV output memory does not grow with the table.
_CSV_CHUNK_ROWS = 1 << 16


def _emit_table(out: _Output, ns, params_desc, method, header, *columns):
    """Equal-length columns as CSV rows, or as JSON: a plain list for one
    column, ``[row, ...]`` for several."""
    if ns.format == "json":
        values = [column.tolist() for column in columns]
        _emit_json(out, params_desc, method,
                   values[0] if len(values) == 1 else list(zip(*values)))
        return
    out.line(header)
    _write_rows(out, *columns)


def _write_rows(out: _Output, *columns):
    """Equal-length columns as CSV rows, without a header."""
    # %d and %.17g render a cell exactly as _fmt does
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns)
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = [c[start:start + _CSV_CHUNK_ROWS].tolist() for c in columns]
        cells = tuple(itertools.chain.from_iterable(zip(*chunk)))
        out.line("\n".join([row] * len(chunk[0])) % cells)


def _describe(ns, **extra) -> dict:
    desc = {
        "m": "inf" if ns.m == INFINITE else ns.m,
        "k": ns.k,
        "theta": ns.theta,
    }
    if ns.r:
        desc["r"] = ns.r
    desc.update(extra)
    return desc


# -- subcommand handlers ------------------------------------------------------


#: ``pmf --method auto`` takes the exact recursion up to this finite m and
#: the gamma approximation above it and at m = inf.
_AUTO_EXACT_MAX_M = 1000


def _run_pmf(ns, out: _Output) -> None:
    params = _effective_params(ns)
    tmax = _default_tmax(ns, params)
    if ns.block:
        if ns.method != "exact":
            raise DomainError("--block output requires --method exact")
        if params.is_infinite:
            raise DomainError("--block output requires finite m")
        method = "exact"
        # rows are occupancies; the table runs over t first, then r
        values = exact.log_pmf_block(int(params.m), params.theta, params.k, tmax).T
        t, r = np.indices(values.shape).reshape(2, -1)
        header, columns = "t,r,value", [t, r + 1]
    else:
        method = ns.method
        if method == "auto":
            method = "exact" if params.m <= _AUTO_EXACT_MAX_M else "gamma"
        if method == "exact":
            values = exact.log_pmf_vector(params, tmax)
        else:
            values = gamma_approx.approx_log_pmf(params, tmax)
        header, columns = "t,value", [np.arange(tmax + 1)]
    if not ns.log:
        values = np.exp(values)  # rebound: the log-space array is freed before output
    _emit_table(out, ns, _describe(ns), method, header, *columns, values.ravel())


def _run_cdf(ns, out: _Output) -> None:
    params = _effective_params(ns)
    tmax = _default_tmax(ns, params)
    values = exact.cdf_vector(params, tmax)
    _emit_table(out, ns, _describe(ns), "exact", "t,value", np.arange(tmax + 1), values)


def _run_quantile(ns, out: _Output) -> None:
    params = _effective_params(ns)
    t = exact.quantile(params, ns.p)
    _emit_table(out, ns, _describe(ns, p=ns.p), "exact", "p,value",
                np.array([ns.p]), np.array([t]))


def _run_sample(ns, out: _Output) -> None:
    config = sampler.SampleConfig(
        params=_params_from(ns), n=ns.n, seed=ns.seed, conditional_r=ns.r
    )
    draws = sampler.sample_negocc(config)
    desc = _describe(ns, n=ns.n, seed=ns.seed)
    _emit_table(out, ns, desc, "simulation", "value", draws)


def _run_moments(ns, out: _Output) -> None:
    params = _effective_params(ns)
    summary = moments.moment_summary(params)
    desc = _describe(ns)
    if ns.format == "json":
        values = {"mean": summary.mean, "variance": summary.variance}
        values["skewness"] = summary.skewness
        values["kurtosis"] = summary.kurtosis
        _emit_json(out, desc, "analytic", values)
        return
    out.line("stat,value")
    out.line(f"mean,{_fmt(summary.mean)}")
    out.line(f"variance,{_fmt(summary.variance)}")
    if not summary.is_degenerate:
        out.line(f"skewness,{_fmt(summary.skewness)}")
        out.line(f"kurtosis,{_fmt(summary.kurtosis)}")


def _run_gfun(ns, out: _Output) -> None:
    params = _effective_params(ns)
    value = moments.generating_function(params, ns.kind, ns.arg)
    desc = _describe(ns, kind=ns.kind, arg=ns.arg)
    if ns.format == "json":
        if isinstance(value, complex):
            payload = {"real": value.real, "imag": value.imag}
        else:
            payload = value
        _emit_json(out, desc, "analytic", payload)
        return
    out.line("kind,arg,value")
    out.line(f"{ns.kind},{_fmt(ns.arg)},{_fmt(value)}")


def _report_columns(reports, fields) -> list:
    """One array per field of a list of RseReport/RseSummary rows."""
    return [np.array([getattr(r, f) for r in reports]) for f in fields]


def _run_rse_block(ns, out: _Output) -> None:
    fields = ("m", "k", "truncation", "rse")
    if ns.format == "csv" and not ns.summaries:
        # stream CSV rows per m so partial progress survives interruption;
        # the header waits for the first row so a refused request emits nothing
        started = False

        def sink(reports):
            nonlocal started
            if not started:
                out.line(",".join(fields))
                started = True
            _write_rows(out, *_report_columns(reports, fields))

        accuracy.rse_block(ns.m, ns.theta, budget=ns.budget, sink=sink)
        return
    rows = accuracy.rse_block(ns.m, ns.theta, budget=ns.budget)
    if ns.summaries:
        fields = ("m", "max_rse", "mean_rse", "diag_rse")
        rows = accuracy.rse_summaries(rows)
    _emit_table(out, ns, {"M": ns.m, "theta": ns.theta}, "rse-block",
                ",".join(fields), *_report_columns(rows, fields))


# -- parser -------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--m", type=_space_arg, required=True,
                    help="space parameter (positive integer or 'inf')")
    sp.add_argument("--k", type=int, required=True, help="occupancy parameter")
    sp.add_argument("--theta", type=float, required=True,
                    help="occupation probability in (0, 1]")
    sp.add_argument("--r", type=int, default=0,
                    help="conditional start: occupancy already reached")


def _add_output(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="output file (default: standard output)")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="negocc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pmf = sub.add_parser("pmf", help="probability mass function")
    _add_common(pmf)
    pmf.add_argument("--tmax", type=int, default=None,
                     help="largest argument (default: truncation point)")
    pmf.add_argument("--method", choices=("exact", "gamma", "auto"), default="exact")
    pmf.add_argument("--log", action="store_true", help="emit log-probabilities")
    pmf.add_argument("--block", action="store_true",
                     help="emit the full (t, r) matrix of intermediate columns")
    _add_output(pmf)
    pmf.set_defaults(handler=_run_pmf)

    cdf = sub.add_parser("cdf", help="cumulative distribution function")
    _add_common(cdf)
    cdf.add_argument("--tmax", type=int, default=None)
    _add_output(cdf)
    cdf.set_defaults(handler=_run_cdf)

    quantile = sub.add_parser("quantile", help="smallest t with cdf(t) >= p")
    _add_common(quantile)
    quantile.add_argument("--p", type=float, required=True)
    _add_output(quantile)
    quantile.set_defaults(handler=_run_quantile)

    sample = sub.add_parser("sample", help="random draws")
    _add_common(sample)
    sample.add_argument("--n", type=int, required=True, help="number of draws")
    sample.add_argument("--seed", type=int, default=0)
    _add_output(sample)
    sample.set_defaults(handler=_run_sample)

    mom = sub.add_parser("moments", help="mean/variance/skewness/kurtosis")
    _add_common(mom)
    _add_output(mom)
    mom.set_defaults(handler=_run_moments)

    gfun = sub.add_parser("gfun", help="generating functions")
    _add_common(gfun)
    gfun.add_argument("--kind", choices=moments.GENERATING_FUNCTION_KINDS,
                      required=True)
    gfun.add_argument("--arg", type=float, required=True,
                      help="z for pgf, s for cf/mgf/cgf")
    _add_output(gfun)
    gfun.set_defaults(handler=_run_gfun)

    rse = sub.add_parser("rse-block",
                         help="approximation accuracy over 0 < k <= m <= M")
    rse.add_argument("--m", type=int, required=True, metavar="M",
                     help="block bound M")
    rse.add_argument("--theta", type=float, default=1.0)
    rse.add_argument("--summaries", action="store_true",
                     help="emit per-m max/mean/diagonal reductions")
    rse.add_argument("--budget", type=float,
                     default=accuracy.DEFAULT_WORK_BUDGET,
                     help="work-unit ceiling before the request is refused")
    _add_output(rse)
    rse.set_defaults(handler=_run_rse_block)

    return parser


def execute(args) -> int:
    """Run one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(args))
    except SystemExit as stop:  # --help and friends
        return int(stop.code or 0)
    except _CliError as err:
        print(f"negocc: error: {err}", file=sys.stderr)
        return 2
    try:
        with _Output(ns.out) as out:
            ns.handler(ns, out)
        return 0
    except (WorkBudgetError, MemoryError) as err:
        print(f"negocc: refused: {str(err) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"negocc: error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))
