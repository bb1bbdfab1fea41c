"""Output checks against the independent references in ``reference.py``.

Row counts and integers (truncation points, quantiles, sampler draws) are
compared exactly; a truncation point or quantile that sits within
rounding error of its threshold accepts either neighbour.  RSE values are
compared within 1e-12.  Probabilities from two different algorithms agree
to about 1e-12 relative near the mode but lose relative digits in the far
tails, where they are compared within an absolute 1e-13 instead.  The
gamma route's masses are differences of gamma CDF values; they are
compared within the rounding bound of that difference.  Moments
and generating functions are long sums in the program; they are compared
within the rounding bound of such a sum, plus 1e-9 relative.
"""

import io
import json
import math

import numpy as np

import reference
import workloads

RSE_TOL = 1e-12
PROB_RTOL = 1e-9
PROB_ATOL = reference.PROB_ATOL
MOMENT_RTOL = 1e-9


class Mismatch(Exception):
    """An output differs from its reference."""


def _csv(text: str, header: str) -> np.ndarray:
    first, _, body = text.partition("\n")
    if first != header:
        raise Mismatch(f"header {first!r}, expected {header!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return rows


def _close(name, got, want, rtol=PROB_RTOL, atol=PROB_ATOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: {got.size} values, expected {want.size}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        i = int(np.argmax(bad))
        raise Mismatch(f"{name}[{i}] = {got.flat[i]!r}, reference {want.flat[i]!r}")


def _truncated_vector(text, p, header="t,value"):
    """Rows (t, value) with t = 0..T and T an accepted truncation point."""
    rows = _csv(text, header)
    tmax = rows.shape[0] - 1
    if tmax not in reference.truncation_candidates(p["m"], p["k"], p["theta"]):
        raise Mismatch(f"{rows.shape[0]} rows: truncation point {tmax} is wrong")
    if not np.array_equal(rows[:, 0], np.arange(tmax + 1)):
        raise Mismatch("t column is not 0..T")
    return tmax, rows[:, 1]


def _check_rse_summaries(op, text):
    p = op.params
    rows = _csv(text, "m,max_rse,mean_rse,diag_rse")
    if not np.array_equal(rows[:, 0], np.arange(1, p["M"] + 1)):
        raise Mismatch(f"m column is not 1..{p['M']}")
    bounds = reference.rse_summary_bounds(p["M"], p["theta"])
    got = rows[:, 1:]
    bad = (got < bounds[:, :, 0] - RSE_TOL) | (got > bounds[:, :, 1] + RSE_TOL)
    if bad.any():
        m, j = np.argwhere(bad)[0]
        raise Mismatch(f"m = {m + 1}: {('max', 'mean', 'diag')[j]} rse {got[m, j]!r},"
                       f" reference {bounds[m, j].tolist()}")
    return rows.shape[0]


def _check_pmf(op, text):
    p = op.params
    tmax, values = _truncated_vector(text, p)
    _close("pmf", values, reference.pmf(p["m"], p["k"], p["theta"], tmax))
    return tmax + 1


def _check_cdf(op, text):
    p = op.params
    tmax, values = _truncated_vector(text, p)
    want = np.clip(np.cumsum(reference.pmf(p["m"], p["k"], p["theta"], tmax)), 0.0, 1.0)
    _close("cdf", values, want)
    return tmax + 1


def _check_pmf_gamma(op, text):
    p = op.params
    tmax, values = _truncated_vector(text, p)
    mean, var = reference.cumulants(p["m"], p["k"], p["theta"])[:2]
    _close("gamma pmf", values, reference.gamma_pmf(mean, max(var, 0.0), tmax),
           atol=reference.gamma_pmf_bound(mean, var, tmax))
    return tmax + 1


def _check_quantile(op, text):
    p = op.params
    rows = _csv(text, "p,value")
    if rows.shape != (1, 2) or rows[0, 0] != p["p"]:
        raise Mismatch(f"expected one row for p = {p['p']!r}")
    got = rows[0, 1]
    if got != int(got) or got < 0:
        raise Mismatch(f"quantile {got!r} is not a non-negative integer")
    got = int(got)
    cdf = np.cumsum(reference.pmf(p["m"], p["k"], p["theta"], got))
    # cdf(got) >= p > cdf(got - 1), or a crossing within rounding error
    near = 1e-12
    below = cdf[got - 1] if got else 0.0
    if not (cdf[got] >= p["p"] - near and below < p["p"] + near):
        raise Mismatch(f"quantile {got}: reference cdf there is {cdf[got]!r},"
                       f" one step below {below!r}")
    return 1


def _check_moments(op, text):
    p = op.params
    lines = text.splitlines()
    if lines[0] != "stat,value":
        raise Mismatch(f"header {lines[0]!r}")
    k1, k2, k3, k4 = reference.cumulants(p["m"], p["k"], p["theta"])
    want = {"mean": k1, "variance": k2}
    if k2 > 0.0:
        want.update(skewness=k3 / k2**1.5, kurtosis=3.0 + k4 / k2**2)
    got = dict(line.split(",") for line in lines[1:])
    if list(got) != list(want):
        raise Mismatch(f"statistics {list(got)}, expected {list(want)}")
    tolerances = reference.moment_tolerances(p["m"], p["k"], p["theta"])
    for (name, value), tol in zip(want.items(), tolerances):
        if not abs(float(got[name]) - value) <= tol + MOMENT_RTOL * abs(value):
            raise Mismatch(f"{name} = {got[name]}, reference {value!r}")
    return len(want)


def _check_gfun(op, text):
    p = op.params
    header, _, body = text.partition("\n")
    if header != "kind,arg,value":
        raise Mismatch(f"header {header!r}")
    kind, arg, value = body.strip().split(",")
    if kind != p["kind"] or float(arg) != p["arg"]:
        raise Mismatch("echoed kind or argument differs")
    # the product is a k-term sum of logs: its rounding bound is an
    # absolute error of the cgf and a relative error of the others
    log_want, tol = reference.log_generating_function(p["m"], p["k"], p["theta"], kind,
                                                      p["arg"])
    if kind == "cgf":
        want, scale = log_want, max(1.0, abs(log_want))
    else:
        want = np.exp(log_want)
        scale = abs(want)
    got = complex(value) if kind == "cf" else float(value)
    if not abs(got - want) <= (tol + MOMENT_RTOL) * scale:
        raise Mismatch(f"{kind} = {value}, reference {want!r}")
    return 1


def _check_sample(op, text):
    p = op.params
    if p["format"] == "json":
        payload = json.loads(text)
        got = np.array(payload["values"], dtype=np.int64)
        if payload["method"] != "simulation":
            raise Mismatch("method is not 'simulation'")
    else:
        header, _, body = text.partition("\n")
        if header != "value":
            raise Mismatch(f"header {header!r}")
        got = np.array(body.split(), dtype=np.int64)
    want = reference.draws(p["m"], p["k"], p["theta"], p["n"], p["seed"])
    if got.shape != want.shape:
        raise Mismatch(f"{got.size} draws, expected {want.size}")
    if not np.array_equal(got, want):
        i = int(np.argmax(got != want))
        raise Mismatch(f"draw {i} = {got[i]}, reference {want[i]}")
    return int(got.size)


def _block_reference(op, rows):
    """Check the (t, r) columns and row count; return the reference values."""
    p = op.params
    k = p["k"]
    tmax = rows.shape[0] // k - 1
    if tmax not in reference.truncation_candidates(p["m"], k, p["theta"]):
        raise Mismatch(f"{rows.shape[0]} rows: truncation point {tmax} is wrong")
    t, r = np.divmod(np.arange(rows.shape[0]), k)
    if not (np.array_equal(rows[:, 0], t) and np.array_equal(rows[:, 1], r + 1)):
        raise Mismatch("(t, r) columns are not in row-major order")
    return reference.pmf_block(p["m"], p["theta"], k, tmax).reshape(-1)


def _check_block_csv(op, text):
    rows = _csv(text, "t,r,value")
    want = _block_reference(op, rows)
    _close("block", rows[:, 2], want)
    return rows.shape[0]


def _check_block_json_log(op, text):
    payload = json.loads(text)
    values = payload["values"]
    rows = np.array([[t, r, -math.inf if v == "-inf" else v] for t, r, v in values],
                    dtype=float)
    want = _block_reference(op, rows)
    _close("block", np.exp(rows[:, 2]), want)
    return rows.shape[0]


_CHECKS = {
    "rse_summaries": _check_rse_summaries,
    "pmf": _check_pmf,
    "cdf": _check_cdf,
    "pmf_gamma": _check_pmf_gamma,
    "pmf_inf": _check_pmf,
    "quantile": _check_quantile,
    "moments": _check_moments,
    "gfun": _check_gfun,
    "sample": _check_sample,
    "block_csv": _check_block_csv,
    "block_json_log": _check_block_json_log,
}


def check(op: workloads.Op, text: str) -> int:
    """Raise Mismatch unless the output is right; return its record count."""
    return _CHECKS[op.kind](op, text)
