"""Record the bytes the negocc CLI produces for a fixed list of invocations.

Usage::

    python tools/golden_cli.py OUTDIR [--src SRC]

Every case runs in this process through ``negocc.cli.execute`` and leaves
three files in OUTDIR: ``<case>.out`` (stdout), ``<case>.err`` (stderr)
and ``<case>.code`` (exit code); the ``--out`` case also leaves the file it
wrote.  ``negocc`` is imported from SRC (default: the ``src`` directory of
the checkout holding this script).  Record two checkouts and compare them
with ``diff -r OUTDIR_A OUTDIR_B``: an empty diff means the CLI output is
unchanged, byte for byte.

The cases cover every subcommand in CSV and JSON, ``--log``, ``--block``,
``--r``, ``m = inf``, ``--method gamma``/``auto`` (also at a gamma shape
above 600), rse-block ``--summaries`` (also at theta = 0.05), a quantile
over 1000 long exact columns, a pmf whose columns are cut into scan
segments, a CSV table longer than one write chunk, a pmf tail from normal
through subnormal values to 0, and the domain, parse and refusal errors.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

_TRIPLE = ["--m", "30", "--k", "14", "--theta", "0.6"]
_SMALL = ["--m", "9", "--k", "4", "--theta", "0.7"]
_INF = ["--m", "inf", "--k", "3", "--theta", "0.6"]
_JSON = ["--format", "json"]

_BASE = {
    "pmf": ["pmf", *_TRIPLE],
    "cdf": ["cdf", *_SMALL],
    "quantile": ["quantile", *_TRIPLE, "--p", "0.9"],
    "sample": ["sample", *_TRIPLE, "--n", "200", "--seed", "7"],
    "moments": ["moments", *_TRIPLE],
    "gfun": ["gfun", *_SMALL, "--kind", "pgf", "--arg", "0.8"],
    "rse-block": ["rse-block", "--m", "6", "--theta", "0.8"],
}

CASES = {}
for _name, _argv in _BASE.items():
    CASES[f"{_name}-csv"] = _argv
    CASES[f"{_name}-json"] = _argv + _JSON

CASES.update({
    # output options
    "pmf-log-csv": ["pmf", *_SMALL, "--tmax", "12", "--log"],
    "pmf-log-json-neginf": ["pmf", "--m", "inf", "--k", "2", "--theta", "1",
                            "--tmax", "3", "--log", *_JSON],
    "pmf-block-csv": ["pmf", *_SMALL, "--tmax", "8", "--block"],
    "pmf-block-log-json": ["pmf", *_SMALL, "--tmax", "8", "--block", "--log", *_JSON],
    "pmf-long-log-csv": ["pmf", *_INF, "--tmax", "70000", "--log"],
    # probabilities from normal through subnormal to 0, and their logs
    "pmf-subnormal-tail": ["pmf", "--m", "inf", "--k", "1", "--theta", "0.5",
                           "--tmax", "1100"],
    "pmf-subnormal-tail-log": ["pmf", "--m", "inf", "--k", "1", "--theta", "0.5",
                               "--tmax", "1100", "--log"],
    "pmf-out-file": ["pmf", *_SMALL, "--tmax", "5",
                     "--out", "{outdir}/pmf-out-file.file"],
    # conditional start
    "pmf-r": ["pmf", *_TRIPLE, "--r", "10"],
    "cdf-r-json": ["cdf", *_SMALL, "--r", "3", *_JSON],
    "quantile-r": ["quantile", *_SMALL, "--r", "2", "--p", "0.5"],
    "sample-r": ["sample", *_SMALL, "--r", "3", "--n", "50", "--seed", "3"],
    "moments-r-json": ["moments", *_TRIPLE, "--r", "10", *_JSON],
    "gfun-r": ["gfun", *_SMALL, "--r", "2", "--kind", "cgf", "--arg", "0.1"],
    "pmf-gamma-r": ["pmf", *_TRIPLE, "--method", "gamma", "--r", "10",
                    "--tmax", "20"],
    # infinite m: the negative binomial law
    "pmf-inf": ["pmf", *_INF],
    "cdf-inf-json": ["cdf", *_INF, "--tmax", "10", *_JSON],
    "quantile-inf": ["quantile", *_INF, "--p", "0.7"],
    "quantile-long-columns": ["quantile", "--m", "1000", "--k", "1000", "--theta", "1",
                              "--p", "0.999999"],
    # long exact columns cut into several scan segments, some next to a
    # 256-point block edge of the segment search
    "pmf-cut-columns": ["pmf", "--m", "1000", "--k", "1000", "--theta", "1",
                        "--tmax", "3000", "--log"],
    "sample-inf": ["sample", *_INF, "--n", "50", "--seed", "1"],
    "moments-inf-json": ["moments", *_INF, *_JSON],
    "gfun-inf-mgf": ["gfun", *_INF, "--kind", "mgf", "--arg", "0.2"],
    "pmf-gamma-inf": ["pmf", *_INF, "--method", "gamma", "--tmax", "15"],
    # methods
    "pmf-gamma": ["pmf", *_TRIPLE, "--method", "gamma"],
    "pmf-gamma-json": ["pmf", *_TRIPLE, "--method", "gamma", *_JSON],
    "pmf-gamma-log-json": ["pmf", *_TRIPLE, "--method", "gamma", "--log", *_JSON],
    "pmf-auto-exact-json": ["pmf", *_TRIPLE, "--method", "auto", *_JSON],
    "pmf-auto-gamma-json": ["pmf", "--m", "2000", "--k", "5", "--theta", "0.5",
                            "--tmax", "8", "--method", "auto", *_JSON],
    "pmf-auto-boundary-json": ["pmf", "--m", "1000", "--k", "2", "--theta", "0.6",
                               "--tmax", "5", "--method", "auto", *_JSON],
    "pmf-gamma-log-tmax": ["pmf", *_SMALL, "--method", "gamma", "--tmax", "9", "--log"],
    "pmf-gamma-large-shape": ["pmf", "--m", "inf", "--k", "2000", "--theta", "0.5",
                              "--method", "auto"],
    # generating functions
    "gfun-mgf": ["gfun", *_SMALL, "--kind", "mgf", "--arg", "0.1"],
    "gfun-cgf-json": ["gfun", *_SMALL, "--kind", "cgf", "--arg", "-0.3", *_JSON],
    "gfun-cf": ["gfun", *_SMALL, "--kind", "cf", "--arg", "0.2"],
    "gfun-cf-json": ["gfun", *_SMALL, "--kind", "cf", "--arg", "0.2", *_JSON],
    "gfun-cf-wide": ["gfun", "--m", "5", "--k", "2", "--theta", "0.5",
                     "--kind", "cf", "--arg", "3"],
    # rse-block
    "rse-summaries-csv": ["rse-block", "--m", "7", "--theta", "1", "--summaries"],
    "rse-summaries-json": ["rse-block", "--m", "7", "--theta", "1", "--summaries",
                           *_JSON],
    "rse-theta-small-summaries": ["rse-block", "--m", "30", "--theta", "0.05",
                                  "--summaries"],
    "rse-theta-small-summaries-json": ["rse-block", "--m", "30", "--theta", "0.05",
                                       "--summaries", *_JSON],
    "rse-theta-small-m40-summaries": ["rse-block", "--m", "40", "--theta", "0.05",
                                      "--summaries"],
    "rse-refused": ["rse-block", "--m", "200", "--budget", "1000"],
    "rse-refused-huge": ["rse-block", "--m", "1000000"],
    "rse-budget-nan": ["rse-block", "--m", "3", "--budget", "nan"],
    "rse-budget-negative": ["rse-block", "--m", "3", "--budget", "-1"],
    "rse-m-zero": ["rse-block", "--m", "0"],
    "rse-theta-zero": ["rse-block", "--m", "3", "--theta", "0"],
    # domain errors
    "err-k-above-m": ["pmf", "--m", "3", "--k", "5", "--theta", "1"],
    "err-m-zero": ["cdf", "--m", "0", "--k", "1", "--theta", "1"],
    "err-k-zero": ["moments", "--m", "3", "--k", "0", "--theta", "1"],
    "err-theta-zero": ["pmf", "--m", "3", "--k", "2", "--theta", "0"],
    "err-theta-above-one": ["quantile", "--m", "3", "--k", "2", "--theta", "1.5",
                            "--p", "0.5"],
    "err-theta-nan": ["gfun", "--m", "3", "--k", "2", "--theta", "nan",
                      "--kind", "pgf", "--arg", "0.5"],
    "err-theta-tiny": ["pmf", "--m", "5", "--k", "2", "--theta", "1e-300"],
    "err-theta-tiny-moments": ["moments", "--m", "5", "--k", "2", "--theta", "1e-300"],
    "err-tmax-negative": ["pmf", *_SMALL, "--tmax", "-1"],
    "err-tmax-negative-cdf": ["cdf", *_SMALL, "--tmax", "-1"],
    "err-tmax-negative-gamma": ["pmf", *_SMALL, "--method", "gamma", "--tmax", "-1"],
    "err-tmax-negative-block": ["pmf", *_SMALL, "--tmax", "-1", "--block"],
    "err-tmax-huge": ["pmf", *_SMALL, "--tmax", str(2**62)],
    "err-block-gamma": ["pmf", *_SMALL, "--block", "--method", "gamma"],
    "err-block-inf": ["pmf", *_INF, "--block"],
    "err-p-one": ["quantile", *_SMALL, "--p", "1"],
    "err-pgf-bound": ["gfun", "--m", "3", "--k", "2", "--theta", "1",
                      "--kind", "pgf", "--arg", "3"],
    "err-mgf-bound": ["gfun", *_SMALL, "--kind", "mgf", "--arg", "5"],
    "err-gfun-arg-nan": ["gfun", *_SMALL, "--kind", "cf", "--arg", "nan"],
    "err-gfun-arg-inf-json": ["gfun", *_SMALL, "--kind", "cf", "--arg", "inf", *_JSON],
    "err-gfun-arg-minus-inf": ["gfun", *_SMALL, "--kind", "mgf", "--arg=-inf"],
    "err-mgf-value-overflow": ["gfun", "--m", "100000", "--k", "300", "--theta", "0.5",
                               "--kind", "mgf", "--arg", "0.69"],
    "err-mgf-value-overflow-inf": ["gfun", "--m", "inf", "--k", "300", "--theta",
                                   "0.5", "--kind", "mgf", "--arg", "0.69"],
    "err-pgf-value-overflow-inf": ["gfun", "--m", "inf", "--k", "300", "--theta",
                                   "0.5", "--kind", "pgf", "--arg", "1.99"],
    "err-mgf-point-mass": ["gfun", "--m", "9", "--k", "1", "--theta", "1",
                           "--kind", "mgf", "--arg", "800"],
    "err-cgf-point-mass": ["gfun", "--m", "9", "--k", "1", "--theta", "1",
                           "--kind", "cgf", "--arg", "710"],
    "err-mgf-point-mass-inf": ["gfun", "--m", "inf", "--k", "3", "--theta", "1",
                               "--kind", "mgf", "--arg", "800"],
    "err-r-inf-pmf": ["pmf", *_INF, "--r", "1"],
    "err-r-inf-sample": ["sample", *_INF, "--r", "1", "--n", "5"],
    "err-r-inf-moments": ["moments", *_INF, "--r", "1"],
    "err-r-negative": ["pmf", *_SMALL, "--r", "-1"],
    "err-r-negative-sample": ["sample", *_SMALL, "--r", "-1", "--n", "5"],
    "err-r-plus-k": ["cdf", *_SMALL, "--r", "6"],
    "err-r-plus-k-sample": ["sample", *_SMALL, "--r", "6", "--n", "5"],
    "err-r-theta-above-one": ["pmf", "--m", "4", "--k", "2", "--theta", "1.5",
                              "--r", "2", "--tmax", "3"],
    "err-n-zero": ["sample", *_SMALL, "--n", "0"],
    "sample-theta-tiny": ["sample", "--m", "5", "--k", "2", "--theta", "1e-17",
                          "--n", "4", "--seed", "1"],
    "err-sample-theta-tiny": ["sample", "--m", "5", "--k", "2", "--theta", "1e-19",
                              "--n", "4", "--seed", "1"],
    "err-sample-theta-tinier": ["sample", "--m", "5", "--k", "2", "--theta", "1e-30",
                                "--n", "4", "--seed", "1"],
    # parse errors and help
    "parse-m-word": ["pmf", "--m", "three", "--k", "2", "--theta", "1"],
    "parse-k-float": ["pmf", "--m", "3", "--k", "2.5", "--theta", "1"],
    "parse-missing": ["pmf", "--m", "3", "--theta", "1"],
    "parse-unknown-flag": ["pmf", *_SMALL, "--bogus"],
    "parse-format": ["pmf", *_SMALL, "--format", "xml"],
    "parse-approx-removed": ["approx", *_SMALL],
    "parse-threshold-removed": ["pmf", *_TRIPLE, "--method", "auto",
                                "--threshold", "10"],
    "parse-no-command": [],
    "out-missing-dir": ["pmf", *_SMALL, "--tmax", "2", "--out", "no-such-dir/x.csv"],
    "help": ["--help"],
    "help-pmf": ["pmf", "--help"],
})


def run_case(execute, argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = execute(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from negocc.cli import execute

    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, case in CASES.items():
        code, out, err = run_case(
            execute, [a.replace("{outdir}", str(args.outdir)) for a in case]
        )
        (args.outdir / f"{name}.out").write_text(out)
        (args.outdir / f"{name}.err").write_text(err)
        (args.outdir / f"{name}.code").write_text(f"{code}\n")
    print(f"{len(CASES)} cases written to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
