"""Command-line surface: formats, flags, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from negocc.cli import execute


def run(capsys, *args):
    code = execute(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(script, **kwargs):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``src``, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )


class TestPmfCommand:
    def test_csv_small_convolution(self, capsys):
        code, out, err = run(
            capsys, "pmf", "--m", "3", "--k", "2", "--theta", "1", "--tmax", "1",
            "--format", "csv",
        )
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "t,value"
        ts, values = zip(*(line.split(",") for line in lines[1:]))
        assert ts == ("0", "1")
        np.testing.assert_allclose(
            [float(v) for v in values], [2.0 / 3.0, 2.0 / 9.0], rtol=1e-15
        )

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run(
            capsys, "pmf", "--m", "3", "--k", "2", "--theta", "1", "--tmax", "0"
        )
        value = out.strip().splitlines()[1].split(",")[1]
        assert value == "0.66666666666666663"

    def test_log_roundtrip(self, capsys):
        base = ["pmf", "--m", "9", "--k", "4", "--theta", "0.6", "--tmax", "12"]
        _, plain, _ = run(capsys, *base)
        _, logged, _ = run(capsys, *base, "--log")
        plain_vals = [float(l.split(",")[1]) for l in plain.strip().splitlines()[1:]]
        log_vals = [float(l.split(",")[1]) for l in logged.strip().splitlines()[1:]]
        np.testing.assert_allclose(
            [math.exp(v) for v in log_vals], plain_vals, rtol=1e-15
        )

    def test_domain_violation_exit_two(self, capsys):
        code, out, err = run(capsys, "pmf", "--m", "3", "--k", "5", "--theta", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "k must satisfy 0 < k <= m" in err

    def test_unknown_flag_exit_two(self, capsys):
        code, _, err = run(
            capsys, "pmf", "--m", "3", "--k", "2", "--theta", "1", "--bogus"
        )
        assert code == 2 and err.strip()

    def test_unparsable_number_exit_two(self, capsys):
        code, _, err = run(capsys, "pmf", "--m", "three", "--k", "2", "--theta", "1")
        assert code == 2 and "m must be" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--m", "inf", "--k", "2", "--theta", "0.5",
            "--tmax", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"params", "method", "values"}
        assert doc["params"] == {"m": "inf", "k": 2, "theta": 0.5}
        assert doc["method"] == "exact"
        np.testing.assert_allclose(
            [v for _, v in doc["values"]], [0.25, 0.25, 0.1875], rtol=1e-14
        )

    def test_default_tmax_is_truncation_point(self, capsys):
        from negocc import OccupancyParams, truncation_point

        _, out, _ = run(capsys, "pmf", "--m", "30", "--k", "14", "--theta", "0.6")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == truncation_point(OccupancyParams(30, 14, 0.6)) + 1
        assert sum(float(r.split(",")[1]) for r in rows) >= 0.99

    def test_method_gamma_and_auto(self, capsys):
        base = ["pmf", "--m", "2000", "--k", "5", "--theta", "0.5", "--tmax", "8"]
        _, gamma_out, _ = run(capsys, *base, "--method", "gamma")
        code, auto_out, _ = run(capsys, *base, "--method", "auto")
        assert code == 0
        assert auto_out == gamma_out  # auto takes gamma above m = 1000
        _, exact_out, _ = run(capsys, *base, "--method", "exact")
        assert exact_out != gamma_out

    def test_block_output(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--m", "2", "--k", "2", "--theta", "1", "--tmax", "2",
            "--block",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,r,value"
        table = {
            (int(t), int(r)): float(v)
            for t, r, v in (line.split(",") for line in lines[1:])
        }
        assert set(table) == {(t, r) for t in (0, 1, 2) for r in (1, 2)}
        assert table[(0, 1)] == 1.0
        assert table[(1, 2)] == pytest.approx(0.25, rel=1e-14)

    def test_block_requires_exact_finite(self, capsys):
        code, _, err = run(
            capsys, "pmf", "--m", "3", "--k", "2", "--theta", "1", "--block",
            "--method", "gamma",
        )
        assert code == 2 and "--method exact" in err
        code, _, err = run(
            capsys, "pmf", "--m", "inf", "--k", "2", "--theta", "0.5", "--block"
        )
        assert code == 2

    def test_conditional_start(self, capsys):
        # --r 2 on (4, 2, 1) computes the transformed law (2, 2, 0.5)
        _, cond, _ = run(
            capsys, "pmf", "--m", "4", "--k", "2", "--theta", "1", "--r", "2",
            "--tmax", "3",
        )
        _, direct, _ = run(
            capsys, "pmf", "--m", "2", "--k", "2", "--theta", "0.5", "--tmax", "3"
        )
        assert cond == direct

    def test_gamma_route_beyond_shape_600(self, capsys):
        # gamma shape k*(1 - theta) = 1000
        base = ["pmf", "--m", "inf", "--k", "2000", "--theta", "0.5"]
        code, out, err = run(capsys, *base, "--method", "auto")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2319
        code, out, _ = run(capsys, *base, "--method", "gamma", "--log",
                           "--format", "json")
        assert code == 0
        logs = [v for _, v in json.loads(out)["values"]]
        assert all(isinstance(v, float) and math.isfinite(v) for v in logs)
        assert logs[0] < -300.0

    def test_out_of_memory_exits_three(self, capsys, monkeypatch):
        from negocc import exact

        for error, message in (
            (MemoryError("Unable to allocate 74.6 TiB for an array"),
             "Unable to allocate 74.6 TiB for an array"),
            (MemoryError(), "out of memory"),
        ):
            def refuse(*args, error=error, **kwargs):
                raise error

            monkeypatch.setattr(exact, "log_pmf_vector", refuse)
            code, out, err = run(capsys, "pmf", "--m", "5", "--k", "2",
                                 "--theta", "0.5")
            assert code == 3 and out == ""
            assert err == f"negocc: refused: {message}\n"

    def test_csv_chunks_match_plain_rendering(self, capsys, monkeypatch):
        from negocc import OccupancyParams, cli, exact, sampler
        from negocc.sampler import SampleConfig

        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 3)
        params = OccupancyParams(9, 4, 0.7)
        triple = ["--m", "9", "--k", "4", "--theta", "0.7"]

        def rows(header, values):
            return header + "".join(f"{t},{v:.17g}\n" for t, v in enumerate(values))

        _, out, _ = run(capsys, "pmf", *triple, "--tmax", "10")
        assert out == rows("t,value\n", exact.pmf_vector(params, 10))
        _, out, _ = run(capsys, "cdf", *triple, "--tmax", "9")
        assert out == rows("t,value\n", exact.cdf_vector(params, 9))
        _, out, _ = run(capsys, "pmf", *triple, "--tmax", "4", "--block")
        grid = np.exp(exact.log_pmf_block(9, 0.7, 4, 4).T)
        assert out == "t,r,value\n" + "".join(
            f"{t},{r + 1},{grid[t, r]:.17g}\n" for t in range(5) for r in range(4)
        )
        _, out, _ = run(capsys, "sample", *triple, "--n", "11", "--seed", "2")
        draws = sampler.sample_negocc(SampleConfig(params, n=11, seed=2))
        assert out == "value\n" + "".join(f"{d}\n" for d in draws.tolist())

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pmf.csv"
        code, out, _ = run(
            capsys, "pmf", "--m", "3", "--k", "2", "--theta", "1", "--tmax", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("t,value\n")


class TestAutoMethod:
    """``pmf --method auto``: exact for finite m <= 1000, gamma otherwise."""

    @staticmethod
    def routes(capsys, m, *extra):
        base = ["pmf", "--m", m, "--k", "3", "--theta", "0.6", "--tmax", "10", *extra]
        code, auto, err = run(capsys, *base, "--method", "auto")
        assert code == 0 and err == ""
        outs = {method: run(capsys, *base, "--method", method)[1]
                for method in ("exact", "gamma")}
        assert outs["exact"] != outs["gamma"]
        return [method for method, out in outs.items() if out == auto]

    def test_below_threshold_exact(self, capsys):
        assert self.routes(capsys, "30") == ["exact"]

    def test_above_threshold_gamma(self, capsys):
        assert self.routes(capsys, "5000") == ["gamma"]
        _, out, _ = run(capsys, "pmf", "--m", "5000", "--k", "3", "--theta", "0.6",
                        "--tmax", "10", "--method", "auto", "--format", "json")
        assert json.loads(out)["method"] == "gamma"

    def test_boundary_is_exact(self, capsys):
        assert self.routes(capsys, "1000", "--format", "json") == ["exact"]

    def test_infinite_space_uses_gamma(self, capsys):
        assert self.routes(capsys, "inf", "--format", "json") == ["gamma"]

    def test_log_flag(self, capsys):
        for m in ("20", "5000"):
            base = ["pmf", "--m", m, "--k", "4", "--theta", "0.5", "--tmax", "8",
                    "--method", "auto", "--format", "json"]
            plain = json.loads(run(capsys, *base)[1])["values"]
            logged = json.loads(run(capsys, *base, "--log")[1])["values"]
            np.testing.assert_array_equal(
                np.exp([v for _, v in logged]), [v for _, v in plain]
            )


class TestOtherCommands:
    def test_cdf(self, capsys):
        code, out, _ = run(
            capsys, "cdf", "--m", "3", "--k", "2", "--theta", "1", "--tmax", "1"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,value"
        assert float(rows[2].split(",")[1]) == pytest.approx(8.0 / 9.0, rel=1e-13)

    def test_quantile(self, capsys):
        code, out, _ = run(
            capsys, "quantile", "--m", "inf", "--k", "1", "--theta", "0.5",
            "--p", "0.7",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "p,value"
        assert rows[1].split(",")[1] == "1"

    def test_sample_deterministic_output(self, capsys):
        args = ("sample", "--m", "30", "--k", "14", "--theta", "0.6", "--n", "25",
                "--seed", "7")
        code, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert code == 0 and first == second
        rows = first.strip().splitlines()
        assert rows[0] == "value" and len(rows) == 26

    def test_sample_json_params(self, capsys):
        _, out, _ = run(
            capsys, "sample", "--m", "5", "--k", "2", "--theta", "0.8", "--n", "4",
            "--seed", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["params"]["n"] == 4 and doc["params"]["seed"] == 1
        assert doc["method"] == "simulation"
        assert len(doc["values"]) == 4

    def test_moments_json(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--m", "inf", "--k", "2", "--theta", "0.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["mean"] == pytest.approx(2.0)
        assert doc["values"]["variance"] == pytest.approx(4.0)

    def test_moments_csv_degenerate_drops_shape_rows(self, capsys):
        _, out, _ = run(capsys, "moments", "--m", "1", "--k", "1", "--theta", "1")
        rows = out.strip().splitlines()
        assert rows[0] == "stat,value"
        assert [r.split(",")[0] for r in rows[1:]] == ["mean", "variance"]

    def test_gfun(self, capsys):
        code, out, _ = run(
            capsys, "gfun", "--m", "3", "--k", "2", "--theta", "1",
            "--kind", "pgf", "--arg", "1.0",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "kind,arg,value"
        assert float(rows[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_gfun_cf_json(self, capsys):
        _, out, _ = run(
            capsys, "gfun", "--m", "3", "--k", "2", "--theta", "1",
            "--kind", "cf", "--arg", "0.3", "--format", "json",
        )
        doc = json.loads(out)
        assert set(doc["values"]) == {"real", "imag"}

    def test_gfun_domain_error(self, capsys):
        code, _, err = run(
            capsys, "gfun", "--m", "3", "--k", "2", "--theta", "1",
            "--kind", "pgf", "--arg", "3.0",
        )
        assert code == 2 and "bound" in err

    def test_gfun_cf_beyond_log_radius(self, capsys):
        code, out, err = run(
            capsys, "gfun", "--m", "5", "--k", "2", "--theta", "0.5",
            "--kind", "cf", "--arg", "3",
        )
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("cf,3,")

    @pytest.mark.parametrize("argv", [
        ["--kind", "cf", "--arg", "nan"],
        ["--kind", "cf", "--arg", "inf", "--format", "json"],
        ["--kind", "mgf", "--arg=-inf"],
    ], ids=["cf-nan", "cf-inf-json", "mgf-minus-inf"])
    def test_gfun_non_finite_arg_names_arg(self, capsys, argv):
        code, out, err = run(
            capsys, "gfun", "--m", "9", "--k", "4", "--theta", "0.7", *argv
        )
        assert code == 2 and out == ""
        assert err == "negocc: error: arg must be finite\n"

    @pytest.mark.parametrize("triple, kind, arg", [
        (["--m", "9", "--k", "1", "--theta", "1"], "mgf", "800"),
        (["--m", "9", "--k", "1", "--theta", "1"], "cgf", "710"),
        (["--m", "inf", "--k", "3", "--theta", "1"], "mgf", "800"),
    ], ids=["mgf", "cgf", "mgf-inf"])
    def test_gfun_point_mass_overflow_names_argument(self, capsys, triple, kind, arg):
        # a point mass has an infinite bound, so only exp(s) itself can fail
        code, out, err = run(capsys, "gfun", *triple, "--kind", kind, "--arg", arg)
        assert code == 2 and out == ""
        assert err == (f"negocc: error: {kind} argument is too large: "
                       "exp(s) overflows a double\n")

    @pytest.mark.parametrize("m, kind, arg, hint", [
        ("100000", "mgf", "0.69", "cgf"),
        ("inf", "mgf", "0.69", "cgf"),
        ("inf", "pgf", "1.99", "cgf at s = log(z)"),
    ], ids=["mgf", "mgf-inf", "pgf-inf"])
    def test_gfun_value_overflow_names_cause(self, capsys, m, kind, arg, hint):
        # inside the domain the value passes the double range; its log does not
        triple = ["--m", m, "--k", "300", "--theta", "0.5"]
        code, out, err = run(capsys, "gfun", *triple, "--kind", kind, "--arg", arg)
        assert code == 2 and out == ""
        assert err == (f"negocc: error: {kind} value overflows a double; "
                       f"--kind {hint} gives its log\n")
        code, out, _ = run(capsys, "gfun", *triple, "--kind", "cgf", "--arg", "0.69")
        assert code == 0 and math.isfinite(float(out.splitlines()[1].split(",")[2]))

    def test_tiny_theta_names_theta(self, capsys):
        code, out, err = run(capsys, "pmf", "--m", "5", "--k", "2", "--theta", "1e-300")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("negocc: error: theta ")

    @pytest.mark.parametrize("argv", [
        ["pmf", "--m", "5", "--k", "2", "--theta", "1e-150"],
        ["cdf", "--m", "5", "--k", "2", "--theta", "1e-100"],
        ["pmf", "--m", "5", "--k", "2", "--theta", "0.5", "--tmax", str(2**62)],
        ["pmf", "--m", "5", "--k", "2", "--theta", "0.5", "--tmax", str(10**400)],
    ], ids=["pmf-default-tmax", "cdf-default-tmax", "pmf-tmax-2**62",
            "pmf-tmax-beyond-float"])
    def test_huge_tmax_names_tmax(self, capsys, argv):
        # the default tmax, the truncation point, grows like 1/theta
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("negocc: error: tmax must satisfy tmax < 2**59")

    def test_negative_seed_names_seed(self, capsys):
        code, out, err = run(
            capsys, "sample", "--m", "9", "--k", "4", "--theta", "0.7", "--n", "5",
            "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert err == "negocc: error: seed must satisfy seed >= 0\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, theta", [("5", "1e-19"), ("5", "1e-30"),
                                          ("5", "5e-324"), ("inf", "1e-18")])
    def test_sample_theta_too_small_names_theta(self, capsys, m, theta):
        # a draw could pass the int64 range: refused before drawing, where
        # it used to print negative or all-zero draws
        code, out, err = run(
            capsys, "sample", "--m", m, "--k", "2", "--theta", theta, "--n", "4",
            "--seed", "1",
        )
        assert code == 2 and out == ""
        assert err == ("negocc: error: theta is too small to sample: "
                       "a draw can exceed 2**63 - 1\n")

    def test_sample_rejects_conditioning_at_infinite_m(self, capsys):
        message = "conditioning (--r > 0) requires finite m"
        for command, extra in (("sample", ["--n", "5"]), ("pmf", [])):
            code, out, err = run(
                capsys, command, "--m", "inf", "--k", "2", "--theta", "0.5",
                "--r", "1", *extra,
            )
            assert code == 2 and out == ""
            assert err == f"negocc: error: {message}\n"


class TestRseBlockCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "rse-block", "--m", "4", "--theta", "1.0")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "m,k,truncation,rse"
        assert len(rows) == 1 + 10  # pairs 0 < k <= m <= 4
        first = rows[1].split(",")
        assert first[:3] == ["1", "1", "0"] and float(first[3]) == 0.0

    def test_summaries(self, capsys):
        code, out, _ = run(
            capsys, "rse-block", "--m", "5", "--theta", "1.0", "--summaries"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "m,max_rse,mean_rse,diag_rse"
        assert len(rows) == 6

    def test_budget_refusal_exit_three(self, capsys):
        code, out, err = run(
            capsys, "rse-block", "--m", "200", "--theta", "1.0", "--budget", "1000"
        )
        assert code == 3 and "budget" in err
        # streaming must not have emitted any data rows before refusing
        assert out == ""

    def test_budget_must_be_non_negative(self, capsys):
        for budget in ("nan", "-1"):
            code, out, err = run(
                capsys, "rse-block", "--m", "3", "--theta", "1.0", "--budget", budget
            )
            assert code == 2 and out == ""
            assert err == "negocc: error: budget must satisfy budget >= 0\n"

    def test_json(self, capsys):
        _, out, _ = run(
            capsys, "rse-block", "--m", "3", "--theta", "0.6", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["params"] == {"M": 3, "theta": 0.6}
        assert len(doc["values"]) == 6


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        from negocc import cli

        query = ("pmf", "--m", "9", "--k", "4", "--theta", "0.7", "--tmax", "5")
        first = run(capsys, *query)
        built = cli._build_parser.cache_info().misses
        helped = run(capsys, "--help")
        assert run(capsys, *query) == first
        assert run(capsys, "pmf", "--m", "9", "--bogus")[0] == 2
        assert run(capsys, *query) == first
        assert run(capsys, "--help") == helped and helped[0] == 0
        assert run(capsys, "pmf", "--help")[0] == 0
        assert run(capsys, *query) == first and first[0] == 0
        assert cli._build_parser.cache_info().misses == built == 1

    @pytest.mark.parametrize("argv", [
        ["approx", "--m", "9", "--k", "4", "--theta", "0.7"],
        ["pmf", "--m", "9", "--k", "4", "--theta", "0.7", "--method", "auto",
         "--threshold", "10"],
    ], ids=["approx", "threshold"])
    def test_removed_surface_is_a_parse_error(self, capsys, argv):
        # approx was pmf --method gamma; auto's switch point is fixed
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1


class TestConsoleScript:
    def test_installed_entry_point_byte_identical(self):
        # exercise the module through a fresh interpreter
        script = (
            "import sys; from negocc.cli import execute; "
            "sys.exit(execute(['sample', '--m', '6', '--k', '3', '--theta', "
            "'0.8', '--n', '10', '--seed', '42']))"
        )
        first = run_python(script)
        second = run_python(script)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"value\n")


class TestImportPath:
    def test_cli_runs_without_mpmath_or_the_oracles(self):
        # the extended-precision oracles serve the tests only: a fresh
        # interpreter that runs every CLI route never loads them
        script = (
            "import contextlib, io, json, sys\n"
            "from negocc.cli import execute\n"
            "triple = ['--m', '9', '--k', '4', '--theta', '0.7']\n"
            "runs = [['pmf', *triple], ['pmf', *triple, '--method', 'gamma'],\n"
            "        ['sample', *triple, '--n', '20'], ['rse-block', '--m', '5']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [execute(argv) for argv in runs]\n"
            "print(json.dumps([codes, 'mpmath' in sys.modules,\n"
            "                  'negocc.oracles' in sys.modules]))\n"
        )
        done = run_python(script, text=True)
        assert json.loads(done.stdout) == [[0, 0, 0, 0], False, False]
