"""CSV cells rendered by negocc._csvtext, against '%.17g' and '%d' row by row."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from negocc import _csvtext, cli


def expected(*columns) -> str:
    """The rows as the printf templates write them."""
    template = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns)
    return "\n".join(template % row for row in zip(*(c.tolist() for c in columns)))


def assert_rows_match(*columns):
    got = _csvtext.rows(columns).split("\n")
    want = expected(*columns).split("\n")
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} rows differ, first: {bad[:5]}"


def floats(values):
    return np.array(values, dtype=np.float64)


@pytest.fixture
def printf_calls(monkeypatch):
    """The values the kernel hands to its per-value '%.17g' fallback."""
    calls = []
    fallback = _csvtext._printf_words

    def spy(values):
        calls.extend(values)
        return fallback(values)

    monkeypatch.setattr(_csvtext, "_printf_words", spy)
    return calls


class TestFloatCells:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=40))
    @example([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -sys.float_info.max])
    def test_any_floats(self, values):
        assert_rows_match(floats(values))

    def test_random_bit_patterns(self):
        # every exponent, both signs, NaN payloads and the infinities
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
        assert_rows_match(bits.view(np.float64))

    def test_subnormal_and_smallest_normal(self):
        rng = np.random.default_rng(7)
        tiny = rng.integers(0, 2**53, size=200_000, dtype=np.uint64).view(np.float64)
        assert_rows_match(tiny, -tiny)

    def test_every_binade_edge(self):
        # the first and last double of every binade bound the exponent estimate
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, 1)])
        assert_rows_match(edges[np.isfinite(edges)])

    def test_powers_of_ten_and_neighbours(self):
        powers = floats([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, math.inf)])
        assert_rows_match(values, -values)

    def test_notation_switch_points(self):
        # %g is fixed for 1e-4 <= |x| < 1e17 after rounding to 17 digits
        points = floats([1e-5, 1e-4, 1e16, 1e17, 1.0, 10.0, 0.1])
        near = np.concatenate([points, np.nextafter(points, 0),
                               np.nextafter(points, math.inf)])
        rounding_up = floats([9.99999999999999999e-05, 9.9999999999999999e16,
                              float("1e-305"), float("1e-14")])
        assert_rows_match(np.concatenate([near, -near, rounding_up]))

    def test_probability_and_log_like_draws(self):
        rng = np.random.default_rng(3)
        pmf = np.exp(-rng.exponential(size=200_000) * 300)
        pmf[rng.random(pmf.size) < 0.6] = 0.0
        logs = -rng.exponential(size=200_000) * 1000
        assert_rows_match(pmf, logs)

    def test_ties_take_the_fallback(self, printf_calls):
        # the digits after the 17th are exactly 5: half to even decides
        ties = [2.0**-25, 1234567890123456.25, 1234567890123456.75, -2.0**-25]
        assert_rows_match(floats(ties))
        assert printf_calls == ties

    def test_certified_values_skip_the_fallback(self, printf_calls):
        # 2**-26 = 1.490116119384765625e-08 leaves 25 after 17 digits
        values = floats([2.0**-26, 0.1, 1 / 3, 2 / 3, 1e300, 5e-324])
        assert_rows_match(values)
        assert printf_calls == []


class TestIntCells:
    def test_digit_counts_and_signs(self):
        values = [0, 9, 10, 2**63 - 1, -2**63, -2**63 + 1, -1, -9, -10]
        for d in range(1, 19):
            values += [10**d - 1, 10**d, -(10**d - 1), -10**d]
        for b in range(1, 63):
            values += [2**b - 1, 2**b, -2**b]
        assert_rows_match(np.array(values, dtype=np.int64))

    def test_random_int64(self):
        rng = np.random.default_rng(11)
        wide = rng.integers(-2**63, 2**63 - 1, size=100_000, dtype=np.int64)
        narrow = rng.integers(0, 10**6, size=100_000, dtype=np.int64)
        assert_rows_match(wide, narrow)

    def test_non_negative_columns_of_each_width(self):
        for top in [10**width - 1 for width in range(1, 19)] + [2**63 - 1]:
            assert_rows_match(np.array([0, 1, top // 7, top], dtype=np.int64))


class TestRows:
    def test_mixed_columns_and_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(_csvtext, "_BLOCK_ROWS", 5)
        rng = np.random.default_rng(5)
        n = 23
        columns = (np.arange(n), rng.random(n), -np.arange(n) * 3,
                   np.where(rng.random(n) < 0.5, 0.0, rng.random(n)))
        assert_rows_match(*columns)

    def test_one_row(self):
        assert _csvtext.rows([np.array([0.9]), np.array([7])]) == "0.90000000000000002,7"

    def test_empty_chunk_writes_nothing(self, capsys):
        with cli._Output(None) as out:
            cli._write_rows(out, np.arange(0), np.zeros(0))
        assert capsys.readouterr().out == ""
        with cli._Output(None) as out:
            cli._write_rows(out, np.arange(1), np.array([0.25]))
        assert capsys.readouterr().out == "0,0.25\n"
