"""p-adic lane: valuations, Morita Gamma, and the q -> 1 case driver."""

import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import padic_gamma
from supercong.padic import (
    PadicContext,
    PadicResidue,
    is_odd_prime,
    padic_gamma_many,
    padic_valuation,
    real_partial_sums,
    rising_factorial,
    verify_padic_case,
)

PRIMES = (3, 5, 7, 13)
SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def gamma_batches(draw):
    """(ctx, xs): an odd prime p <= 31, m <= 4, and a batch of p-integral
    arguments in any order whose representatives r include the edges of
    the sweep's blocks of p: r = 0, r == 0, 1 or p - 1 mod p, and p^m - 1."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    ctx = PadicContext(p, draw(st.integers(1, 4)))
    mod, blocks = ctx.modulus, ctx.modulus // p
    edge = st.builds(lambda b, offset: b * p + offset % p,
                     st.integers(0, blocks - 1), st.sampled_from([0, 1, -1]))
    reps = draw(st.lists(st.one_of(st.just(0), st.just(mod - 1), edge, st.integers(0, mod - 1)),
                         min_size=1, max_size=6))
    # x = (r den + t p^m) / den has representative r
    dens = st.integers(1, 12).filter(lambda den: den % p)
    return ctx, [Fraction(r * den + draw(st.integers(-2, 2)) * mod, den)
                 for r, den in zip(reps, draw(st.lists(dens, min_size=len(reps),
                                                       max_size=len(reps))))]


class TestValuation:
    def test_spot_values(self):
        assert padic_valuation(Fraction(250, 3), 5) == 3
        assert padic_valuation(Fraction(0), 7) == math.inf
        assert padic_valuation(Fraction(-377125, 262144), 5) == 3

    def test_negative_valuation(self):
        assert padic_valuation(Fraction(3, 25), 5) == -2

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=-1000, max_value=1000),
        st.fractions(min_value=-1000, max_value=1000),
        st.sampled_from(PRIMES),
    )
    def test_additivity(self, a, b, p):
        if a == 0 or b == 0:
            return
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


class TestRisingFactorial:
    def test_spot_values(self):
        assert rising_factorial(Fraction(1, 4), 0) == 1
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
        assert rising_factorial(Fraction(1, 8), 1) == Fraction(1, 8)

    def test_splitting(self):
        x = Fraction(3, 7)
        assert rising_factorial(x, 5) == rising_factorial(x, 2) * rising_factorial(x + 2, 3)


class TestPadicGamma:
    def test_gamma_of_one(self):
        for p in PRIMES:
            for m in (1, 2, 3):
                ctx = PadicContext(p, m)
                assert padic_gamma(Fraction(1), ctx).value == ctx.modulus - 1

    def test_gamma_of_two(self):
        for p in PRIMES:
            ctx = PadicContext(p, 3)
            assert padic_gamma(Fraction(2), ctx).value == 1

    def test_half_at_five_cubed(self):
        # representative of 1/2 mod 125 is 63; independent product-loop oracle
        ctx = PadicContext(5, 3)
        rep = (125 + 1) // 2
        assert rep == 63
        product = 1
        for j in range(1, rep):
            if j % 5:
                product = product * j % 125
        expected = (-product if rep % 2 else product) % 125
        residue = padic_gamma(Fraction(1, 2), ctx)
        assert residue.value == expected
        # reflection at x = 1/2: square is (-1)^(rep of 1/2 mod 5) = (-1)^3
        assert residue.value ** 2 % 125 == 125 - 1

    def test_non_integral_argument_rejected(self):
        with pytest.raises(ValueError):
            padic_gamma(Fraction(1, 5), PadicContext(5, 2))

    def test_batch_matches_single(self):
        ctx = PadicContext(7, 2)
        xs = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(5)]
        batch = padic_gamma_many(xs, ctx)
        for x, residue in zip(xs, batch):
            assert residue.value == padic_gamma(x, ctx).value

    @settings(max_examples=60, deadline=None)
    @given(gamma_batches())
    def test_block_sweep_matches_defining_product(self, batch):
        ctx, xs = batch
        assert padic_gamma_many(xs, ctx) == [padic_gamma(x, ctx) for x in xs]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-200, 200),
        st.integers(1, 60),
        st.sampled_from(PRIMES),
        st.integers(1, 3),
    )
    def test_translation(self, num, den, p, m):
        if den % p == 0:
            return
        x = Fraction(num, den)
        ctx = PadicContext(p, m)
        mod = ctx.modulus
        left = padic_gamma(x + 1, ctx).value
        gx = padic_gamma(x, ctx).value
        if padic_valuation(x, p) == 0:
            rep = (x.numerator % mod) * pow(x.denominator, -1, mod) % mod
            assert left == (-rep * gx) % mod
        elif padic_valuation(x, p) > 0:
            assert left == (-gx) % mod

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-200, 200),
        st.integers(1, 60),
        st.sampled_from(PRIMES),
        st.integers(1, 3),
    )
    def test_reflection(self, num, den, p, m):
        if den % p == 0:
            return
        x = Fraction(num, den)
        ctx = PadicContext(p, m)
        mod = ctx.modulus
        product = padic_gamma(x, ctx).value * padic_gamma(1 - x, ctx).value % mod
        x0 = (x.numerator % p) * pow(x.denominator, -1, p) % p
        x0 = x0 if x0 else p
        assert product == pow(-1, x0, mod) % mod


class TestCaseDriver:
    def test_g2_spot_value(self, registry):
        case = registry.get("vanhamme_g2")
        assert real_partial_sums(case.real_lhs, 1, p=5)[-1] == Fraction(265, 256)
        result = verify_padic_case(case, 5)
        assert result.status == "pass"
        assert result.valuation == 3

    def test_rational_right_side_exact_valuation(self, registry):
        result = verify_padic_case(registry.get("thm1_3"), 5)
        assert result.status == "pass"
        assert result.valuation == 3  # exactly 3: difference is -377125/262144

    def test_zero_branch(self, registry):
        result = verify_padic_case(registry.get("thm1_4"), 7)
        assert result.status == "pass"

    def test_no_right_side_applies(self, registry):
        case = registry.get("thm1_4")
        case = dataclasses.replace(case, padic_rhs=case.padic_rhs[:1])
        result = verify_padic_case(case, 7)
        assert (result.status, result.detail) == ("obstruction", "no p-adic right side applies at p=7")

    def test_corollary_spot_value(self, registry):
        case = registry.get("corollary1")
        assert real_partial_sums(case.real_lhs, 1, p=5)[-1] == Fraction(525, 512)
        result = verify_padic_case(case, 5)
        assert result.status == "pass"
        assert result.valuation == 2

    def test_condition_filter(self, registry):
        assert verify_padic_case(registry.get("vanhamme_g2"), 7).status == "skipped"
        assert verify_padic_case(registry.get("corollary1"), 17).status == "skipped"

    def test_non_prime_skipped(self, registry):
        assert verify_padic_case(registry.get("vanhamme_g2"), 9).status == "skipped"

    def test_gamma_bridge_consistency(self, registry):
        # the rising-factorial form and the Gamma_p form agree modulo p^3
        # whenever the p multiplier is present
        for p in (5, 13, 17, 29):
            assert verify_padic_case(registry.get("liu"), p).status == "pass"

    def test_large_prime_finishes(self, tmp_path):
        # Gamma_p mod p^3 at p = 1009 sweeps representatives near 10^9: one
        # step per integer took more than 100 s
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "supercong.cli", "verify", "--case", "liu", "--primes", "1009",
             "--no-cache", "--no-timing"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120,
        )
        assert time.perf_counter() - start < 30
        assert proc.returncode == 0, proc.stderr
        assert "liu  pass=1" in proc.stdout

    def test_observed_gamma_branch_valuation_gap(self, registry):
        # desk finding: without the p multiplier the bridge transfers only
        # p^2 of precision, so the Gamma branch stops at valuation 2
        result = verify_padic_case(registry.get("thm7_1"), 5)
        assert result.observe
        assert result.status == "fail"
        assert result.valuation == 2


class TestContext:
    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            PadicContext(4, 2)
        with pytest.raises(ValueError):
            PadicContext(5, 0)

    def test_residue_normalizes(self):
        ctx = PadicContext(5, 2)
        assert PadicResidue(ctx, -1).value == 24

    def test_prime_test(self):
        assert [p for p in range(3, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
