"""Numeric lane: infinite products, identity residuals, pi-series, limits."""

import math
from fractions import Fraction

import pytest

from reference import rahman_grid
from supercong.analytic import (
    check_gamma_limit,
    check_identity_numeric,
    check_pi_formula,
    pi_target,
    q_product_infinite,
    richardson_extrapolate,
    verify_analytic_case,
)
from supercong.padic import real_partial_sums


class TestProducts:
    def test_euler_product_at_half(self):
        # direct product oracle: 60 factors suffice well below 1e-15
        oracle = 1.0
        for j in range(60):
            oracle *= 1.0 - 0.5 ** (1 + j)
        assert abs(q_product_infinite(1, 1, 0.5) - oracle) < 1e-15
        assert abs(q_product_infinite(1, 1, 0.5) - 0.2887880951) < 1e-9

    def test_tail_of_convergent_product(self):
        assert abs(q_product_infinite(80, 4, 0.5) - 1.0) < 1e-15

    def test_at_q_zero_limit(self):
        assert q_product_infinite(2, 4, 1e-9) == pytest.approx(1.0)

    def test_q_outside_unit_disc_rejected(self):
        with pytest.raises(ValueError):
            q_product_infinite(1, 4, 1.2)


class TestIdentities:
    @pytest.mark.parametrize("cid", ["chu1", "chu2", "thm7_2"])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_q_identities(self, registry, cid, q):
        check = check_identity_numeric(registry.get(cid), q)
        assert check.passed, (cid, q, check.residual)
        assert check.residual < 1e-12

    def test_quadratic_summation_default_params(self, registry):
        check = check_identity_numeric(registry.get("rahman"), 0.5)
        assert check.passed and check.residual < 1e-12

    def test_quadratic_summation_grid(self, registry):
        case = registry.get("rahman")
        for q, a, b, d in rahman_grid():
            check = check_identity_numeric(case, q, params={"a": a, "b": b, "d": d})
            assert check.residual < 1e-10, (q, a, b, d, check.residual)

    def test_asymmetric_perturbation_fails(self, registry):
        check = check_identity_numeric(registry.get("rahman"), 0.5, perturb_rhs=True)
        assert not check.passed
        assert check.residual > 1e-4

    def test_truncation_stability(self, registry):
        # the tail policy leaves no structural truncation error: recomputing
        # at another q confirms residuals stay in roundoff territory
        case = registry.get("chu2")
        for q in (0.3, 0.6):
            assert check_identity_numeric(case, q).residual < 1e-12

    def test_doubling_the_cap_does_not_move_residuals(self, registry, monkeypatch):
        import supercong.analytic as analytic

        case = registry.get("chu1")
        residuals = []
        for cap in (400, 800):
            monkeypatch.setattr(analytic, "_HARD_CAP", cap)
            residuals.append(check_identity_numeric(case, 0.8).residual)
        assert abs(residuals[0] - residuals[1]) < 1e-11  # well under tol/10


class TestPiSeries:
    def test_first_partial_sum(self, registry):
        sums = real_partial_sums(registry.get("ram1").real_lhs, 0)
        assert sums == [Fraction(1)]

    def test_targets(self):
        g34 = math.gamma(0.75)
        assert pi_target("two_sqrt2_over_sqrtpi_gamma34_sq") == pytest.approx(
            2 * math.sqrt(2) / (math.sqrt(math.pi) * g34 * g34)
        )
        assert pi_target("neg_sqrt_2pi_over_2_gamma34_sq") == pytest.approx(-0.834626, abs=1e-5)

    @pytest.mark.parametrize("cid", ["ram1", "chu3", "thm7_pi"])
    def test_gap_at_60_terms(self, registry, cid):
        check = check_pi_formula(registry.get(cid), 60)
        assert check.passed
        assert check.gap < 1e-9

    def test_slow_series_needs_extrapolation(self, registry):
        check = check_pi_formula(registry.get("ram1"), 40)
        assert check.gap_raw > 1e-4          # raw tail decays like 1/N
        assert check.gap < 1e-12             # extrapolated gap collapses

    def test_geometric_series_raw(self, registry):
        check = check_pi_formula(registry.get("chu3"), 60)
        assert check.gap_raw < 1e-12         # ratio-1/4 terms: no acceleration needed

    def test_raw_gap_shrinks_with_n(self, registry):
        for cid in ("ram1", "chu3", "thm7_pi"):
            case = registry.get(cid)
            gaps = [check_pi_formula(case, n).gap_raw for n in range(10, 61, 10)]
            assert all(b < a for a, b in zip(gaps, gaps[1:]) if a > 1e-15), (cid, gaps)

    def test_richardson_on_known_sequence(self):
        # partial sums of sum 1/k^2 = pi^2/6: classic 1/N-tail benchmark
        partials = []
        total = Fraction(0)
        for k in range(1, 41):
            total += Fraction(1, k * k)
            partials.append(total)
        value = float(richardson_extrapolate(partials, 12))
        assert abs(value - math.pi ** 2 / 6) < 1e-12


class TestGammaLimit:
    def test_x_one_is_identically_one(self):
        check = check_gamma_limit(1.0, [0.9, 0.99, 0.999])
        assert all(abs(v - 1.0) < 1e-12 for v in check.values)

    def test_x_two_approaches_one(self):
        check = check_gamma_limit(2.0, [0.9, 0.99, 0.999])
        assert all(abs(v - 1.0) < 1e-9 for v in check.values)

    def test_strictly_decreasing_gaps(self):
        for x in (0.25, 0.5, 0.75):
            check = check_gamma_limit(x, [0.9, 0.99, 0.999])
            assert check.decreasing, (x, check.gaps)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            check_gamma_limit(-1.0, [0.9])
        with pytest.raises(ValueError):
            check_gamma_limit(0.5, [1.5])


class TestDriver:
    def test_identity_case(self, registry):
        result = verify_analytic_case(registry.get("chu1"), {"q": 0.5})
        assert result.status == "pass"
        assert result.residual < 1e-12

    def test_pi_case(self, registry):
        result = verify_analytic_case(registry.get("thm7_pi"), {"N": 60})
        assert result.status == "pass"

    def test_gamma_case(self, registry):
        result = verify_analytic_case(registry.get("gamma_limit"), {})
        assert result.status == "pass"

    def test_tolerance_override(self, registry):
        result = verify_analytic_case(registry.get("chu1"), {"q": 0.5}, tol=1e-20)
        assert result.status == "fail"  # tighter than roundoff: must fail
