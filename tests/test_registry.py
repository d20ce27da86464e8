"""Registry loading, validation, and the expression evaluator."""

import json
import time
from fractions import Fraction

import pytest

from supercong.exprs import ExpressionError, eval_bool, eval_fraction, eval_int
from supercong.registry import RegistryError, iter_sweep_params, load_registry


class TestExpressions:
    def test_arithmetic(self):
        assert eval_int("(n-1)/2", n=9) == 4
        assert eval_fraction("d/2", d=3) == Fraction(3, 2)
        assert eval_int("-(n-1)*(d-1)/(2*d)", n=7, d=3) == -2

    def test_conditions(self):
        assert eval_bool("n > 1 and n % (2*d) == 1", n=9, d=2)
        assert not eval_bool("n % 4 == 1", n=7)
        assert eval_bool("n % (2*d) == 1 or n % (2*d) == d + 1", n=10, d=3)

    def test_non_integral_rejected(self):
        with pytest.raises(ExpressionError):
            eval_int("(n-1)/4", n=7)

    def test_unbound_name_rejected(self):
        with pytest.raises(ExpressionError):
            eval_int("(n-1)/d", n=9, d=None)

    def test_no_arbitrary_syntax(self):
        for bad in ("__import__('os')", "n.__class__", "[1,2]", "f(n)", "n if n else 0"):
            with pytest.raises(ExpressionError):
                eval_fraction(bad, n=3)

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            eval_int("1/(n-3)", n=3)

    def test_malformed_expression_raises_on_every_call(self):
        # parsed trees are cached, exceptions are not
        for _ in range(3):
            with pytest.raises(ExpressionError, match="cannot parse"):
                eval_int("(n-1)/", n=5)

    def test_power_tower_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ExpressionError):
            eval_int("n**n**n", n=29)
        assert time.perf_counter() - start < 1.0
        assert eval_int("2**(n-1)", n=11) == 1024
        assert eval_int("1**(n**n)", n=29) == 1


class TestShippedRegistry:
    def test_catalog_size(self, registry):
        assert len(registry) >= 24

    def test_expected_ids_present(self, registry):
        expected = {
            "thm1_1", "thm1_2", "thm2", "lemma1", "lemma2", "thm3_1", "thm3_2",
            "thm4", "thm5_1", "thm5_2", "thm7", "qG2", "guo1_d4", "conj1a",
            "conj1b", "conj3", "vanhamme_g2", "thm1_3", "liu", "thm1_4",
            "corollary1", "conj2", "thm7_1", "rahman", "chu1", "chu2", "ram1",
        }
        assert expected <= set(registry.by_id)

    def test_conjectures_are_observe_mode(self, registry):
        for cid in ("conj1a", "conj1b", "conj2", "conj3", "thm7_1"):
            case = registry.get(cid)
            assert case.observe and case.kind not in ("theorem", "lemma", "corollary")

    def test_digest_is_stable(self, registry):
        again = load_registry()
        assert again.digest == registry.digest

    def test_sweep_grids_satisfy_conditions(self, registry):
        for case in registry:
            if case.family not in ("q", "q_pair"):
                continue
            for params in iter_sweep_params(case):
                assert case.applies(n=params["n"], d=params.get("d")), (case.id, params)

    def test_padic_sweeps_are_odd_primes(self, registry):
        from supercong.padic import is_odd_prime

        for case in registry:
            if case.family != "padic":
                continue
            for params in iter_sweep_params(case):
                assert is_odd_prime(params["p"]), (case.id, params)
                assert case.applies(p=params["p"]), (case.id, params)

    def test_unknown_case_lookup(self, registry):
        with pytest.raises(RegistryError):
            registry.get("nonexistent")


class TestRegistryValidation:
    def _write(self, tmp_path, doc):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        return path

    def _minimal_case(self, case_id="demo"):
        return {
            "id": case_id,
            "kind": "theorem",
            "family": "q",
            "condition": "n > 1 and n % 2 == 1",
            "bounds": ["(n-1)/2"],
            "summand": {
                "prefactor": ["6", "1"],
                "q_exp": ["1", "1", "0"],
                "factors": [
                    {"exp": "1", "step": "4", "side": "num", "power": 1},
                    {"exp": "4", "step": "4", "side": "den", "power": 1},
                ],
            },
            "closed_form": [{"when": "True", "kind": "zero"}],
            "modulus": {"factors": [{"kind": "cyclotomic", "power": 1}]},
            "sweep": {"n": [3]},
        }

    def test_single_entry_registry(self, tmp_path):
        path = self._write(tmp_path, {"format": 1, "cases": [self._minimal_case()]})
        registry = load_registry(path)
        assert len(registry) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        doc = {"format": 1, "cases": [self._minimal_case(), self._minimal_case()]}
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(self._write(tmp_path, doc))

    def test_non_integral_exponent_rejected(self, tmp_path):
        case = self._minimal_case()
        case["summand"]["q_exp"] = ["1/2", "0", "0"]  # k^2/2 is not always integral
        with pytest.raises(RegistryError):
            load_registry(self._write(tmp_path, {"format": 1, "cases": [case]}))

    def test_unbalanced_parameter_factors_rejected(self, tmp_path):
        case = self._minimal_case()
        case["summand"]["factors"].append(
            {"exp": "1", "step": "2", "side": "num", "power": 1, "param": "q_div_a"}
        )
        with pytest.raises(RegistryError, match="unbalanced"):
            load_registry(self._write(tmp_path, {"format": 1, "cases": [case]}))

    def test_parametric_modulus_needs_product_spec(self, tmp_path):
        case = self._minimal_case()
        case["summand"]["factors"] += [
            {"exp": "1", "step": "2", "side": "num", "power": 1, "param": "aq"},
            {"exp": "4", "step": "4", "side": "den", "power": 1, "param": "aq"},
        ]
        case["modulus"]["factors"].append({"kind": "a_minus_qn"})
        with pytest.raises(RegistryError, match="specialized_product"):
            load_registry(self._write(tmp_path, {"format": 1, "cases": [case]}))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json")
        with pytest.raises(RegistryError):
            load_registry(path)

    def test_unknown_kind_rejected(self, tmp_path):
        case = self._minimal_case()
        case["kind"] = "hunch"
        with pytest.raises(RegistryError, match="kind"):
            load_registry(self._write(tmp_path, {"format": 1, "cases": [case]}))
