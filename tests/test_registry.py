"""Registry loading, validation, and the expression evaluator."""

import json
import re
import time
from fractions import Fraction
from itertools import repeat

import pytest

from supercong import registry as registry_module
from supercong.cli import main
from supercong.exprs import ExpressionError, eval_bool, eval_fraction, eval_int
from supercong.registry import (
    RegistryError,
    default_registry_path,
    iter_sweep_params,
    load_registry,
)


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

    def test_parameter_factors_balance_by_power(self, tmp_path):
        # thm2's numerator pair raised to power 2: one q/a entry on each
        # side, but the powers 2 and 1 leave a 1/a unit per term step that
        # the oracle's avatars would strip from one side only
        doc = json.loads(default_registry_path().read_text())
        [case] = [case for case in doc["cases"] if case["id"] == "thm2"]
        for factor in case["summand"]["factors"]:
            if factor["side"] == "num" and factor.get("param"):
                factor["power"] = 2
        doc["cases"] = [case]
        with pytest.raises(RegistryError, match=re.escape(
                "thm2: unbalanced q/a factors (total power 2 num vs 1 den)")):
            load_registry(self._write(tmp_path, doc))

    def test_parametric_modulus_needs_product_spec(self, tmp_path):
        case = self._minimal_case()
        case["summand"]["factors"] += [
            {"exp": "1", "step": "2", "side": "num", "power": 1, "param": "aq"},
            {"exp": "1", "step": "2", "side": "num", "power": 1, "param": "q_div_a"},
            {"exp": "4", "step": "4", "side": "den", "power": 1, "param": "aq"},
            {"exp": "4", "step": "4", "side": "den", "power": 1, "param": "q_div_a"},
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


# string fields of a record that are names, not expressions
NOT_EXPRESSIONS = {"id", "kind", "family", "anchor", "notes", "side", "param", "target",
                   "builtin", "flags"}


def _rewritten(value, key=None):
    """``value`` with each all-digit expression written as a JSON integer,
    and each rhs_product integer written as a string."""
    if key == "rhs_product":
        return {k: v if k == "sign" else
                [str(e) for e in v] if isinstance(v, list) else str(v) for k, v in value.items()}
    if isinstance(value, dict):
        return {k: v if k in NOT_EXPRESSIONS else _rewritten(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_rewritten(v, key) for v in value]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    return value


def _catalog():
    return json.loads(default_registry_path().read_text())


def _verify(tmp_path, doc, case_id, argv, name):
    """(exit status, report or None) of one record run from ``doc``."""
    registry, report = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
    registry.write_text(json.dumps(doc))
    family = next(case["family"] for case in doc["cases"] if case["id"] == case_id)
    verb = "analytic" if family in ("analytic_identity", "pi_series", "gamma_limit") else "verify"
    status = main([verb, "--registry", str(registry), "--case", case_id, *argv,
                   "--no-cache", "--no-timing", "--report", str(report)])
    return status, json.loads(report.read_text()) if report.exists() else None


class TestExpressionFields:
    """Every expression field reads a string as it is and a JSON integer as
    its decimal text, so a record loads the same written either way."""

    def test_integers_load_like_their_text(self, tmp_path):
        doc = _catalog()
        rewritten = {"cases": [_rewritten(case) for case in doc["cases"]]}
        by_id = {case["id"]: case for case in rewritten["cases"]}
        assert by_id["thm1_1"]["summand"]["prefactor"] == [6, 1]
        assert by_id["chu1"]["rhs_product"]["num"] == ["5", "3", "3", "3"]
        shipped = load_registry()
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(rewritten))
        for case, again in zip(shipped, load_registry(path), strict=True):
            assert again == case, case.id

    @pytest.mark.parametrize("case_id", ["thm2", "conj1a", "thm1_3", "chu1", "chu3",
                                         "gamma_limit"])
    def test_one_record_per_family_reports_the_same(self, case_id, tmp_path):
        doc = _catalog()
        rewritten = {"cases": [_rewritten(case) for case in doc["cases"]]}
        first = _verify(tmp_path, doc, case_id, [], "shipped")
        second = _verify(tmp_path, rewritten, case_id, [], "rewritten")
        assert first[0] == second[0]
        assert first[1]["results"] == second[1]["results"]
        assert first[1]["summary"] == second[1]["summary"]

    # (case id, path, value, its string-written twin or None when the value
    # is refused at load, verify arguments): one-value bends that ended in
    # an error result with a traceback before expressions had one reader
    BENDS = [
        ("chu1", ("rhs_product", "num", 0), "5", 5, []),
        ("thm2", ("specialized_product", "num", 0), 5, "5", ["--n", "5"]),
        ("thm1_1", ("closed_form", 0, "num", 0, "length"), 2, "2", ["--n", "5"]),
        ("thm1_2", ("bounds",), [3], ["3"], ["--n", "5"]),
        ("thm1_3", ("rhs", 0, "den", 0, 0), 1, "1", ["--primes", "5"]),
        ("thm1_4", ("rhs", 0, "when"), True, None, ["--primes", "5"]),
    ]

    @pytest.mark.parametrize("case_id, path, value, twin, argv", BENDS,
                             ids=[row[0] for row in BENDS])
    def test_a_bend_runs_like_its_twin_or_is_refused(self, case_id, path, value, twin, argv,
                                                     tmp_path, capsys, caplog):
        def bent(new):
            doc = _catalog()
            [record] = [case for case in doc["cases"] if case["id"] == case_id]
            *parents, last = path
            for key in parents:
                record = record[key]
            record[last] = new
            return doc

        status, report = _verify(tmp_path, bent(value), case_id, argv, "bent")
        if twin is None:
            assert (status, report) == (2, None)
            assert capsys.readouterr().err.startswith(f"error: {case_id}: ")
        else:
            twin_status, twin_report = _verify(tmp_path, bent(twin), case_id, argv, "twin")
            assert (status, report["results"]) == (twin_status, twin_report["results"])
            assert all(result["status"] != "error" for result in report["results"])
        assert not [record for record in caplog.records if record.exc_info]

    def test_rhs_product_base_must_be_positive(self, tmp_path):
        # a base of 0 would multiply the same factor forever
        doc = _catalog()
        [record] = [case for case in doc["cases"] if case["id"] == "chu1"]
        record["rhs_product"]["base"] = 0
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RegistryError, match=re.escape(
                "chu1: rhs_product.base: must be a constant integer >= 1, got 0")):
            load_registry(path)


def _key_paths(reader, value, path=()):
    """(path, required) of every key in ``value``, as the key table reads it
    with ``reader``: a path is the keys and list indices down to the key."""
    if isinstance(reader, registry_module._ByKey):
        reader = reader.shapes[value[reader.key]]
    if isinstance(reader, registry_module._Shape):
        for key, item in value.items():
            yield path + (key,), reader.keys[key].required
            if item is not None:
                yield from _key_paths(reader.keys[key].reader, item, path + (key,))
    elif isinstance(reader, registry_module._List):
        for index, (item_reader, item) in enumerate(zip(reader.row or repeat(reader.item), value)):
            yield from _key_paths(item_reader, item, path + (index,))


def _path_text(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


class TestKeyTable:
    """Every key of a record is one the key table knows: a renamed key is
    refused by its path, and so is a deleted required one."""

    def test_each_renamed_or_deleted_key_is_named(self, tmp_path):
        path = tmp_path / "cases.json"

        def refused(record, what, keys):
            path.write_text(json.dumps({"cases": [record]}))
            with pytest.raises(RegistryError) as info:
                load_registry(path)
            name = record.get("id", "a record without an id")   # the id may be the key
            assert str(info.value) == f"{name}: {what} '{_path_text(keys)}'"

        renamed = deleted = products = 0
        for record in _catalog()["cases"]:
            for keys, required in list(_key_paths(registry_module._CASE, record)):
                products += keys[0] == "rhs_product"   # its own shape of constants
                *parents, last = keys
                target = record
                for key in parents:
                    target = target[key]
                items = list(target.items())
                target[last + "_"] = target.pop(last)
                refused(record, "unknown key", (*parents, last + "_"))
                renamed += 1
                if required:
                    del target[last + "_"]
                    refused(record, "missing key", keys)
                    deleted += 1
                target.clear()
                target.update(items)
        assert renamed > 1000 and deleted > 500   # 1366 and 852 in the shipped catalog
        assert products == 15   # the key, base, num, den and sign of three analytic identities
