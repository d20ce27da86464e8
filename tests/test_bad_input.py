"""Malformed registry values end in a message and an exit status, never in a
traceback: a value that is wrong at every parameter is refused at load
(exit 2), and one that is out of its domain at the swept parameter is an
obstruction (exit 1)."""

import json

import pytest

from supercong.cli import main
from supercong.harness import SYMBOLIC_FAMILIES
from supercong.registry import default_registry_path

# a new value that deletes its key from the record
MISSING = object()

# (row id, case id, [(path in the record, new value)], arguments of the
#  record's command (verify or analytic, by its family), exit status, message
#  in stderr (exit 2) or in the instance's detail)
BAD_INPUTS = [
    ("closed_form_den_vanishes", "thm1_1",
     [(("closed_form", 0, "den", 0, "exp"), "n-5")],
     ["--n", "5"], 1, "closed-form denominator (q^0; q^4)_1 vanishes"),
    ("modulus_power_negative", "thm1_1",
     [(("summand", "q_exp"), ["1", "0", "0"]),
      (("modulus", "factors"), [{"kind": "cyclotomic", "power": -1}])],
     ["--n", "5"], 2, "thm1_1: modulus.factors[0].power: must be a JSON integer >= 1, got -1"),
    ("modulus_kind_unknown", "thm1_1", [(("modulus", "factors", 1, "kind"), "cyclotomik")],
     ["--n", "5"], 2, "thm1_1: modulus.factors[1].kind: must be one of ('cyclotomic', 'q_integer', "
                       "'one_minus_a_qn', 'a_minus_qn'), got 'cyclotomik'"),
    ("geometric_base_zero", "vanhamme_g2", [(("lhs", "geometric_base"), "0")],
     ["--primes", "5"], 2, "vanhamme_g2: lhs.geometric_base: must be a nonzero constant, got '0'"),
    ("padic_bound_negative", "vanhamme_g2", [(("bound",), "-3")],
     ["--primes", "5"], 1, "negative truncation bound -3"),
    ("padic_bound_missing", "vanhamme_g2", [(("bound",), None)],
     ["--primes", "5"], 2, "vanhamme_g2: a p-adic sum needs a bound expression"),
    ("gamma_argument_not_p_integral", "liu", [(("rhs", 0, "num", 0), "1/5")],
     ["--primes", "5"], 1, "1/5 is not p-integral at p=5"),
    ("rising_length_negative", "liu", [(("lhs", "num", 0, 1), "(p-9)/4")],
     ["--primes", "5"], 1, "negative rising-factorial length -1"),
    ("bound_not_integral", "thm1_1", [(("bounds",), ["(n-1)/4"])],
     ["--n", "7"], 1, "non-integral value 3/2"),
    ("specialized_exponent_not_integral", "thm2",
     [(("specialized_product", "num", 2), "(3-n)/4")],
     ["--n", "5"], 1, "non-integral value -1/2"),
    # the parameter a is read only by a q record's summand
    ("parameter_in_pair_summand", "conj1a", [(("lhs", "summand", "factors", 0, "param"), "aq")],
     ["--n", "9"], 2, "conj1a: the parameter a in a 'q_pair' summand (only q records read it)"),
    ("parameter_in_analytic_summand", "chu1", [(("summand", "factors", 0, "param"), "aq")],
     [], 2, "chu1: the parameter a in a 'analytic_identity' summand (only q records read it)"),
    # each (aq^c; q^s)^p of a summand side pairs with a (q^c/a; q^s)^p of
    # the same side, and the q/a factors balance by power between the sides
    ("parameter_pair_broken", "thm2", [(("summand", "factors", 3, "exp"), "3")],
     ["--n", "5"], 2, "thm2: unpaired parametric factors (aq^1; q^2)^1, (q^3/a; q^2)^1 in the "
                      "numerator: each (aq^c; q^s)^p needs a (q^c/a; q^s)^p on its side"),
    ("q_div_a_powers_unbalanced", "thm2",
     [(("summand", "factors", 2, "power"), 2), (("summand", "factors", 3, "power"), 2)],
     ["--n", "5"], 2, "thm2: unbalanced q/a factors (total power 2 num vs 1 den)"),
    # an analytic_identity summand is read with d unbound, so d in it is refused at load
    ("analytic_summand_unbound_name", "chu1", [(("summand", "factors", 0, "exp"), "d")],
     [], 2, "chu1: name 'd' required but not supplied"),
    # a summand compiles at each of its record's d values: d(k^2 + k)/4 is an
    # integer at every k when d = 2, and 3/2 at k = 1 when d = 3
    ("q_exponent_not_integral_at_one_d", "lemma1", [(("summand", "q_exp"), ["d/4", "d/4", "0"])],
     ["--n", "5", "--d", "2"], 2, "lemma1: non-integral q-exponent 3/2 at k=1"),
    # a zero denominator factor in a term of either sum of a pair (as a theorem)
    ("pair_left_den_vanishes", "conj1a",
     [(("kind",), "theorem"), (("lhs", "summand", "factors", 2, "exp"), "0")],
     ["--n", "5"], 1, "zero denominator factor in a term"),
    ("pair_right_den_vanishes", "conj1a",
     [(("kind",), "theorem"), (("rhs", "summand", "factors", 1, "exp"), "0")],
     ["--n", "5"], 1, "zero denominator factor in a term"),
    # a condition dividing by zero at the swept parameter, in each lane
    ("condition_fails_in_congruence_lane", "thm1_1",
     [(("condition",), "n > 1 and n % 2 == 1 and 0 // (n - 7) == 0")],
     ["--n", "7"], 1, "division by zero in registry expression"),
    ("condition_fails_in_pair_lane", "conj1a",   # as a theorem: a conjecture exits 0
     [(("kind",), "theorem"), (("condition",), "n > 1 and n % 4 == 1 and 0 // (n - 9) == 0")],
     ["--n", "9"], 1, "division by zero in registry expression"),
    ("condition_fails_in_parametric_lane", "thm2",
     [(("condition",), "n > 1 and n % 2 == 1 and 0 // (n - 5) == 0")],
     ["--n", "5"], 1, "division by zero in registry expression"),
    ("condition_fails_in_padic_lane", "vanhamme_g2",
     [(("condition",), "p % 4 == 1 and 0 // (p - 5) == 0")],
     ["--primes", "5"], 1, "division by zero in registry expression"),
    # numeric-family values outside the domains analytic.py checks at run time
    ("gamma_limit_x_not_a_number", "gamma_limit", [(("x_values", 0), "1/0")],
     [], 2, "gamma_limit: x_values[0]: division by zero in registry expression"),
    ("gamma_limit_x_not_positive", "gamma_limit", [(("x_values", 0), "-1/2")],
     [], 2, "gamma_limit: x_values[0]: must be a constant > 0, got '-1/2'"),
    ("gamma_limit_q_outside_unit_interval", "gamma_limit", [(("q_values", 1), 1.5)],
     [], 2, "gamma_limit: q_values[1]: must be a JSON number in (0, 1), got 1.5"),
    ("analytic_sweep_q_outside_unit_disc", "chu1", [(("sweep", "q", 0), 1.5)],
     [], 2, "chu1: sweep.q[0]: must be a JSON number with 0 < |q| < 1, got 1.5"),
    ("pi_series_sweep_n_negative", "ram1", [(("sweep", "N", 0), -1)],
     [], 2, "ram1: sweep.N[0]: must be a JSON integer >= 0, got -1"),
    ("pi_series_target_unknown", "ram1", [(("target",), "nope")],
     [], 2, "ram1: target: must be one of ('two_sqrt2_over_sqrtpi_gamma34_sq', "
            "'neg_sqrt_2pi_over_2_gamma34_sq'), got 'nope'"),
    # a q record plans what verify_q decides: a parametric instance is decided
    # at the first bound, and d comes only from a grid of the record's d values
    ("q_record_without_bound", "thm1_1", [(("bounds",), [])],
     ["--n", "5"], 2, "thm1_1: bounds: must be a nonempty list, got []"),
    ("parametric_record_two_bounds", "lemma1", [(("bounds",), ["(n-1)/d", "n-1"])],
     ["--n", "5", "--d", "2"], 2, "lemma1: a parametric record takes one bound, got 2"),
    ("d_values_sweep_not_a_grid", "lemma1", [(("sweep",), {"n": [5, 9]})],
     [], 2, "lemma1: a q record sweeps a [d, n] grid exactly when it has d_values"),
    ("grid_d_outside_d_values", "lemma1", [(("sweep",), {"grid": [[7, 5]]})],
     [], 2, "lemma1: sweep d=7 is not one of its d_values [2, 3, 4]"),
    # a record tol follows the rule of --tol; JSON 1e999 reads as inf
    ("record_tol_infinite", "chu1", [(("tol",), float("inf"))],
     [], 2, "chu1: tol: a tolerance must be a finite JSON number >= 0, got inf"),
    ("record_tol_negative", "chu1", [(("tol",), -1)],
     [], 2, "chu1: tol: a tolerance must be a finite JSON number >= 0, got -1"),
    # a JSON integer too large for a float is refused by the same rule
    ("record_tol_huge_integer", "chu1", [(("tol",), 10**400)],
     [], 2, "chu1: tol: a tolerance must be a finite JSON number >= 0, got 1000000"),
    # an analytic identity's infinite product has integer entries
    ("rhs_product_entry_not_integral", "chu1", [(("rhs_product", "num", 0), "1/2")],
     [], 2, "chu1: rhs_product.num[0]: non-integral value 1/2"),
    ("rhs_product_entry_names_n", "chu1", [(("rhs_product", "num", 0), "n")],
     [], 2, "chu1: rhs_product.num[0]: unbound name 'n'"),
    # an integer field takes a JSON integer only, never a fraction or a bool
    ("factor_power_fractional", "thm1_1", [(("summand", "factors", 1, "power"), 3.7)],
     ["--n", "5"], 2, "thm1_1: summand.factors[1].power: must be a JSON integer >= 1, got 3.7"),
    ("factor_power_bool", "thm1_1", [(("summand", "factors", 1, "power"), True)],
     ["--n", "5"], 2, "thm1_1: summand.factors[1].power: must be a JSON integer >= 1, got True"),
    ("modulus_power_fractional", "thm1_1", [(("modulus", "factors", 1, "power"), 2.5)],
     ["--n", "5"], 2, "thm1_1: modulus.factors[1].power: must be a JSON integer >= 1, got 2.5"),
    ("padic_threshold_fractional", "vanhamme_g2", [(("threshold",), 3.9)],
     ["--primes", "5"], 2, "vanhamme_g2: threshold: must be a JSON integer >= 1, got 3.9"),
    # a closed-form branch is a ratio or zero, and its multiplier a JSON bool
    ("closed_form_kind_unknown", "thm1_1", [(("closed_form", 1, "kind"), "zeroo")],
     ["--n", "7"], 2, "thm1_1: closed_form[1].kind: must be one of ('ratio', 'zero'), "
                      "got 'zeroo'"),
    ("closed_form_multiplier_not_bool", "thm1_1", [(("closed_form", 0, "n_multiplier"), "false")],
     ["--n", "5"], 2, "thm1_1: closed_form[0].n_multiplier: must be true or false, "
                      "got 'false'"),
    # every q-lane record has a modulus to decide: an empty one would pass
    # the pair below, whose right sum is bent
    ("pair_modulus_empty", "conj1a",
     [(("modulus", "factors"), []), (("rhs", "summand", "q_exp", 1), "3")],
     ["--n", "5"], 2, "conj1a: modulus.factors: must be a nonempty list, got []"),
    # a tolerance or a q value is a JSON number, never a bool or a string:
    # a tol of true read as 1.0 would pass chu1 with its product bent
    ("record_tol_bool", "chu1", [(("tol",), True), (("rhs_product", "num", 0), 6)],
     [], 2, "chu1: tol: a tolerance must be a finite JSON number >= 0, got True"),
    ("record_tol_string", "chu1", [(("tol",), "1e-9")],
     [], 2, "chu1: tol: a tolerance must be a finite JSON number >= 0, got '1e-9'"),
    ("gamma_limit_q_string", "gamma_limit", [(("q_values", 0), "0.9")],
     [], 2, "gamma_limit: q_values[0]: must be a JSON number in (0, 1), got '0.9'"),
    # an analytic identity is a builtin the lane knows, or a summand and a product
    ("analytic_builtin_unknown", "rahman", [(("builtin",), "rahmann")],
     [], 2, "rahman: builtin: must be one of ('rahman',), got 'rahmann'"),
    ("analytic_summand_without_product", "chu1", [(("rhs_product",), MISSING)],
     [], 2, "chu1: an analytic identity has a builtin, or else a summand "
            "and an rhs_product"),
    # every key is one the key table knows, read by its one reader: a
    # misspelled power would weaken the modulus to [n]*Phi_n and pass
    ("modulus_power_misspelled", "thm1_1",
     [(("modulus", "factors", 1, "power"), MISSING), (("modulus", "factors", 1, "powr"), 2)],
     ["--n", "5"], 2, "thm1_1: unknown key 'modulus.factors[1].powr'"),
    ("flags_a_string", "thm1_1", [(("flags",), "abc")],
     ["--n", "5"], 2, "thm1_1: flags: must be a list, got 'abc'"),
    ("anchor_a_number", "thm1_1", [(("anchor",), 5)],
     ["--n", "5"], 2, "thm1_1: anchor: must be a string, got 5"),
    ("d_values_bool", "lemma2", [(("d_values",), [True, 3, 4])],
     ["--n", "5", "--d", "3"], 2,
     "lemma2: d_values[0]: an integer field must be a JSON integer, got True"),
    # a null value is an absent key, and a record without a string id is named so
    ("record_id_null", "thm1_1", [(("id",), None)],
     ["--n", "5"], 2, "a record without an id: missing key 'id'"),
    ("factor_side_missing", "thm1_1", [(("summand", "factors", 0, "side"), MISSING)],
     ["--n", "5"], 2, "thm1_1: missing key 'summand.factors[0].side'"),
    # a shape chosen by a kind: a pi-series sums its series (a rising ratio
    # once ended in an error result), and a rising-ratio entry is a pair (a
    # two-letter string once read as one)
    ("pi_series_lhs_not_a_sum", "ram1", [(("lhs", "kind"), "rising_ratio")],
     [], 2, "ram1: lhs.kind: must be one of ('sum',), got 'rising_ratio'"),
    ("rising_ratio_entry_a_string", "thm1_3", [(("rhs", 0, "num", 0), "12")],
     ["--primes", "5"], 2, "thm1_3: rhs[0].num[0]: must be a list of 2, got '12'"),
]


@pytest.mark.parametrize("case_id, edits, argv, status, message",
                         [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exits_with_a_message(case_id, edits, argv, status, message,
                                        tmp_path, capsys, caplog):
    doc = json.loads(default_registry_path().read_text())
    [record] = [case for case in doc["cases"] if case["id"] == case_id]
    for (*parents, last), value in edits:
        target = record
        for key in parents:
            target = target[key]
        if value is MISSING:
            del target[last]
        else:
            target[last] = value
    registry, report = tmp_path / "cases.json", tmp_path / "report.json"
    registry.write_text(json.dumps(doc))
    command = "verify" if record["family"] in SYMBOLIC_FAMILIES else "analytic"
    assert main([command, "--registry", str(registry), "--case", case_id, *argv,
                 "--no-cache", "--report", str(report)]) == status
    if status == 2:
        assert f"error: {message}" in capsys.readouterr().err
    else:
        [result] = json.loads(report.read_text())["results"]
        assert (result["status"], result["detail"]) == ("obstruction", message)
    assert not [record for record in caplog.records if record.exc_info]
