"""Malformed registry values end in a message and an exit status, never in a
traceback: a value that is wrong at every parameter is refused at load
(exit 2), and one that is out of its domain at the swept parameter is an
obstruction (exit 1)."""

import json

import pytest

from supercong.cli import main
from supercong.registry import default_registry_path

# (row id, case id, [(path in the record, new value)], verify arguments,
#  exit status, message in stderr (exit 2) or in the instance's detail)
BAD_INPUTS = [
    ("closed_form_den_vanishes", "thm1_1",
     [(("closed_form", 0, "den", 0, "exp"), "n-5")],
     ["--n", "5"], 1, "closed-form denominator (q^0; q^4)_1 vanishes"),
    ("modulus_power_negative", "thm1_1",
     [(("summand", "q_exp"), ["1", "0", "0"]),
      (("modulus", "factors"), [{"kind": "cyclotomic", "power": -1}])],
     ["--n", "5"], 2, "thm1_1: malformed record: SpecError: modulus factor power must be >= 1"),
    ("modulus_kind_unknown", "thm1_1", [(("modulus", "factors", 1, "kind"), "cyclotomik")],
     ["--n", "5"], 2, "thm1_1: malformed record: SpecError: unknown modulus factor kind 'cyclotomik'"),
    ("geometric_base_zero", "vanhamme_g2", [(("lhs", "geometric_base"), "0")],
     ["--primes", "5"], 2, "vanhamme_g2: zero geometric base"),
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
    # an analytic_identity summand is read with d unbound, so d in it is refused at load
    ("analytic_summand_unbound_name", "chu1", [(("summand", "factors", 0, "exp"), "d")],
     [], 2, "chu1: name 'd' required but not supplied"),
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
        target[last] = value
    registry, report = tmp_path / "cases.json", tmp_path / "report.json"
    registry.write_text(json.dumps(doc))
    assert main(["verify", "--registry", str(registry), "--case", case_id, *argv,
                 "--no-cache", "--report", str(report)]) == status
    if status == 2:
        assert f"error: {message}" in capsys.readouterr().err
    else:
        [result] = json.loads(report.read_text())["results"]
        assert (result["status"], result["detail"]) == ("obstruction", message)
    assert not [record for record in caplog.records if record.exc_info]
