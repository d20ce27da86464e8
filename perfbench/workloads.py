"""The benchmark's workloads and their seeded instance generators.

A workload is a list of *items*: ``(label, RunConfig keyword arguments)``.
One iteration calls ``harness.run`` once per item in a fresh interpreter.
Labels key the golden verdicts in ``golden.json``.

The scale workloads draw one instance per *slot* from the seed.  The
instances of a slot cost about the same (measured on a 2-CPU x86 host,
Python 3.11, single process), so every seed keeps the workload's mix and
total work; what the seed changes is which n, and so which factor
structure of the modulus, the engine meets.

Known blind spot: the failing-statement oracle on the Q(a) leg grows
steeply past the catalog grid (lemma2_qd at d=3 takes 1.6 s at n=11,
13.5 s at n=17 and 63 s at n=23), and only ``catalog`` reaches it, at
n <= 11.
"""

from __future__ import annotations

import random

CATALOG_JOBS = 2

# thm1_1 / thm1_2 at n past the catalog grid: the integer ring only.  The
# seconds are single-process costs; the slots' choices differ by under 5%.
FAST_SLOTS = (
    ("thm1_2", None, (35,)),               # composite n, content-enlarged modulus, ~2.6 s
    ("thm1_2", None, (29, 31)),            # prime n, ~0.21 s
    ("thm1_1", None, (45, 51)),            # ~1.85 s
    ("thm1_1", None, (35, 39, 47, 53)),    # ~0.55 s
    ("thm1_1", None, (33, 43)),            # ~0.31 s
)

# parametric statements past the grid: the specialized a = q^{+-n} legs
# (polys Fraction kernel) and the Q(a) cyclotomic leg (paramfield), each
# about half of the time; the integer ring is never used.
PARAM_SLOTS = (
    (("thm2", None, 13), ("thm4", 2, 13)),         # all three legs, ~2.2 s
    (("thm7_par", 4, 21), ("thm4", 5, 21)),        # mostly the specialized legs, ~1.8 s
    (("lemma1", 2, 17), ("lemma1", 2, 21)),        # Q(a) leg only, ~1.3 s
    (("lemma1", 4, 33), ("lemma1", 2, 25)),        # Q(a) leg only, ~2.0 s
)


def _item(case_id: str, d, n: int) -> tuple[str, dict]:
    label = f"{case_id} " + (f"d={d} " if d is not None else "") + f"n={n}"
    config = {"case_ids": [case_id], "n_values": [n], "jobs": 1}
    if d is not None:
        config["d_values"] = [d]
    return label, config


def fast_scale(seed: int) -> list:
    rng = random.Random(f"fast_scale:{seed}")
    return [_item(case_id, d, rng.choice(ns)) for case_id, d, ns in FAST_SLOTS]


def parametric_scale(seed: int) -> list:
    rng = random.Random(f"parametric_scale:{seed}")
    return [_item(*rng.choice(slot)) for slot in PARAM_SLOTS]


def catalog(seed: int) -> list:
    """Every registry instance on its sweep grid, cold, through the pool;
    the catalog is fixed, so the seed does not apply."""
    return [("catalog", {"jobs": CATALOG_JOBS, "use_cache": True, "cache": "fresh"})]


def warm_rerun(seed: int) -> list:
    """The catalog again against a filled cache; the audit sample is keyed
    to the registry digest, so the seed does not apply."""
    return [("catalog", {"jobs": 1, "use_cache": True, "cache": "warm"})]


WORKLOADS = {
    "catalog": catalog,
    "fast_scale": fast_scale,
    "parametric_scale": parametric_scale,
    "warm_rerun": warm_rerun,
}


def pool() -> list:
    """Every item any seed can draw, for capturing the golden verdicts."""
    items = [("catalog", {"jobs": CATALOG_JOBS})]
    for case_id, d, ns in FAST_SLOTS:
        items += [_item(case_id, d, n) for n in ns]
    for slot in PARAM_SLOTS:
        items += [_item(*choice) for choice in slot]
    return items
