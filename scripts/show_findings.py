#!/usr/bin/env python3
"""Re-derive the desk findings: catalog statements that fail exact checking.

Runs the handful of instances where mechanical verification contradicts the
published statement and prints the witnesses, so the findings in the README
can be reproduced in a few seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from supercong.engine import verify_q  # noqa: E402
from supercong.padic import verify_padic_case  # noqa: E402
from supercong.registry import load_registry  # noqa: E402


def main() -> int:
    registry = load_registry()

    print("thm7 at d = 3: the (q^0;q^3)_k factor collapses the sum to the constant -1,")
    print("so the vanishing branch (n = 4 mod 6) cannot hold:")
    for n in (4, 10):
        r = verify_q(registry.get("thm7"), {"n": n, "d": 3})
        print(f"  thm7 d=3 n={n}: {r.status}, witness = {r.witness}")
    for n in (7, 13):
        r = verify_q(registry.get("thm7"), {"n": n, "d": 3})
        print(f"  thm7 d=3 n={n}: {r.status} (both sides are the constant -1)")

    print()
    print("lemma2 at d = 3: both base readings fail (the termwise q^n -> 1 transfer")
    print("passes through terms with poles at Phi_n, where it is not valid):")
    for cid in ("lemma2", "lemma2_qd"):
        for n in (5, 11):
            r = verify_q(registry.get(cid), {"n": n, "d": 3})
            witness = f", witness = {r.witness}" if r.witness is not None else ""
            print(f"  {cid} d=3 n={n}: {r.status}{witness}")

    print()
    print("lemma2 base-reading comparison at d = 4 (readings diverge from k = 2 on):")
    for cid in ("lemma2", "lemma2_qd"):
        for n in (7, 15):
            r = verify_q(registry.get(cid), {"n": n, "d": 4})
            print(f"  {cid} d=4 n={n}: {r.status}")

    print()
    print("thm7_1 Gamma branch: the rising-factorial/Gamma_p bridge carries a factor p,")
    print("so without it only p^2 of precision transfers (valuation 2, not 3):")
    for p in (5, 13):
        r = verify_padic_case(registry.get("thm7_1"), p)
        print(f"  thm7_1 p={p}: {r.status}, achieved valuation {r.valuation} (threshold 3)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
