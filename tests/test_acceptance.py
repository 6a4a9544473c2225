"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line.  The checks live in equiflow.harness.suites so the CLI
(`equiflow verify <suite>`) runs exactly the same code.

Tolerances (pinned):
  1  sf grid partition vs crossing oracle, 200 paths ........ |d| <= 1e-8
  2  refinement invariance on the same corpus ............... |d| <= 1e-9
  3  Bott loop correspondence (Z_3, Z_5; k = 1..3; 4 seeded) |d| <= 1e-8
  4  winding properties, 100 paths .......................... |d| <= 1e-6
  5  Fredholm determinant multiplicativity, 50 pairs ........ rel <= 1e-6
  6  Maslov grid mode vs winding mode, 100 pairs ............ |d| <= 1e-8
  7  triple-index algebra, 50 triples ....................... |d| <= 1e-8
  8  zeta determinant vs det / route agreement, 50 ops ...... rel <= 1e-10
  9  Getzler formula + gradient check ....................... 1e-6 / 1e-5
 10  circle and interval eta closed forms ................... |d| <= 1e-3
 11  exponentiated eta identity (m=1 + 10 m=2 pairs) ........ |d| <= 1e-3
 12  eta splitting formula (baseline + 5 scenarios) ......... |d| <= 5e-3
 13  sf = Maslov = winding chain at Dirac scale ............. |d| <= 1e-6
 14  structural: Lagrangian 1e-12, Mellin 1e-6, lattice 1e-6
"""

import pytest

from equiflow.harness.suites import ACCEPTANCE_SEED, run_suite

CRITERIA = [
    (1, "sf_oracle"),
    (2, "sf_refinement"),
    (3, "bott_loops"),
    (4, "winding_props"),
    (5, "det_multiplicativity"),
    (6, "maslov_winding"),
    (7, "triple_symmetry"),
    (8, "zeta_det"),
    (9, "getzler"),
    (10, "dirac_closed_forms"),
    (11, "sw_identity"),
    (12, "split"),
    (13, "dirac_chain"),
    (14, "structural"),
]


@pytest.mark.parametrize("number,suite", CRITERIA, ids=[f"criterion_{n:02d}_{s}"
                                                        for n, s in CRITERIA])
def test_acceptance_criterion(number, suite):
    res = run_suite(suite, ACCEPTANCE_SEED)
    print(f"[criterion {number:2d}] {res.summary()}")
    assert res.passed, f"criterion {number} ({suite}) failed: {res.failures[:5]}"
