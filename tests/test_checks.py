import numpy as np
import pytest

from symmflow.checks import ambient_step, identity_suite, run_all
from symmflow.tableau import builtin_tableau

# Every check `symmflow check` runs, in order, with its bound: a check that
# is dropped, renamed or re-bounded fails here. The transport checks are
# measured in units of their inputs' round-off, hence the bound 1.
INVENTORY = [
    ("identity", "sphere Exp(0) = base", 0.0),
    ("identity", "hyperbolic Exp(0) = base", 0.0),
    ("identity", "sphere transport/dexpinv at 0", 1.0),
    ("identity", "hyperbolic transport/dexpinv at 0", 1.0),
    ("identity", "sphere reflection composition", 1e-12),
    ("identity", "hyperbolic boost factorization", 1e-10),
    ("identity", "hyperbolic Q = boost squared", 1e-10),
    ("identity", "spd stage pullback composition", 1e-12),
    ("identity", "zero-field fixed points", 0.0),
    ("identity", "spd zero-field fixed point", 1e-12),
    ("lts", "sphere alternating", 1e-12),
    ("lts", "sphere cyclic", 1e-12),
    ("lts", "sphere derivation", 1e-12),
    ("lts", "hyperbolic alternating", 1e-12),
    ("lts", "hyperbolic cyclic", 1e-12),
    ("lts", "hyperbolic derivation", 1e-12),
    ("lts", "spd alternating", 1e-12),
    ("lts", "spd cyclic", 1e-12),
    ("lts", "spd derivation", 1e-12),
    ("oracle", "sphere Exp vs matrix exponential", 1e-12),
    ("oracle", "sphere triple vs commutators", 1e-12),
    ("oracle", "sphere dexpinv round trip", 1e-13),
    ("oracle", "hyperbolic Exp vs matrix exponential", 1e-12),
    ("oracle", "hyperbolic triple vs commutators", 1e-12),
    ("oracle", "hyperbolic dexpinv round trip", 1e-13),
    ("oracle", "closed dexpinv vs 6-term series", 1e-9),
    ("oracle", "spd double bracket in eigenbasis", 1e-13),
    ("oracle", "stepper vs ambient step (sphere)", 1e-13),
    ("oracle", "stepper vs ambient step (hyperbolic)", 1e-13),
    ("oracle", "stepper vs ambient step (spd)", 1e-10),
]


def test_check_inventory():
    assert [(r.suite, r.name, r.bound) for r in run_all(0)] == INVENTORY


def test_identities_hold_at_every_seed():
    # The transport checks' bound is in units of the drawn tangent's own
    # round-off, so a correct reflection passes whatever the seed.
    failing = [(seed, r) for seed in range(41) for r in identity_suite(seed) if not r.passed]
    assert not failing, failing


def test_ambient_step_refuses_implicit_tableaus():
    with pytest.raises(ValueError, match="explicit tableaus only"):
        ambient_step(
            "sphere", builtin_tableau("implicit_midpoint"), lambda p: np.zeros_like(p),
            np.array([0.0, 0.0, 1.0]), 0.1,
        )
