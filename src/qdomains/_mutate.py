"""Fault-injection hook for the mutation smoke test.

Setting QDOMAINS_MUTATE=<name> before interpreter start perturbs exactly
one named formula by a relative 1e-6; the matching verification suite must
then fail.  Inactive (the default) every call is the identity.
"""

import math
import os

_BUMP = 1.0 + 1e-6
_LOG_BUMP = math.log(_BUMP)

_active = os.environ.get("QDOMAINS_MUTATE", "")

MUTATION_POINTS = (
    "weight-polydisk",
    "weight-ball",
    "mahonian-closed-form",
    "omega",
    "fock-generator",
    "star-phase",
    "normal-order-phase",
    "qpoly-phase",
    "formal-order-phase",
    "formal-lift-coefficient",
    "ball-lift-coefficient",
    "polydisk-lift-coefficient",
)


def scale(name, value):
    """Multiply value by (1 + 1e-6) when the named mutation is active."""
    if name == _active:
        return value * _BUMP
    return value


def shift_logs(name, logs):
    """Add log(1 + 1e-6) to every log value in the list logs when the named
    mutation is active, which scales each value they stand for by 1 + 1e-6."""
    if name == _active:
        return [v + _LOG_BUMP for v in logs]
    return logs
