"""qdomains: computer algebra and numerical verification for q-deformed
polydisk and ball function algebras.

The package covers the q-scalar layer (q-integers, q-factorials,
q-Pochhammer products, monomial weights, word statistics), truncated
algebra elements with their products and lifts, the full family of
weighted power-series norms, finite-depth joint spectral radii, the
truncated twisted-CCR representation, the deformation layer (star
product, Poisson bracket, quantization defect, formal ball lift, fiber
scans), JSON interchange, a CLI, and named verification suites.
"""

from qdomains.deform_types import FormalFreeElement, HSeriesElement
from qdomains.elements import (
    FreeElement,
    LaurentElement,
    QPolynomial,
    ball_lift,
    fiber_eval,
    free_mul,
    homogeneous_component,
    laurent_mul,
    normal_order,
    polydisk_lift,
    qpoly_mul,
    tau_flip,
)
from qdomains.norms import NormSpec, classical_ball_sup_coeff, lambda_p_compare, norm, omega
from qdomains.qcombinat import (
    EnumerationCapExceeded,
    QParam,
    delta_word,
    fiber_count,
    fiber_words,
    inv_distribution,
    inversions,
    q_factorial,
    q_int,
    q_pochhammer_inf,
    switch_count,
    weight_ball,
    weight_polydisk,
    weight_u,
    word_profile,
    word_with_inversions,
)
from qdomains.spectral import TupleSpec, contractive_check, poincare_gap, radius_estimate

__version__ = "0.1.0"

# no compiled kernel is left; the flag stays only for perfbench/run.py,
# which reports it
USING_COMPILED = False

__all__ = [
    "USING_COMPILED",
    "__version__",
    "EnumerationCapExceeded",
    "QParam",
    "QPolynomial",
    "FreeElement",
    "LaurentElement",
    "HSeriesElement",
    "FormalFreeElement",
    "NormSpec",
    "TupleSpec",
    "q_int",
    "q_factorial",
    "q_pochhammer_inf",
    "weight_polydisk",
    "weight_u",
    "weight_ball",
    "word_profile",
    "fiber_count",
    "fiber_words",
    "delta_word",
    "inversions",
    "switch_count",
    "inv_distribution",
    "word_with_inversions",
    "qpoly_mul",
    "free_mul",
    "laurent_mul",
    "normal_order",
    "tau_flip",
    "polydisk_lift",
    "ball_lift",
    "fiber_eval",
    "homogeneous_component",
    "norm",
    "omega",
    "lambda_p_compare",
    "classical_ball_sup_coeff",
    "radius_estimate",
    "contractive_check",
    "poincare_gap",
]
