"""Normal forms, formal integrals, and asymptotics for magnetic-bottle Hamiltonians.

The package builds Lie-series normal forms (non-resonant and resonant) for
axisymmetric magnetic-bottle Hamiltonians on the zero angular momentum
manifold, back-transforms the formal integrals to the original variables,
compares their level sets against numerically integrated Poincare sections,
and measures the asymptotic (optimal order, exponentially small remainder)
behavior of the normalization.
"""

__version__ = "0.1.0"

from .polyalg import (
    CanonicalPolynomial,
    ExponentKey,
    evaluate,
    lie_transform,
    poisson_bracket,
    substitute_pairs,
    to_records,
)

__all__ = [
    "__version__",
    "CanonicalPolynomial",
    "ExponentKey",
    "evaluate",
    "lie_transform",
    "poisson_bracket",
    "substitute_pairs",
    "to_records",
]
