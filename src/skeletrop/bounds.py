"""Basepoint-freeness thresholds and section counts for adjoint bundles.

Pure integer arithmetic on the published bounds: the general threshold
``d(d+1)/2 + 1`` and the optimal conjectural value ``d + 1``, which is a
theorem in dimensions up to 4 and is refused beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._exact import at_least

__all__ = [
    "BoundQuery",
    "phi_upper_bound",
    "coordinate_count",
    "corollary_twist",
]

MODES = ("angehrn_siu", "fujita")
CASES = ("trivial_canonical", "ample_canonical")


@dataclass(frozen=True)
class BoundQuery:
    d: int
    ell: int = 1
    mode: str = "angehrn_siu"

    def __post_init__(self):
        at_least(self.d, 1, "dimension must be at least 1")
        at_least(self.ell, 1, "component count must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "fujita" and self.d > 4:
            raise ValueError("the optimal threshold is only known up to dimension 4")


def phi_upper_bound(q: BoundQuery) -> int:
    """Twist from which every adjoint bundle in dimension <= d is basepoint free."""
    if q.mode == "fujita":
        return q.d + 1
    return q.d * (q.d + 1) // 2 + 1


def coordinate_count(ell: int, d: int) -> int:
    """Number of sections used for the tropicalization: ell + d + 1.

    The tropical projective target has dimension one less.
    """
    at_least(ell, 1, "ell and d must be at least 1")
    at_least(d, 1, "ell and d must be at least 1")
    return ell + d + 1


def corollary_twist(d: int, case: str) -> int:
    """Least twist for a faithful tropicalization in the two special cases.

    ``trivial_canonical``: powers of an ample bundle on a variety with
    trivial canonical bundle, from d + 1.  ``ample_canonical``: powers of a
    relatively ample canonical bundle, from d + 2.  Only stated for d <= 4.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    at_least(d, 1, "dimension must be at least 1")
    if d > 4:
        raise ValueError("the special-case twists are only stated for dimension at most 4")
    return d + 1 if case == "trivial_canonical" else d + 2
