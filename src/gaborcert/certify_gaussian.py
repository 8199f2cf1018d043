"""Closed-form certification of the Gaussian window near critical density.

For the standard Gaussian the density criterion is worst at omega = 1/2,
where the relevant sums run over half-integers.  Both are controlled by
elementary geometric series:

  numerator   S_0(1/2) =     sum exp(-2*pi*(k+1/2)^2)  >= 2*exp(-pi/2),
  denominator S_1(1/2) = sum (k+1/2)^2 exp(-2*pi*(k+1/2)^2)
                         <= exp(-pi/2)/2 + tail0 + 2*tail1,

with tail0 = sum_{k>=1} exp(-2*pi*(k+1/2)) and tail1 = sum_{k>=1} k *
exp(-2*pi*(k+1/2)).  The denominator bound uses that for x >= 3/2 one has
x * exp(-2*pi*x^2) <= exp(-2*pi*x) (equivalently x <= exp(2*pi*x*(x-1)),
clear since the exponent exceeds pi at x = 3/2 and grows), so each
quadratic-weight term with k >= 1 is dominated by the linear-weight
geometric term (k+1/2) * exp(-2*pi*(k+1/2)) = k*exp(...) + exp(...)/2.

The certified co-volume is then (1/2)*sqrt(numerator_lb/denominator_ub),
safely below the criterion's actual minimum but above 0.9985.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DivergentSeriesError, PreconditionError

TWO_PI = 2.0 * math.pi


def geometric_tail(c: float, m: int, weight: str = "1") -> float:
    """Closed form for sum_{k>=m} w(k) * exp(-c*(k+1/2)), c > 0.

    weight "1" uses w(k) = 1, weight "k" uses w(k) = k.  Requires an
    integer m >= 0; c <= 0 diverges.
    """
    if not (c > 0 and math.isfinite(c)):
        raise DivergentSeriesError(f"geometric tail needs c > 0, got {c!r}")
    if not isinstance(m, int) or m < 0:
        raise PreconditionError(f"tail start must be a nonnegative integer, got {m!r}")
    r = math.exp(-c)
    if weight == "1":
        # sum r^(k+1/2) = r^(m+1/2) / (1 - r)
        return math.exp(-c * (m + 0.5)) / -math.expm1(-c)
    if weight == "k":
        # sum k r^k = r^m (m - (m-1) r) / (1 - r)^2, shifted by the half step
        return math.exp(-0.5 * c) * r**m * (m - (m - 1) * r) / (1.0 - r) ** 2
    raise PreconditionError(f"weight must be '1' or 'k', got {weight!r}")


@dataclass(frozen=True)
class GaussianCertificate:
    """Certified lower bound on the Gaussian density criterion at omega = 1/2."""

    tail0: float
    tail1: float
    numerator_lb: float
    denominator_ub: float
    ratio_lb: float
    certified_delta: float

    def as_dict(self) -> dict:
        return asdict(self)


def gaussian_certificate() -> GaussianCertificate:
    """Build the closed-form certificate for the Gaussian window.

    ratio_lb bounds S_0(1/2)/S_1(1/2) from below; certified_delta is a
    float guaranteed below (1/2)*sqrt(ratio_lb) after rounding guards.
    """
    tail0 = geometric_tail(TWO_PI, 1, "1")  # = e^-pi / (e^(2 pi) - 1)
    tail1 = geometric_tail(TWO_PI, 1, "k")  # = e^pi / (e^(2 pi) - 1)^2
    numerator_lb = 2.0 * math.exp(-0.5 * math.pi)
    # k = 0 contributes exactly exp(-pi/2)/2; the k >= 1 half is dominated
    # termwise by the linear-weight series, twice for the two signs of k.
    denominator_ub = 0.5 * math.exp(-0.5 * math.pi) + tail0 + 2.0 * tail1
    ratio_lb = numerator_lb / denominator_ub
    value = 0.5 * math.sqrt(ratio_lb)
    # a 1e-14 relative haircut dwarfs the few-ulp rounding of the chain
    certified_delta = math.nextafter(value * (1.0 - 1e-14), 0.0)
    return GaussianCertificate(
        tail0=tail0,
        tail1=tail1,
        numerator_lb=numerator_lb,
        denominator_ub=denominator_ub,
        ratio_lb=ratio_lb,
        certified_delta=certified_delta,
    )
