"""Empirical scaling-law estimation.

The paper's guarantees are power laws — the overhead of Theorem 1 scales
like ``D^2``, the urn game like ``k log k``, BFDN_ell's depth term like
``D^{1+1/ell}`` — so the quantitative reproduction fits measured series
with log-log least squares and checks the exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass
class PowerLawFit:
    """``y ~ coefficient * x^exponent`` fitted on log-log axes."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Fitted value at ``x``."""
        return self.coefficient * x**self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``log y = a log x + b``.

    Points with non-positive coordinates are rejected (they have no
    log-log image).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fitting needs positive data")
    lx = [math.log(float(x)) for x in xs]
    ly = [math.log(float(y)) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    sxx = sum((x - mean_x) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("power-law fitting needs at least two distinct x")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - mean_y) ** 2 for y in ly)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        r_squared=r_squared,
    )

