"""Test-side helpers: a design-row reader over `Dataset.iter_design_blocks`
and the truncated Gaussian second moment, which only tests evaluate."""

import math

import numpy as np

from mixsense.errors import InvalidInputError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def stacked_rows(dataset, indices) -> np.ndarray:
    """Design rows of the given samples, stacked from every block the
    dataset yields."""
    return np.vstack([rows for _, _, rows in dataset.iter_design_blocks()])[indices]


def std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def truncated_gaussian_second_moment(x: float) -> float:
    """Integral of t^2 phi(t) for t in [-x, x], phi the standard normal pdf.

    Closed form ``erf(x / sqrt(2)) - 2 x phi(x)``; nondecreasing in x with
    limit 1 as x grows.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise InvalidInputError(f"argument must be finite and >= 0, got {x}")
    return math.erf(x / math.sqrt(2.0)) - 2.0 * x * std_normal_pdf(x)
