"""Distribution diagnostics for HPC event values (paper Fig. 3).

The profiler's Gaussian modelling is justified empirically: per-secret
event values look normal in a histogram and lie on the Q-Q line. These
helpers produce the same diagnostics.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def gaussian_fit(values: np.ndarray) -> tuple[float, float]:
    """(mu, sigma) maximum-likelihood Gaussian fit."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 values to fit a Gaussian")
    return float(values.mean()), float(values.std())


def qq_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-quantile points against N(0, 1) (paper Fig. 3b).

    Returns (theoretical quantiles, standardized sample quantiles); a
    normal sample lies on the y = x line.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 3:
        raise ValueError("need at least 3 values for a Q-Q plot")
    mu, sigma = gaussian_fit(values)
    if sigma == 0:
        raise ValueError("degenerate sample: zero variance")
    standardized = np.sort((values - mu) / sigma)
    probs = (np.arange(1, values.size + 1) - 0.5) / values.size
    inv_cdf = NormalDist().inv_cdf
    theoretical = np.array([inv_cdf(p) for p in probs.tolist()])
    return theoretical, standardized


def shapiro_francia_w(values: np.ndarray) -> float:
    """Shapiro-Francia W': squared correlation of the Q-Q points.

    Close to 1 for normal samples — a scalar summary of how straight
    the Q-Q plot is.
    """
    theoretical, sample = qq_points(values)
    rho = np.corrcoef(theoretical, sample)[0, 1]
    return float(rho * rho)
