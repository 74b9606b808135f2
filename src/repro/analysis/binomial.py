"""Binomial ``pmf``, ``cdf``, ``sf`` and ``ppf`` on the standard library.

``pmf`` is Loader's saddle-point form (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000), precise for ``n`` in the
millions and in the far tails.  ``cdf`` and ``sf`` sum ``pmf`` over the
tail beyond the mode, so the small tail is never formed as ``1 - x``.
``ppf(q)`` is the smallest ``k`` with ``cdf(k) >= q``; ``ppf(0) = -1``.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = ["pmf", "cdf", "sf", "ppf"]

_LN_2PI = math.log(2.0 * math.pi)


def _check(n: int, p: float) -> None:
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p!r}")


def _stirlerr(n: int) -> float:
    """``log(n!) - log(sqrt(2 pi n) (n/e)^n)`` for integer ``n >= 1``."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * _LN_2PI
    nn = float(n) * n
    tail = (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn
    return (1 / 12 - (1 / 360 - tail) / nn) / n


def _bd0(x: float, mean: float, diff: float) -> float:
    """The deviance ``x log(x / mean) + mean - x``, by its series when
    ``x`` is near ``mean``.  The caller passes ``diff = x - mean``, which
    it can form without rounding ``mean`` first."""
    if abs(diff) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = diff / (x + mean)
    s = diff * v
    ej = 2.0 * x * v
    j = 3
    while True:
        ej *= v * v
        s1 = s + ej / j
        if s1 == s:
            return s1
        s = s1
        j += 2


def _pmf(k: int, n: int, p: float) -> float:
    q = 1.0 - p
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return float(k == 0)
    if q == 0.0:
        return float(k == n)
    if k == 0:
        return math.exp(-_bd0(n, n * q, n * p) - n * p if p < 0.1 else n * math.log(q))
    if k == n:
        return math.exp(-_bd0(n, n * p, n * q) - n * q if q < 0.1 else n * math.log(p))
    diff = k * q - (n - k) * p  # k - n p, free of cancellation
    log_core = (
        _stirlerr(n)
        - _stirlerr(k)
        - _stirlerr(n - k)
        - _bd0(k, n * p, diff)
        - _bd0(n - k, n * q, -diff)
    )
    log_scale = _LN_2PI + math.log(k) + math.log((n - k) / n)
    return math.exp(log_core - 0.5 * log_scale)


def pmf(k, n: int, p: float):
    """``P[X = k]``, elementwise when ``k`` is an integer array."""
    _check(n, p)
    if np.ndim(k):
        values = [_pmf(int(j), n, p) for j in np.asarray(k).ravel()]
        return np.array(values, dtype=float).reshape(np.shape(k))
    return _pmf(int(k), n, p)


def _tail(start: int, step: int, n: int, p: float) -> float:
    """``sum(pmf(j))`` for ``j = start, start + step, ...`` to the end of
    the support; ``start`` lies beyond the mode, so terms only shrink."""
    odds = p / (1.0 - p)
    terms: list[float] = []
    total = 0.0
    j = start
    while 0 <= j <= n:
        term = _pmf(j, n, p)
        if term == 0.0:
            break
        terms.append(term)
        total += term
        # The ratio of successive terms keeps shrinking too, so the rest
        # of the tail is at most term * ratio / (1 - ratio).
        ratio = (n - j) / (j + 1.0) * odds if step > 0 else j / (n - j + 1.0) / odds
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * total * 2.0**-60:
            break
        j += step
    return math.fsum(terms)


def _split(k, n: int, p: float) -> tuple[float, float]:
    """``(P[X <= k], P[X > k])``."""
    _check(n, p)
    k = math.floor(k)
    if k < 0 or (p == 1.0 and k < n):
        return 0.0, 1.0
    if k >= n or p == 0.0:
        return 1.0, 0.0
    if k < math.floor((n + 1) * p):
        lower = _tail(k, -1, n, p)
        return lower, 1.0 - lower
    upper = _tail(k + 1, 1, n, p)
    return 1.0 - upper, upper


def cdf(k, n: int, p: float) -> float:
    """``P[X <= k]``."""
    return _split(k, n, p)[0]


def sf(k, n: int, p: float) -> float:
    """``P[X > k]``."""
    return _split(k, n, p)[1]


def ppf(q: float, n: int, p: float) -> float:
    """The smallest ``k`` with ``cdf(k) >= q``."""
    _check(n, p)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    if q == 0.0:
        return -1.0
    if q == 1.0:
        return float(n)
    # cdf(n) = 1 >= q, so searching 0..n-1 and landing past the end is n.
    return float(bisect.bisect_left(range(n), True, key=lambda k: cdf(k, n, p) >= q))
