"""The stdlib binomial helper, pinned against a table made with scipy 1.17.1.

``binomial_table.json`` holds ``[function, k_or_q, n, p, value]`` rows
over the ``(n, p, k/q)`` ranges the analysis modules use: the victim
cache (n=16), word-disabling half-blocks (n=8), bit-fix pairs (n=256),
block capacity (n=512), SECDED words (n=39) and a million-bit word for
the large-``n`` path, with ``p = 0``, ``p = 1`` and ``ppf`` at ``q``
near 0 and 1.  The table was generated once, so this test needs no
scipy::

    import json
    from scipy.stats import binom

    P = (0.0, 1e-9, 1e-6, 1e-4, 1e-3, 0.0123, 0.1, 0.42, 0.5, 0.58,
         0.9, 0.999, 1 - 1e-9, 1.0)
    Q = (0.0, 1e-9, 1e-3, 0.05, 0.2, 0.5, 0.95, 0.999, 1 - 1e-9, 1.0)
    rows = []
    for n, ks in ((8, range(-1, 10)), (16, range(-1, 18)),
                  (39, (0, 1, 2, 5, 38, 39)),
                  (256, (0, 1, 5, 10, 11, 30, 128, 200, 255, 256)),
                  (512, (0, 100, 256, 297, 300, 350, 400, 511, 512)),
                  (10**6, (0, 1, 2, 1000, 999_999))):
        for p in P:
            for k in ks:
                for fn in ("pmf", "cdf", "sf"):
                    value = float(getattr(binom, fn)(k, n, p))
                    rows.append([fn, k, n, p, value])
            if n <= 512:
                for q in Q:
                    rows.append(["ppf", q, n, p, float(binom.ppf(q, n, p))])
    with open("binomial_table.json", "w") as out:
        json.dump(rows, out)
"""

import json
import math
import os

import numpy as np
import pytest

from repro.analysis import binomial

TABLE = os.path.join(os.path.dirname(__file__), "binomial_table.json")

with open(TABLE) as handle:
    ROWS = json.load(handle)


def test_table_covers_every_function_and_edge():
    functions = {row[0] for row in ROWS}
    assert functions == {"pmf", "cdf", "sf", "ppf"}
    probabilities = {row[3] for row in ROWS}
    assert {0.0, 1.0} <= probabilities
    quantiles = {row[1] for row in ROWS if row[0] == "ppf"}
    assert {0.0, 1e-9, 1 - 1e-9, 1.0} <= quantiles
    assert max(row[2] for row in ROWS) >= 10**6


@pytest.mark.parametrize("fn", ["pmf", "cdf", "sf"])
def test_matches_pinned_table(fn):
    mismatches = []
    for name, k, n, p, expected in ROWS:
        if name != fn:
            continue
        got = getattr(binomial, fn)(k, n, p)
        if not math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-300):
            mismatches.append((k, n, p, got, expected))
    assert not mismatches


def test_ppf_matches_pinned_table_exactly():
    mismatches = [
        (q, n, p, binomial.ppf(q, n, p), expected)
        for name, q, n, p, expected in ROWS
        if name == "ppf" and binomial.ppf(q, n, p) != expected
    ]
    assert not mismatches


def test_pmf_accepts_arrays():
    x = np.arange(17)
    values = binomial.pmf(x, 16, 0.58)
    assert isinstance(values, np.ndarray)
    assert values.shape == (17,)
    assert values.sum() == pytest.approx(1.0, abs=1e-14)
    assert values[5] == binomial.pmf(5, 16, 0.58)
    assert binomial.pmf(np.arange(6).reshape(2, 3), 5, 0.5).shape == (2, 3)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial.pmf(0, 4, 1.5)
    with pytest.raises(ValueError):
        binomial.cdf(0, -1, 0.5)
    with pytest.raises(ValueError):
        binomial.ppf(1.5, 4, 0.5)
