"""The least-squares kernel behind onset trends and the ensemble bias
correction, against exact normal equations on small integer data, and
two metamorphic checks of the onset trend: a shift of every onset, and a
reordering of the years.

How far the float fit may stray, derived before the first run
--------------------------------------------------------------
`trends.ols` computes, in this order, with u = 2**-53 the unit roundoff:

    m   = fl(sum(x) / n)                 c_i = fl(x_i - m)
    b   = fl(fl(sum c_i y_i) / D)        D   = fl(sum c_i**2)
    a   = fl(fl(sum(y) / n) - fl(b m))
    r_i = fl(y_i - fl(fl(b x_i) + a))
    s   = sqrt(fl(fl(sum r_i**2 / (n - 2)) / D))

The data are integers below 2**13 in magnitude and n <= 40, so every input
and every sum of inputs is exact. Every other operation rounds with relative
error at most u, and a sum of k terms, added in any order (numpy adds
pairwise), errs by at most g_k = k u / (1 - k u) times the sum of the terms'
magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
sections 3.1 and 4.2). Write M, d_i = x_i - M, S = sum d_i**2, B, A, the
residuals R_i and V = SSR / ((n - 2) S) for the exact values of the
reference. To first order in u:

- the mean: m = M + e with |e| <= u |M|.
- the numerator: c_i = (d_i - e)(1 + t_i) with |t_i| <= u, so it errs by at
  most u |M| sum|y_i| (from e) plus g_(n+1) sum |d_i| |y_i| (from t_i, the
  products and the sum).
- the denominator: sum (d_i - e)**2 = S + n e**2, because sum d_i = 0; with
  the rounding of the squares and the sum, D = S (1 + h) with
  |h| <= g_(n+2) + n u**2 M**2 / S.
- the slope: db = (numerator error) / S + |B| (h + u), the u for the division.
- the intercept: the mean of y errs by u |ybar|, the product b m by
  db |M| + 2 u |B M|, and the difference rounds by u (|ybar| + |B M|), so
  da = db |M| + 2 u |ybar| + 3 u |B M|.
- each residual: fl(b x_i) errs by db |x_i| + u |B x_i|, adding a by
  da + u |B x_i + A|, and the subtraction rounds by u |R_i|; call the sum p_i.
- the residual sum of squares: sum (R_i + q_i)**2 with |q_i| <= p_i errs by
  E = sum (2 |R_i| p_i + p_i**2), and its rounding by g_n (SSR + E).
- the squared stderr: W = (E + g_n (SSR + E)) / ((n - 2) S) + V (h + 2 u),
  the 2 u for the two divisions.
- the stderr: |sqrt(V + w) - sqrt(V)| <= min(sqrt(W), W / sqrt(V)) for
  |w| <= W, and the square root rounds by u (sqrt(V) + sqrt(W)).

Each bound is then doubled to cover the dropped second-order terms. The
reference stderr sqrt(V) is itself rounded once (math.sqrt of the nearest
float to V), which adds 2 u sqrt(V).
"""

from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import exact_ols

from shoulderseason.projection import EnsembleAnnualStats, fit_bias_correction
from shoulderseason.trends import linear_trend

U = 2.0**-53


def _g(k: int) -> float:
    return k * U / (1 - k * U)


def ols_tolerances(
    points: list[tuple[int, int]], slope: Fraction, intercept: Fraction, var: Fraction
) -> tuple[float, float, float]:
    """Bounds on the float slope, intercept and stderr errors (module docstring)."""
    n = len(points)
    mean_x = sum(Fraction(x) for x, _ in points) / n
    mean_y = float(sum(Fraction(y) for _, y in points) / n)
    d = [float(x - mean_x) for x, _ in points]
    s = float(sum((x - mean_x) ** 2 for x, _ in points))
    b, a, m, v = float(slope), float(intercept), float(mean_x), float(var)
    y_abs = [abs(y) for _, y in points]

    numerator = U * abs(m) * sum(y_abs)
    numerator += _g(n + 1) * sum(abs(di) * yi for di, yi in zip(d, y_abs))
    h = _g(n + 2) + n * U**2 * m**2 / s
    db = numerator / s + abs(b) * (h + U)
    da = db * abs(m) + 2 * U * abs(mean_y) + 3 * U * abs(b * m)

    residuals = [float(y - slope * x - intercept) for x, y in points]
    p = [
        db * abs(x) + da + U * (abs(b * x) + abs(b * x + a) + abs(r))
        for (x, _), r in zip(points, residuals)
    ]
    ssr_err = sum(2 * abs(r) * pi + pi**2 for r, pi in zip(residuals, p))
    ssr = sum(r * r for r in residuals)
    w = (ssr_err + _g(n) * (ssr + ssr_err)) / ((n - 2) * s) + v * (h + 2 * U)
    ds = min(math.sqrt(w), w / math.sqrt(v)) if v > 0 else math.sqrt(w)
    ds += U * (math.sqrt(v) + math.sqrt(w))
    return 2 * db, 2 * da, 2 * ds + 2 * U * math.sqrt(v)


@st.composite
def integer_points(draw) -> list[tuple[int, int]]:
    """3 to 40 points: x near an origin, as years or temperatures are; y small."""
    origin = draw(st.integers(-2048, 2048))
    point = st.tuples(st.integers(origin, origin + 64), st.integers(-512, 512))
    return draw(st.lists(point, min_size=3, max_size=40))


@settings(max_examples=300, deadline=None)
@given(points=integer_points())
def test_linear_trend_and_bias_correction_match_exact_ols(points) -> None:
    # The bias correction fits observed (y) on ensemble means (x), one year each.
    observed = {year: float(y) for year, (_, y) in enumerate(points)}
    ensemble = [EnsembleAnnualStats(year, float(x), 0.0) for year, (x, _) in enumerate(points)]
    try:
        slope, intercept, var = exact_ols(points)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate abscissae"):
            linear_trend(points)
        with pytest.raises(ValueError, match="degenerate ensemble variance"):
            fit_bias_correction(observed, ensemble)
        return
    tol_slope, tol_intercept, tol_stderr = ols_tolerances(points, slope, intercept, var)

    trend = linear_trend(points)
    assert abs(Fraction(trend.slope) - slope) <= tol_slope
    assert abs(Fraction(trend.intercept) - intercept) <= tol_intercept
    assert abs(trend.slope_stderr - math.sqrt(var)) <= tol_stderr

    correction = fit_bias_correction(observed, ensemble)
    assert abs(Fraction(correction.gain) - slope) <= tol_slope
    assert abs(Fraction(correction.offset) - intercept) <= tol_intercept


@settings(max_examples=300, deadline=None)
@given(points=integer_points(), k=st.integers(-512, 512))
def test_shifting_every_onset_moves_only_the_intercept(points, k: int) -> None:
    # Exactly, adding k days to every y leaves the slope and its stderr
    # alone and adds k to the intercept. Each float fit lies within the
    # bounds above of its own exact values (y + k stays below 2**13), so
    # the two fits differ by at most the sum of their bounds.
    shifted = [(x, y + k) for x, y in points]
    try:
        exact = [exact_ols(p) for p in (points, shifted)]
    except ValueError:
        return  # every x the same: the test above covers the refusal
    tolerances = [ols_tolerances(p, *e) for p, e in zip((points, shifted), exact)]
    (ds0, da0, de0), (ds1, da1, de1) = tolerances
    base, moved = linear_trend(points), linear_trend(shifted)
    assert abs(Fraction(moved.slope) - Fraction(base.slope)) <= ds0 + ds1
    assert abs(Fraction(moved.intercept) - Fraction(base.intercept) - k) <= da0 + da1
    assert abs(Fraction(moved.slope_stderr) - Fraction(base.slope_stderr)) <= de0 + de1


@settings(max_examples=300, deadline=None)
@given(points=integer_points(), data=st.data(), auto_exclude=st.booleans())
def test_reordering_the_years_changes_nothing(points, data, auto_exclude: bool) -> None:
    # One y per year, as onsets are, given as pairs in any order.
    by_year = {float(x): float(y) for x, y in points}
    assume(len(by_year) >= 3)
    pairs = list(by_year.items())
    shuffled = data.draw(st.permutations(pairs))
    want = repr(astuple(linear_trend(pairs, auto_exclude=auto_exclude)))
    assert repr(astuple(linear_trend(shuffled, auto_exclude=auto_exclude))) == want
