"""The one floating-point error model of the certified skips, PAM's Gram bound and training's
margin bound: the standard one (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., §3.1).  With u = eps / 2, a rounded +, -, *, / or sqrt of floats is its exact result
times 1 + d, |d| <= u, unless it overflows or underflows, and k such factors lie within
gamma(k) = k u / (1 - k u) of 1.  So a sum of k terms, or a dot product or GEMM entry of
length k, in any order, lies within gamma(k) of exact relative to the sum of its terms'
magnitudes.  A product that underflows is off by at most 2**-1075 instead: where the sum
is at least SUM_RANGE[0], even 10**100 of them cost less than u times it, one more factor.
Bound arithmetic rounds too: at most 100 rounded +, *, / and sqrt of non-negative values,
times UP, give at least their exact result; the TINY a bound adds covers underflow.
"""

import math

import numpy as np

EPS = float(np.finfo(float).eps)
U = EPS / 2
# Sums of squares are used only here: nothing derived overflows, underflow costs below u.
SUM_RANGE = (1e-200, 1e200)
UP = 1.0 + 2.0**-40  # (1 - u)**-100 < UP (1 - u)
TINY = SUM_RANGE[0]
# Allowed per entry of numpy's float64 tanh (entries at most 1): a measured constant, not a
# proof; against 120-bit mpmath, numpy 2.4's tanh was within 1.2 ulp at 42,000 points.
TANH_ERR = 16 * EPS


def gamma(k: int) -> float:
    return k * U / (1.0 - k * U)


def dot_err(k: int) -> float:
    """How far a dot product, GEMM entry or sum of k terms lies from exact, relative to the
    sum of the terms' magnitudes, underflow included; below SUM_RANGE, TINY more."""
    return gamma(k + 1)


def sq_dist_err(n: int) -> float:
    """How far fl(sum(fl(a - b)**2)) lies from its exact value R >= SUM_RANGE[0], relative
    to R: n squares, dot_err(n), of differences each rounded once, two more factors."""
    return dot_err(n + 2)


def dist_range(s: float, n: int) -> tuple[float, float]:
    """(lo, hi): lo at most the exact distance of two n-vectors whose computed squared
    distance is at least s, hi at least that of two whose computed one is at most s.  The
    exact square lies in [s / (1 + g), s / (1 - g)], g = sq_dist_err(n), and 5 u covers the
    root, the quotient and g.  Below SUM_RANGE, (0, hi of SUM_RANGE[0]); above, (0, inf)."""
    if not s <= SUM_RANGE[1]:  # NaN too
        return 0.0, math.inf
    g = sq_dist_err(n) + 5 * U
    lo = math.sqrt(s * (1.0 - g)) if s >= SUM_RANGE[0] else 0.0
    return lo, math.sqrt(max(s, SUM_RANGE[0]) / (1.0 - g))


def clears(s: float, n: int, slack: float, reach: float) -> bool:
    """Whether two n-vectors, together within `slack` of two of computed squared distance s,
    compute one of at least a margin whose dist_range hi is `reach`: by the triangle inequality,
    when dist_range(s)'s lo is at least slack plus reach, 1 + 4 u making up for the rounding."""
    return dist_range(s, n)[0] >= (reach + slack) * (1.0 + 4 * U)


def norm_up(rows: np.ndarray) -> float:
    """An upper bound on the largest Euclidean norm of the rows of a 2-D array of width n:
    from the largest computed row sum of squares, within dot_err(n) in SUM_RANGE; below it,
    sqrt(n) times the largest magnitude; above it, or NaN, inf."""
    n = rows.shape[1]
    s = float(rows[0] @ rows[0] if len(rows) == 1 else np.einsum("ij,ij->i", rows, rows).max())
    if SUM_RANGE[0] <= s <= SUM_RANGE[1]:
        return math.sqrt(s / (1.0 - dot_err(n))) * UP
    if s < SUM_RANGE[0]:
        return (math.sqrt(n) * float(np.abs(rows).max()) + TINY) * UP
    return math.inf


def spectral_up(w: np.ndarray) -> float:
    """An upper bound on the spectral norm of `w`, never above `norm_up`'s Frobenius bound:
    by Gershgorin, its square is at most the largest absolute row sum of the Gram matrix G
    of w's shorter side.  An entry of G, of length k, is within gamma(k) of the same product
    over |w|, which add up along a row to at most c1 * cinf, the largest column and row sums
    of |w|.  With the Frobenius sum in SUM_RANGE, underflow costs less than u of it."""
    frobenius = norm_up(w.reshape(1, -1))
    if not frobenius < math.inf or float(np.einsum("ij,ij", w, w)) < SUM_RANGE[0]:
        return frobenius
    k, width = max(w.shape), min(w.shape)
    gram = w.T @ w if w.shape[1] == width else w @ w.T
    mag = np.abs(w)
    c1, cinf = float(mag.sum(axis=0).max()), float(mag.sum(axis=1).max())
    rows = float(np.abs(gram).sum(axis=1).max())
    top = (rows + gamma(2 * k) * c1 * cinf) / (1.0 - gamma(width + 1))
    return min(frobenius, math.sqrt(top) * UP)


def step_up(step: float, norm: float) -> float:
    """A bound on |dW|_F for the rounded `w -= g`, |g|_F <= step and |w|_F <= norm: each
    entry moves by g and the rounding of w - g, at most u |w - g|."""
    return (step * (1.0 + U) + U * norm) * UP


def outer_up(lr: float, a: float, b: float, size: int) -> float:
    """A bound on |fl(fl(x_i y_j) lr)|_F over `size` entries, |x| <= a and |y| <= b: two
    roundings per entry, and at most (lr + 1) 2**-1075 where they underflow."""
    return (lr * a * b + (lr + 1.0) * math.sqrt(size) * TINY) * UP


def sum_shrink(n: int) -> float:
    """A factor f: computed B times f is at most computed S, for exact sums B <= S of n
    non-negative terms, B within gamma(n + 1) and S, in any order, within gamma(n - 1)."""
    return 1.0 - gamma(2 * n + 4)


def gram_shrink(d: int) -> float:
    """1 - e, so that sq_i + sq_j - 2 G_ij - e (sq_i + sq_j), from the computed squared norms
    sq (in SUM_RANGE or 0) and Gram entry G of two d-vectors, is at most their computed
    squared distance: relative to sq_i + sq_j, the norms and G each err by dot_err(d), that
    distance by sq_dist_err(d) (it is at most twice the sum), and the rest by under 10 u."""
    return 1.0 - 2 * (dot_err(d) + sq_dist_err(d)) - 10 * U
