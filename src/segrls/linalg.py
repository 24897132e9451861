"""Dense symmetric linear algebra for the windowed estimator.

Factorizations, inverses and eigenvalues come from LAPACK through
numpy.linalg, with one exception: a rank-one update inverts its 1 x 1
capacitance as the Python float 1/u, the bits LAPACK gives for [[u]],
without the numpy.linalg.inv wrapper, which costs more than the division.
What this module adds is the one signed low-rank update the estimator runs
on, with an explicit conditioning check on its capacitance matrix, and the
chained rank-one comparator it is measured against.  For r >= 2 the check's
estimate, two ``numpy.linalg.norm`` calls, is computed only when a cheap
bound, from the largest absolute entry of U^{-1} and W, cannot rule out the
limit; the results and the error texts are those of the exact check.  The
update is one private core, ``_woodbury``, behind the public
``batch_inverse_update``: the public function checks its arguments and builds
D = diag(signs), then runs the core; the core checks nothing but the
capacitance conditioning.  The estimator checks its template once at
construction and calls the core on every step, so A3 and A8, which call the
public function, test the arithmetic the estimator runs.  The
verification oracles stay independent of this path through their algorithm,
not their library: they assemble the weighted normal equations directly
instead of recursively, and invert in long double by Gauss-Jordan.

The core forms its products with ``ndarray.dot``, not ``np.dot`` or ``@``:
on the 35 x r operands of a step all three reach the same BLAS gemm or gemv,
so the bits are the same, but the method skips the array-function
dispatch of ``np.dot`` and the matmul ufunc's, which cost more than the
arithmetic at these sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, SingularUpdateError

# Relative tolerance of the update checks: a capacitance condition estimate
# above 1/PIVOT_RTOL, or a rank-one denominator below PIVOT_RTOL, is singular.
PIVOT_RTOL = 1e-12

# Below this eigenvalue magnitude a matrix is reported as numerically singular.
SINGULAR_FLOOR = 1e-300


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2; cheap defense against round-off asymmetry drift.

    ``a`` is one matrix or a stack of them, transposed over its last two axes.
    Summed in place on a copy of A^T: the same bits (IEEE addition commutes).
    """
    s = a.swapaxes(-1, -2).copy()
    s += a
    s *= 0.5
    return s


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def batch_inverse_update(b_inv, q, signs) -> np.ndarray:
    """Inverse of A = B + Q D Q^T from B^{-1}, D = diag(signs), in one pass.

    ``q`` holds the correction columns (n x r), ``signs`` the +/-1 signature.
    By the matrix inversion lemma A^{-1} = B^{-1} - V U^{-1} V^T with
    V = B^{-1} Q and the r x r capacitance matrix U = D + Q^T V, which is
    inverted once; no per-column iteration takes place.

    Raises SingularUpdateError when U is singular or its condition estimate
    ||U^{-1}||_1 (||D||_1 + ||Q^T V||_1) exceeds 1/PIVOT_RTOL: rank collapse,
    or an invalid window transition.  Measuring against the size of both
    terms of U, not U itself, catches cancellation between them.  The
    estimate is computed exactly only when r m (1 + r m), m the largest
    absolute entry of U^{-1} and W, does not clear half that limit; so the
    result and the error text are those of the exact check.

    The arguments are checked on every call, each misfit a ValueError: a
    square B^{-1}, at least one column and one +/-1 signature entry per
    column.  The arithmetic is ``_woodbury``, which the estimator calls
    without these checks.
    """
    b_inv, q, signs = _checked_update(b_inv, q, signs)
    return _woodbury(b_inv, q, np.diag(signs), None, None)


def _checked_update(b_inv, q, signs):
    """(B^{-1}, Q, signs) as float arrays, Q (n x r), r >= 1; a ValueError unless they fit."""
    b_inv = _as_square(b_inv)
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    signs = np.asarray(signs, dtype=float).ravel()
    if q.shape[0] != b_inv.shape[0]:
        raise ValueError("column dimension does not match the matrix order")
    if q.shape[1] == 0:
        raise ValueError("at least one correction column is required")
    if q.shape[1] != signs.size:
        raise ValueError("one signature entry is required per column")
    if not set(signs.tolist()) <= {1.0, -1.0}:
        raise ValueError("signature entries must be +1 or -1")
    return b_inv, q, signs


def _woodbury(b_inv, q, d, theta, y):
    """batch_inverse_update on checked arguments: D = diag(signs) is given as a matrix.

    Returns A^{-1}, or (A^{-1}, theta') when ``theta`` (n,) or (n, B) solves
    B theta = b and ``y`` (r,) or (r, B) holds the values entering with the
    columns: theta' = theta + V U^{-1} (y - Q^T theta) solves A theta' = b + Q D y.
    Raises SingularUpdateError as batch_inverse_update does; nothing else is
    checked.
    """
    # ndarray.dot, not np.dot or @: the same BLAS calls without the
    # array-function or matmul ufunc dispatch
    qt = q.T
    v = b_inv.dot(q)                                # B^{-1} Q
    if q.shape[1] == 1:
        # rank one: 1/u is the LAPACK inverse of [[u]] and the two 1-norms are
        # absolute values, bit for bit, nan and inf included; Python float
        # division, as it neither warns nor raises on a subnormal u
        u_inv = qt.dot(v)                           # W, overwritten by U^{-1}
        w = u_inv.item()
        u = w + d.item()
        if u == 0.0:
            raise SingularUpdateError("capacitance matrix is singular")
        u_inv[0, 0] = inv = 1.0 / u
        cond = abs(inv) * (1.0 + abs(w))
    else:
        # U^{-1} and W = Q^T B^{-1} Q side by side, for one pass of norm reductions
        pair = np.empty((2, q.shape[1], q.shape[1]))
        w = qt.dot(v, out=pair[1])
        try:
            u_inv = np.linalg.inv(w + d)            # U = D + W
        except np.linalg.LinAlgError:
            raise SingularUpdateError("capacitance matrix is singular") from None
        pair[0] = u_inv
        cond = _capacitance_guard(pair)
    if not cond <= 1.0 / PIVOT_RTOL:
        raise SingularUpdateError(
            f"capacitance condition estimate {cond:.3e} above {1.0 / PIVOT_RTOL:.0e}"
        )
    t = v.dot(u_inv.dot(v.T))
    gamma = symmetrize(np.subtract(b_inv, t, out=t))
    if theta is None:
        return gamma
    return gamma, theta + v.dot(u_inv.dot(y - qt.dot(theta)))


def _capacitance_guard(pair) -> float:
    """||U^{-1}||_1 (1 + ||W||_1) from the (2, r, r) stack of U^{-1} and W, or a bound on it.

    Each 1-norm is at most r m, m the largest absolute entry of the stack, so
    r m (1 + r m) is never below the estimate.  When that bound is below half
    the limit, which leaves room for the round-off of both, it stands in for
    the estimate; otherwise, nan and inf included, the two norms are computed.
    """
    rm = pair.shape[1] * float(np.maximum.reduce(np.abs(pair), None))
    bound = rm * (1.0 + rm)
    if bound < 0.5 / PIVOT_RTOL:
        return bound
    return float(np.linalg.norm(pair[0], 1)) * (1.0 + float(np.linalg.norm(pair[1], 1)))


def chain_sherman_morrison(b_inv, q, signs) -> np.ndarray:
    """Same update as batch_inverse_update, applied one rank-one step at a time.

    Comparator for round-off accumulation experiments; each step divides by
    1 + s * x^T A^{-1} x and reuses the intermediate inverse.  Raises
    SingularUpdateError when a denominator falls below tolerance or is not
    finite, and ValueError for arguments batch_inverse_update refuses.
    """
    b_inv, q, signs = _checked_update(b_inv, q, signs)
    a_inv = b_inv.copy()
    for j in range(q.shape[1]):
        x = q[:, j]
        s = signs[j]
        u = a_inv @ x
        quad = float(x @ u)
        den = 1.0 + s * quad
        # written so that a nan or infinite denominator fails it too
        if not PIVOT_RTOL * max(1.0, abs(quad)) <= abs(den) < math.inf:
            raise SingularUpdateError(
                f"rank-one denominator {den:.3e} below tolerance at column {j}"
            )
        a_inv -= (s / den) * np.outer(u, u)
    return symmetrize(a_inv)


def spd_inverse(a) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Raises NotPositiveDefiniteError when the factorization meets a
    non-positive pivot.
    """
    a = _as_square(a)
    try:
        low_inv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed: {err}") from None
    return symmetrize(low_inv.T @ low_inv)


def condition_number(a) -> float:
    """Ratio of extreme eigenvalue magnitudes; +inf for numerically singular input.

    Eigenvalues come from the symmetric solver, which reads the lower triangle.
    """
    eigs = np.abs(np.linalg.eigvalsh(_as_square(a)))
    amin = float(np.min(eigs))
    amax = float(np.max(eigs))
    if amin < SINGULAR_FLOOR:
        return math.inf
    return amax / amin
