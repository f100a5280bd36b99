"""Symmetric positive definite block-tridiagonal solves by cyclic reduction.

The systems are those of the solver's Newton step in node coordinates: m
diagonal blocks D_k (n x n), upper blocks U_k = A[k, k+1] (the lower ones
are their transposes) and optionally a corner block C = A[0, m-1] that
couples the first and last node, as an endpoint cost or set does.  Blocks
are stored last, (n, n, m): every entry of a block is then one contiguous
vector, and the batched n x n products and inverses run as a few vector
operations per entry, where numpy's stacked matmul and inv pay per small
matrix.

Cyclic reduction (Heller, SIAM J. Numer. Anal. 13, 1976) eliminates every
odd block in one batched step, which leaves a block-tridiagonal system on
the even blocks; about log2(m / 16) levels leave a system small enough
for one dense Cholesky factorization.  Each level is a few batched numpy
calls on (n, n, m/2) stacks, so the cost does not grow with a Python loop
over blocks.  The eliminated diagonal blocks are the pivots of a block
LDL^T factorization in the cyclic order, so the matrix is positive
definite exactly when every pivot block and the final dense system are.
Each pivot block is inverted by Gauss-Jordan elimination, whose scalar
pivots are positive exactly when the block is positive definite; a pivot
that is not positive raises numpy.linalg.LinAlgError, as the dense
Cholesky factorization does.

A corner block enters as a rank-2n Woodbury correction of the tridiagonal
part T: with Z = [e_0, e_{m-1}] (x) I and K = [[0, C], [C^T, 0]],
A = T + Z K Z^T is positive definite iff T is and S^-1 + K is, where
S = Z^T T^-1 Z, and A^-1 b = y - T^-1 Z S^-1 (u - (S^-1 + K)^-1 S^-1 u)
with y = T^-1 b and u = Z^T y.
"""

from __future__ import annotations

import numpy as np


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ikm,kjm->ijm", A, B)


def _mtm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T B blockwise."""
    return np.einsum("kim,kjm->ijm", A, B)


def _spd_inverse(D: np.ndarray) -> np.ndarray:
    """Inverses of the symmetric blocks D (n, n, m) by Gauss-Jordan
    elimination without pivoting, whose pivots are those of the LDL^T
    factorization: raises LinAlgError unless every one is positive, that
    is, unless every block is positive definite."""
    n = D.shape[0]
    M = D.copy()
    inv = np.zeros_like(M)
    for i in range(n):
        pivot = M[i, i].copy()
        if not (pivot > 0.0).all():
            raise np.linalg.LinAlgError("a pivot is not positive")
        # row i of [M | inv] over the pivot, then cleared from the other
        # rows; columns of M left of i+1 and of inv right of i stay as
        # they are (unit columns and zeros)
        inv[i, i] = 1.0
        M[i, i + 1 :] /= pivot
        inv[i, : i + 1] /= pivot
        f = M[:, i].copy()
        f[i] = 0.0
        M[:, i + 1 :] -= f[:, None] * M[i, i + 1 :]
        inv[:, : i + 1] -= f[:, None] * inv[i, : i + 1]
    return inv


def _dense_solve(D: np.ndarray, U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve a small block-tridiagonal system through its dense Cholesky
    factor (LinAlgError unless positive definite)."""
    n, r, m = B.shape
    A = np.zeros((m, n, m, n))
    k = np.arange(m)
    A[k, :, k, :] = D.transpose(2, 0, 1)
    A[k[:-1], :, k[1:], :] = U.transpose(2, 0, 1)
    A[k[1:], :, k[:-1], :] = U.transpose(2, 1, 0)
    A = A.reshape(m * n, m * n)
    np.linalg.cholesky(A)  # positive definite, or LinAlgError
    x = np.linalg.solve(A, B.transpose(2, 0, 1).reshape(m * n, r))
    return x.reshape(m, n, r).transpose(1, 2, 0)


# below this many blocks a dense factorization costs less than the numpy
# calls of the remaining reduction levels
_DENSE_BLOCKS = 16


def _cyclic_reduction(D: np.ndarray, U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system (D, U) for the right-hand sides
    B (n, r, m).  Each level keeps only what its back substitution reads:
    the inverted pivots, the couplings and the right-hand sides of its odd
    blocks."""
    levels = []
    while D.shape[2] > _DENSE_BLOCKS:
        Dinv = _spd_inverse(D[..., 1::2])  # the pivots of this level
        # contiguous copies of the strided halves: einsum is several times
        # slower on strided operands
        left = U[..., 0::2].copy()  # A[2j, 2j+1]: each odd block's left coupling
        right = U[..., 1::2].copy()  # A[2j+1, 2j+2]: its right one, if any
        B_odd = B[..., 1::2].copy()
        mo, mr = Dinv.shape[2], right.shape[2]
        P = _mm(left, Dinv)
        Q = _mtm(right, Dinv[..., :mr])
        D_even = D[..., 0::2].copy()
        D_even[..., :mo] -= np.einsum("ikm,jkm->ijm", P, left)
        D_even[..., 1 : 1 + mr] -= _mm(Q, right)
        B_even = B[..., 0::2].copy()
        B_even[..., :mo] -= _mm(P, B_odd)
        B_even[..., 1 : 1 + mr] -= _mm(Q, B_odd[..., :mr])
        U = -_mm(P[..., :mr], right)
        D, B = D_even, B_even
        levels.append((Dinv, left, right, B_odd))
    X = _dense_solve(D, U, B)
    for Dinv, left, right, B_odd in reversed(levels):
        mo, mr = Dinv.shape[2], right.shape[2]
        B_odd -= _mtm(left, X[..., :mo])
        B_odd[..., :mr] -= _mm(right, X[..., 1 : 1 + mr])
        X_all = np.empty(X.shape[:2] + (X.shape[2] + mo,))
        X_all[..., 0::2] = X
        X_all[..., 1::2] = _mm(Dinv, B_odd)
        X = X_all
    return X


def solve(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
          corner: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = rhs for the symmetric positive definite block-tridiagonal
    A whose blocks are stored last: diagonal blocks ``diag`` (n, n, m) with
    diag[:, :, k] = A[k, k], upper blocks ``upper`` (n, n, m - 1) with
    upper[:, :, k] = A[k, k+1], and the optional block ``corner`` =
    A[0, m-1] (n, n); rhs has shape (m, n).  Raises
    numpy.linalg.LinAlgError when A is not positive definite."""
    n, _, m = diag.shape
    if corner is not None and not corner.any():
        corner = None
    if corner is not None and m <= 2:
        # the corner is a block of the tridiagonal part itself
        if m == 1:
            diag = diag + (corner + corner.T)[:, :, None]
        else:
            upper = upper + corner[:, :, None]
        corner = None
    if corner is None:
        return _cyclic_reduction(diag, upper, rhs.T.copy()[:, None, :])[:, 0, :].T
    # one reduction for b and the 2n columns of Z
    B = np.zeros((n, 1 + 2 * n, m))
    B[:, 0, :] = rhs.T
    B[:, 1 : 1 + n, 0] = np.eye(n)
    B[:, 1 + n :, -1] = np.eye(n)
    Y = _cyclic_reduction(diag, upper, B).transpose(2, 0, 1)  # (m, n, 1 + 2n)
    TZ = Y[:, :, 1:]
    S = np.concatenate([TZ[0], TZ[-1]])  # Z^T T^-1 Z, (2n, 2n)
    S_inv = np.linalg.inv(S)
    K = np.zeros((2 * n, 2 * n))
    K[:n, n:] = corner
    K[n:, :n] = corner.T
    L = np.linalg.cholesky(S_inv + K)  # positive iff A is, given T
    v = S_inv @ np.concatenate([Y[0, :, 0], Y[-1, :, 0]])
    w = v - S_inv @ np.linalg.solve(L.T, np.linalg.solve(L, v))
    return Y[:, :, 0] - TZ @ w
