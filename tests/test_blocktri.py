import numpy as np
import pytest

from bolzakit import blocktri

from oracles import dense_block_tridiagonal as _dense


def _system(rng, n, m, corner, shift):
    """Random symmetric blocks, positive definite for a large enough shift
    of the diagonal."""
    D = rng.normal(size=(m, n, n))
    D = D @ D.transpose(0, 2, 1) + shift * np.eye(n)
    upper = rng.normal(size=(n, n, m - 1))
    C = rng.normal(size=(n, n)) if corner else None
    return np.ascontiguousarray(D.transpose(1, 2, 0)), upper, C


@pytest.mark.parametrize("corner", [False, True], ids=["tridiagonal", "corner"])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 201])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclic_reduction_matches_dense_solve(n, m, corner):
    rng = np.random.default_rng(100 * n + m)
    diag, upper, C = _system(rng, n, m, corner, shift=6.0 * n)
    A = _dense(diag, upper, C)
    assert np.linalg.eigvalsh(A).min() > 0
    b = rng.normal(size=(m, n))
    want = np.linalg.solve(A, b.reshape(-1)).reshape(m, n)
    got = blocktri.solve(diag, upper, b, C)
    assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 7, 201])
def test_not_positive_pivot_raises(m):
    # a negative diagonal entry in the middle block makes A indefinite
    rng = np.random.default_rng(m)
    diag, upper, _ = _system(rng, 2, m, False, shift=12.0)
    diag[0, 0, m // 2] = -1.0
    assert np.linalg.eigvalsh(_dense(diag, upper, None)).min() < 0
    with pytest.raises(np.linalg.LinAlgError):
        blocktri.solve(diag, upper, np.ones((m, 2)))


@pytest.mark.parametrize("m", [3, 7, 201])
def test_indefinite_corner_raises(m):
    # positive definite tridiagonal part, made indefinite by the corner alone
    n = 2
    diag = np.broadcast_to(np.eye(n)[:, :, None], (n, n, m)).copy()
    upper = np.zeros((n, n, m - 1))
    C = 2.0 * np.eye(n)
    assert np.linalg.eigvalsh(_dense(diag, upper, C)).min() < 0
    with pytest.raises(np.linalg.LinAlgError):
        blocktri.solve(diag, upper, np.ones((m, n)), C)


def test_zero_corner_is_the_tridiagonal_solve():
    rng = np.random.default_rng(5)
    diag, upper, _ = _system(rng, 3, 9, False, shift=18.0)
    b = rng.normal(size=(9, 3))
    assert np.array_equal(blocktri.solve(diag, upper, b, np.zeros((3, 3))),
                          blocktri.solve(diag, upper, b))
