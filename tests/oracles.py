"""Helpers shared by the test modules: an independent eigenvalue oracle and
the converter from dense rows to the sparse axes the map and linkage take."""

import math

import numpy as np


def jacobi_eigenvalues(S, sweeps=100, off_tol=1e-13):
    """Cyclic Jacobi rotation oracle: full spectrum of a symmetric matrix."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(sum(A[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return sorted(np.diag(A), reverse=True)


def sparse_rows(dense):
    """The rows of a dense array as sparse axes: dicts of term -> weight,
    term j named "t<j>", zero weights left out, as a cluster file stores them."""
    return [
        {f"t{j}": float(w) for j, w in enumerate(row) if w != 0.0}
        for row in np.asarray(dense, dtype=float)
    ]
