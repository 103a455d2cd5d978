"""Axial K-means: clusters are unit axes in term space.

Documents attach to the axis of maximal projection; each axis then updates
to the normalized projection-weighted sum of its members, which is one
power-iteration step on the cluster's scatter matrix. The objective
J = sum_d <d, a_assign(d)>^2 is therefore non-decreasing: reassignment
maximizes each doc's term, and the power step cannot lower the Rayleigh
quotient of a positive semidefinite scatter.

Determinism contract: same matrix, config, and seed give bit-identical
models; restarts are independent and the winner is (highest J, lowest
restart index), so threaded and serial execution agree byte for byte.
Row order is fixed once, when `corpus.split_periods` sorts each period by
record id; the fit takes the rows in the order `build_matrix` returns them.

Layout: within a restart the axes are a V×k array, the right operand of the
projections M @ axes, so no step transposes them; only the winner is turned
back into the k×V rows of `ClusterModel.axes`.

Memory and threads: a fit holds the shared nonzero index, the best result so
far and, per thread, one restart: two V×k axes, per-document work arrays and
each step's new projections, then member sums, whose bins and weights borrow
the spare axes. The calling thread and `threads - 1` helpers take restart
indices from one iterator and merge each finished one into the best under a
lock; an error in any thread is raised once every thread has stopped.
"""

from __future__ import annotations

import math
import random
import threading
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .artifacts import Cluster, top_terms
from .corpus import Vocabulary
from .errors import NumericError
from .seeding import derive_seed
from .vectorize import DocTermMatrix

if TYPE_CHECKING:  # annotations only: vectorize.build_matrix is where scipy loads
    import scipy.sparse as sp

    from .pipeline import ClusterConfig

_DIVIDE_ROWS = 64  # rows of the V×k axes per row of _update_axes's divide


class ClusterModel(NamedTuple):
    period_id: str
    axes: np.ndarray
    assignment: np.ndarray
    objective_trace: tuple[float, ...]
    sizes: tuple[int, ...]
    doc_ids: tuple[str, ...]


def _row_cosines(M: sp.csr_matrix, row: int) -> np.ndarray:
    # rows are unit vectors, so the dot product is the cosine
    v = np.zeros(M.shape[1])
    start, end = M.indptr[row], M.indptr[row + 1]
    v[M.indices[start:end]] = M.data[start:end]
    return M @ v


def _init_axes(M: sp.csr_matrix, k: int, rng: random.Random) -> np.ndarray:
    """Farthest-first traversal on cosine distance over document rows.

    The first axis is a uniformly chosen row; each next axis is the row
    minimizing its maximum cosine to the axes chosen so far. Ties are
    broken uniformly at random from the seeded generator, so the traversal
    is deterministic given the seed.
    """
    first = rng.randrange(M.shape[0])
    chosen = [first]
    max_cos = _row_cosines(M, first)
    max_cos[first] = np.inf
    for _ in range(1, k):
        best = np.min(max_cos)
        candidates = np.flatnonzero(max_cos == best)
        pick = int(candidates[rng.randrange(candidates.size)])
        chosen.append(pick)
        np.maximum(max_cos, _row_cosines(M, pick), out=max_cos)
        max_cos[pick] = np.inf
    return np.asarray(M[chosen].todense())


def init_axes(matrix: DocTermMatrix, k: int, seed: int) -> np.ndarray:
    """Seeded farthest-first initial axes (k unit document rows, dense)."""
    return _init_axes(matrix.matrix, k, random.Random(seed))


class _Work:
    """One restart's work arrays, allocated once and reused by every iteration.

    `shared` is `_shared_index(M, k)`: it depends on M and k only, so a fit
    builds it once and its restarts read it concurrently. np.take writes with
    mode="clip": its indices are always in range, and the default mode
    "raise" would first copy `out` to a temporary array. `squares` holds the
    summands of J and `high` is `_exact_sum`'s scratch, both of length n.
    """

    def __init__(self, M: sp.csr_matrix, shared: tuple[np.ndarray, ...]):
        n = M.shape[0]
        self.rows, self.col_bins, self.row_starts = shared
        self.flat = np.empty(n, dtype=np.intp)
        self.proj = np.empty(n)
        self.squares = np.empty(n)
        self.high = np.empty(n)


def _shared_index(M: sp.csr_matrix, k: int) -> tuple[np.ndarray, ...]:
    """The row of each nonzero of M, its column t times k, and the flat index
    d * k of row d of an n×k array, all as intp."""
    n = M.shape[0]
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    return rows, M.indices.astype(np.intp) * k, np.arange(n) * k


def _exact_sum(x: np.ndarray, high: np.ndarray) -> float:
    """The correctly rounded sum of the finite non-negative floats `x`, which
    is unique, so it equals math.fsum(x) bit for bit. Overwrites `x` and
    `high`, both of length n < 2**26.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008): with 2**m >= n + 2
    and sigma = 2**(e + m) > 2**m * max(x), a pass splits each remainder r
    into hi = (r + sigma) - sigma and r - hi, both exact. The hi lie on the
    grid sigma * 2**-53 and add up to less than sigma, so their sum is exact;
    the remainders left are at most sigma * 2**-53, so the next pass takes
    sigma * 2**(m - 52). Once they are all zero, math.fsum rounds the parts.
    """
    m = (x.size + 1).bit_length()  # the least m with 2**m >= n + 2
    top = float(x.max())
    if not top < 2.0 ** (1023 - m):  # sigma would overflow, or x is not finite
        return math.fsum(x)
    sigma, parts = math.ldexp(1.0, math.frexp(top)[1] + m), []
    while not parts or x.any():  # x holds the remainders
        np.add(x, sigma, out=high)
        np.subtract(high, sigma, out=high)
        np.subtract(x, high, out=x)
        parts.append(float(np.add.reduce(high)))
        sigma *= 2.0 ** (m - 52)
    return math.fsum(parts)


def _objective(work: _Work) -> float:
    # a correctly rounded sum keeps the recorded trace monotone
    np.multiply(work.proj, work.proj, out=work.squares)
    return _exact_sum(work.squares, work.high)


def _assign(M: sp.csr_matrix, work: _Work, axes: np.ndarray, assign: np.ndarray) -> None:
    """Writes each doc's cluster to `assign` and its projection onto that
    cluster's axis (a column of the V×k `axes`) to `work.proj`."""
    P = M @ axes  # the n×k projections, dropped on return
    np.argmax(P, axis=1, out=assign)  # ties resolve to the lowest cluster id
    np.add(work.row_starts, assign, out=work.flat)
    np.take(P, work.flat, out=work.proj, mode="clip")


def _update_axes(
    M: sp.csr_matrix, work: _Work, axes: np.ndarray, assign: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Writes the next V×k axes to `out` (not `axes`) and returns it."""
    # every cluster's projection-weighted member sum as one segment sum:
    # each nonzero M[d, t] adds M[d, t] * proj[d] to bin (t, assign[d]), where
    # proj[d] = (M @ axes)[d, assign[d]] is work.proj[d], as _assign wrote it.
    # Within a bin the products arrive in ascending d, as in M.T @ W with W
    # holding each doc's projection in its own cluster's column, whose other
    # terms are +0.0; so the sums equal that product bit for bit. The bins (at
    # the flat index t * k + c of a V×k array) and the weights live in `out`
    # until the squares overwrite it, unless they do not fit there
    V, k = out.shape
    nnz = M.nnz  # a property scipy works out in Python
    spare = out.reshape(-1) if 2 * nnz <= V * k else np.empty(2 * nnz)
    bins, weights = spare[:nnz].view(np.intp), spare[nnz : 2 * nnz]
    np.take(assign, work.rows, out=bins, mode="clip")
    bins += work.col_bins
    np.take(work.proj, work.rows, out=weights, mode="clip")
    np.multiply(M.data, weights, out=weights)
    sums = np.bincount(bins, weights=weights, minlength=V * k).reshape(V, k)
    # np.linalg.norm(sums.T, axis=1) takes the same steps: the squares go to
    # `out` seen as k×V, so each norm is a pairwise sum over a contiguous row
    squares = out.reshape(k, V)
    norms = np.sqrt(np.add.reduce(np.multiply(sums.T, sums.T, out=squares), axis=1))
    positive = norms > 0.0
    divisor = norms if positive.all() else np.where(positive, norms, 1.0)
    # numpy's inner loop runs along the last axis, only k long: seen as rows of
    # B * k, B = _DIVIDE_ROWS, against B copies of the divisor, it runs B times longer
    whole, wide = V - V % _DIVIDE_ROWS, (-1, _DIVIDE_ROWS * k)
    np.divide(sums[:whole].reshape(wide), np.tile(divisor, _DIVIDE_ROWS), out=out[:whole].reshape(wide))
    np.divide(sums[whole:], divisor, out=out[whole:])
    if divisor is norms:  # every norm is positive; an empty cluster's is zero, so none is empty
        return out
    # an axis whose members all lie orthogonal to it gets a zero sum; keep it
    np.copyto(out, axes, where=~positive)
    reseeded: set[int] = set()
    for c in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
        # farthest-point re-seed: the doc with the lowest projection onto this
        # cluster's current axis becomes the new axis; M @ axes[:, c] adds the
        # same products in the same order as column c of _assign's M @ axes
        order = np.argsort(M @ axes[:, c], kind="stable")
        pick = next(int(r) for r in order if int(r) not in reseeded)
        reseeded.add(pick)
        out[:, c] = np.asarray(M[pick].todense()).ravel()
    return out


def _fit_single(M: sp.csr_matrix, config: ClusterConfig, seed: int, shared: tuple[np.ndarray, ...]):
    rng = random.Random(seed)
    work = _Work(M, shared)
    axes = np.ascontiguousarray(_init_axes(M, config.k, rng).T)
    # a rejected step must leave the current state intact, so each step
    # writes the spare axes and assignment, and an accepted one swaps them in
    new_axes = np.empty_like(axes)
    assign = np.empty(M.shape[0], dtype=np.intp)
    new_assign = np.empty_like(assign)
    _assign(M, work, axes, assign)
    objective = _objective(work)
    trace = [objective]
    for _ in range(config.max_iters):
        _update_axes(M, work, axes, assign, new_axes)
        _assign(M, work, new_axes, new_assign)
        new_objective = _objective(work)
        if new_objective < objective:
            # mathematically the step cannot decrease J; a sub-ulp dip means
            # the run is converged, so keep the previous consistent state
            break
        axes, new_axes = new_axes, axes
        assign, new_assign = new_assign, assign
        delta = new_objective - objective
        objective = new_objective
        trace.append(objective)
        if delta < config.tol * max(objective, 1e-300):
            break
    return axes, assign, trace


def fit_axial_kmeans(
    matrix: DocTermMatrix, config: ClusterConfig, threads: int = 1
) -> ClusterModel:
    """Best-of-restarts axial K-means on one period's document matrix.

    The rows must be in doc-id order, as `build_matrix` returns them, so that
    a corpus whose records come in another order gives the same model.
    """
    M = matrix.matrix
    n = M.shape[0]
    if n == 0:
        raise NumericError("cannot cluster an empty matrix")
    if config.k > n:
        raise NumericError(f"k={config.k} exceeds the number of documents ({n})")

    shared = _shared_index(M, config.k)
    restarts, lock, errors = iter(range(config.restarts)), threading.Lock(), []
    best = None  # ((J, -r), axes, assign, trace): highest J, then lowest restart index

    def next_restart() -> int | None:
        with lock:  # after an error, no thread starts another restart
            return None if errors else next(restarts, None)

    def merge(r: int, result) -> None:
        nonlocal best
        with lock:
            if best is None or (result[2][-1], -r) > best[0]:
                best = ((result[2][-1], -r), *result)

    def run_restarts() -> None:
        try:
            for r in iter(next_restart, None):
                merge(r, _fit_single(M, config, derive_seed(config.seed, f"restart.{r}"), shared))
        except BaseException as exc:  # raised below, once every thread has stopped
            errors.append(exc)

    helpers = [threading.Thread(target=run_restarts) for _ in range(min(threads, config.restarts) - 1)]
    for helper in helpers:
        helper.start()
    run_restarts()  # the calling thread runs restarts too
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    _, axes, assign, trace = best
    sizes = tuple(int(s) for s in np.bincount(assign, minlength=config.k))
    axes = np.ascontiguousarray(axes.T)  # the winner's k×V rows
    return ClusterModel(matrix.period_id, axes, assign, tuple(trace), sizes, matrix.doc_ids)


def summarize_clusters(model: ClusterModel, vocabulary: Vocabulary, top_m: int = 10) -> list[Cluster]:
    """Each cluster's sparse axis, its members in row order, and the label
    and top terms that `artifacts.top_terms` gives for its axis, as the
    cluster file holds them."""
    order = np.argsort(model.assignment, kind="stable")  # the rows, cluster by cluster
    clusters = []
    for c, rows in enumerate(np.split(order, np.cumsum(model.sizes)[:-1])):
        weights = model.axes[c]
        nz = np.flatnonzero(weights)
        axis = dict(zip([vocabulary.terms[t] for t in nz.tolist()], weights[nz].tolist()))
        label, top = top_terms(axis, top_m)
        members = [model.doc_ids[r] for r in rows.tolist()]
        clusters.append(Cluster(c, label, len(members), top, members, axis))
    return clusters
