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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .corpus import Vocabulary
from .errors import NumericError
from .seeding import derive_seed
from .vectorize import DocTermMatrix

if TYPE_CHECKING:  # annotations only: map, link and report must not load scipy.sparse
    import scipy.sparse as sp


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    max_iters: int = 100
    tol: float = 1e-9
    restarts: int = 10
    seed: int = 0


@dataclass(frozen=True)
class ClusterModel:
    period_id: str
    axes: np.ndarray = field(repr=False)
    assignment: np.ndarray = field(repr=False)
    objective_trace: tuple[float, ...]
    sizes: tuple[int, ...]
    doc_ids: tuple[str, ...]

    @property
    def k(self) -> int:
        return self.axes.shape[0]

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class ClusterSummary:
    cluster_id: int
    label: str
    top_terms: tuple[tuple[str, float], ...]
    size: int


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


def _objective(proj: np.ndarray) -> float:
    # exactly-rounded sum keeps the recorded trace monotone
    return math.fsum((proj * proj).tolist())


def _assign(M: sp.csr_matrix, axes: np.ndarray):
    P = M @ np.ascontiguousarray(axes.T)
    assign = np.argmax(P, axis=1)  # ties resolve to the lowest cluster id
    proj = P[np.arange(P.shape[0]), assign]
    return P, assign, proj


def _update_axes(
    M: sp.csr_matrix,
    axes: np.ndarray,
    assign: np.ndarray,
    P: np.ndarray,
    proj: np.ndarray,
    k: int,
) -> np.ndarray:
    # every cluster's projection-weighted member sum as one segment sum:
    # each nonzero M[d, t] adds M[d, t] * proj[d] to bin (assign[d], t), where
    # proj[d] = P[d, assign[d]]. Within a bin the products arrive in ascending
    # d, as in M.T @ W with W holding each doc's projection in its own
    # cluster's column, whose other terms are +0.0; so the sums equal that
    # product bit for bit.
    V = M.shape[1]
    per_row = np.diff(M.indptr)
    sums = np.bincount(
        np.repeat(assign, per_row) * V + M.indices,
        weights=M.data * np.repeat(proj, per_row),
        minlength=k * V,
    ).reshape(k, V)
    norms = np.linalg.norm(sums, axis=1)
    positive = norms > 0.0
    new_axes = sums / np.where(positive, norms, 1.0)[:, None]
    # an axis whose members all lie orthogonal to it gets a zero sum; keep it
    new_axes[~positive] = axes[~positive]
    reseeded: set[int] = set()
    for c in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
        # farthest-point re-seed: the doc with the lowest projection
        # onto this cluster's current axis becomes the new axis
        order = np.argsort(P[:, c], kind="stable")
        pick = next(int(r) for r in order if int(r) not in reseeded)
        reseeded.add(pick)
        new_axes[c] = np.asarray(M[pick].todense()).ravel()
    return new_axes


def _fit_single(M: sp.csr_matrix, config: ClusterConfig, seed: int):
    rng = random.Random(seed)
    axes = _init_axes(M, config.k, rng)
    P, assign, proj = _assign(M, axes)
    objective = _objective(proj)
    trace = [objective]
    for _ in range(config.max_iters):
        new_axes = _update_axes(M, axes, assign, P, proj, config.k)
        new_P, new_assign, new_proj = _assign(M, new_axes)
        new_objective = _objective(new_proj)
        if new_objective < objective:
            # mathematically the step cannot decrease J; a sub-ulp dip means
            # the run is converged, so keep the previous consistent state
            break
        axes, P, assign, proj = new_axes, new_P, new_assign, new_proj
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

    seeds = [derive_seed(config.seed, f"restart.{r}") for r in range(config.restarts)]

    def run(r: int):
        return _fit_single(M, config, seeds[r])

    if threads > 1 and config.restarts > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so --threads 1 never loads it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(config.restarts)))
    else:
        results = [run(r) for r in range(config.restarts)]

    # max returns the first maximum: highest J, then lowest restart index
    axes, assign, trace = max(results, key=lambda result: result[2][-1])
    sizes = tuple(int(s) for s in np.bincount(assign, minlength=config.k))
    return ClusterModel(
        period_id=matrix.period_id,
        axes=axes,
        assignment=assign,
        objective_trace=tuple(trace),
        sizes=sizes,
        doc_ids=matrix.doc_ids,
    )


def summarize_clusters(
    model: ClusterModel, vocabulary: Vocabulary, top_m: int = 10
) -> list[ClusterSummary]:
    """Top axis terms per cluster; ties break lexicographically, label = first term."""
    summaries = []
    for c in range(model.k):
        row = model.axes[c]
        nz = np.flatnonzero(row > 0.0)
        ranked = sorted(((vocabulary.terms[t], float(row[t])) for t in nz), key=lambda p: (-p[1], p[0]))
        top = tuple(ranked[:top_m])
        summaries.append(
            ClusterSummary(
                cluster_id=c,
                label=top[0][0] if top else "",
                top_terms=top,
                size=model.sizes[c],
            )
        )
    return summaries
