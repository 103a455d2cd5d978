"""Per-period sparse document-term matrices with L2-normalized rows.

Weights are either binary or idf (per-record tf is identically 1 under the
set-semantics keyword decision, so tf-idf weighting reduces to idf per
present term). Documents left with no positive-weight terms are dropped
from the matrix but stay in the slice, so idf keeps seeing the full corpus.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .corpus import CorpusSlice, Vocabulary
from .errors import ConfigError

WEIGHTINGS = ("binary", "tfidf")


@dataclass(frozen=True)
class DocTermMatrix:
    """CSR matrix of unit-norm document vectors plus the row -> record id map."""

    period_id: str
    matrix: sp.csr_matrix = field(repr=False)
    doc_ids: tuple[str, ...]
    dropped_doc_ids: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


def idf_vector(vocabulary: Vocabulary) -> np.ndarray:
    """Pooled idf per vocabulary column: ln(N_pooled / df_pooled)."""
    n = vocabulary.n_docs_pooled
    df = np.asarray(vocabulary.df_p1, dtype=float) + np.asarray(vocabulary.df_p2, dtype=float)
    return np.log(n / df)


def binary_csr(rows: list[Sequence[int]], n_cols: int) -> sp.csr_matrix:
    """CSR matrix with a 1.0 at each listed column of each row."""
    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int32)
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=indptr[-1])
    matrix = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(len(rows), n_cols))
    matrix.sort_indices()
    return matrix


def incidence(slice_: CorpusSlice, vocabulary: Vocabulary) -> sp.csr_matrix:
    """Binary docs x V matrix of one period: row i marks the vocabulary
    columns of record i's keywords, in the slice's id order. Keywords outside
    the vocabulary are skipped."""
    index = vocabulary.index
    return binary_csr(
        [[index[t] for t in rec.keywords if t in index] for rec in slice_.records],
        len(vocabulary),
    )


def build_matrix(
    slice_: CorpusSlice, vocabulary: Vocabulary, weighting: str = "tfidf"
) -> DocTermMatrix:
    """Vectorize one period's records in id order; rows are L2-normalized.

    Zero-weight entries (idf 0 under tfidf weighting) are not stored, and
    rows with no surviving entries are dropped and reported.
    """
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
    matrix = incidence(slice_, vocabulary)
    if weighting == "tfidf":
        matrix.data = idf_vector(vocabulary)[matrix.indices]
        matrix.eliminate_zeros()
    kept = np.diff(matrix.indptr) > 0
    matrix = matrix[kept]
    # an exactly rounded sum of squares per row, so the norm is order-free
    squares = (matrix.data * matrix.data).tolist()
    bounds = matrix.indptr.tolist()
    norms = [math.sqrt(math.fsum(squares[a:b])) for a, b in zip(bounds, bounds[1:])]
    matrix.data /= np.repeat(norms, np.diff(matrix.indptr))
    ids = [rec.id for rec in slice_.records]
    return DocTermMatrix(
        period_id=slice_.period_id,
        matrix=matrix,
        doc_ids=tuple(i for i, k in zip(ids, kept) if k),
        dropped_doc_ids=tuple(i for i, k in zip(ids, kept) if not k),
    )


def axis_cosines(A, B) -> np.ndarray:
    """Cosine of each row of A with each row of B, at most 1.0; 0.0 for a zero row."""
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    # not A @ B.T: OpenBLAS threads this small product, then spins ~0.1 s CPU
    gram = np.einsum("ik,jk->ij", A, B)
    denom = np.outer(np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1))
    sims = np.minimum(np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0), 1.0)
    # the product can fall an ulp short of 1 on equal rows; set those exactly
    seen: dict[bytes, int] = {}
    row_id = np.array([seen.setdefault(hashlib.sha256(r).digest(), len(seen)) for r in (*A, *B)])
    sims[(row_id[: len(A), None] == row_id[None, len(A) :]) & (denom > 0.0)] = 1.0
    return sims
