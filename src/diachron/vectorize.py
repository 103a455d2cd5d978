"""Per-period sparse document-term matrices with L2-normalized rows.

Weights are either binary or idf (per-record tf is identically 1 under the
set-semantics keyword decision, so tf-idf weighting reduces to idf per
present term). Documents left with no positive-weight terms are dropped
from the matrix but stay in the slice, so idf keeps seeing the full corpus.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .corpus import CorpusSlice, Vocabulary

if TYPE_CHECKING:  # imported in build_matrix only: terms, map, link and report never load it
    import scipy.sparse as sp


class DocTermMatrix(NamedTuple):
    """CSR matrix of unit-norm document vectors plus the row -> record id map."""

    period_id: str
    matrix: sp.csr_matrix
    doc_ids: tuple[str, ...]


def idf_vector(vocabulary: Vocabulary) -> np.ndarray:
    """Pooled idf per vocabulary column: ln(N_pooled / df_pooled)."""
    n = vocabulary.n_docs_p1 + vocabulary.n_docs_p2
    df = np.asarray(vocabulary.df_p1, dtype=float) + np.asarray(vocabulary.df_p2, dtype=float)
    return np.log(n / df)


def incidence(slice_: CorpusSlice, vocabulary: Vocabulary) -> list[list[int]]:
    """Vocabulary columns of each record's keywords, in the slice's id order.
    Keywords outside the vocabulary are skipped."""
    index = vocabulary.index
    return [[index[t] for t in rec.keywords if t in index] for rec in slice_.records]


def build_matrix(
    slice_: CorpusSlice, vocabulary: Vocabulary, weighting: str = "tfidf"
) -> DocTermMatrix:
    """Vectorize one period's records in id order; rows are L2-normalized.

    Zero-weight entries (idf 0 under tfidf weighting) are not stored, and
    rows with no surviving entries are dropped; `doc_ids` names the rows kept.
    """
    import scipy.sparse as sp

    rows = incidence(slice_, vocabulary)
    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int32)
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=indptr[-1])
    data = idf_vector(vocabulary)[indices] if weighting == "tfidf" else np.ones(indices.size)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(rows), len(vocabulary.terms)))
    matrix.sort_indices()
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
    )

