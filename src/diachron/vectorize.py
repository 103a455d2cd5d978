"""Per-period sparse document-term matrices with L2-normalized rows.

Weights are either binary or idf (per-record tf is identically 1 under the
set-semantics keyword decision, so tf-idf weighting reduces to idf per
present term). Documents left with no positive-weight terms are dropped
from the matrix but stay in the slice, so idf keeps seeing the full corpus.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

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


def build_matrix(
    slice_: CorpusSlice, vocabulary: Vocabulary, weighting: str = "tfidf"
) -> DocTermMatrix:
    """Vectorize one period's records in id order; rows are L2-normalized.

    Zero-weight entries (idf 0 under tfidf weighting) are not stored, and
    rows with no surviving entries are dropped and reported.
    """
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {weighting!r} (expected one of {WEIGHTINGS})")
    idf = idf_vector(vocabulary) if weighting == "tfidf" else None
    index = vocabulary.index

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    doc_ids: list[str] = []
    dropped: list[str] = []
    for rec in slice_.records:
        cols = sorted(index[t] for t in rec.keywords if t in index)
        if idf is None:
            entries = [(c, 1.0) for c in cols]
        else:
            entries = [(c, idf[c]) for c in cols if idf[c] > 0.0]
        if not entries:
            dropped.append(rec.id)
            continue
        norm = math.sqrt(math.fsum(w * w for _, w in entries))
        indices.extend(c for c, _ in entries)
        data.extend(w / norm for _, w in entries)
        indptr.append(len(indices))
        doc_ids.append(rec.id)

    matrix = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(doc_ids), len(vocabulary)),
    )
    return DocTermMatrix(
        period_id=slice_.period_id,
        matrix=matrix,
        doc_ids=tuple(doc_ids),
        dropped_doc_ids=tuple(dropped),
    )


def cosine(u, v) -> float:
    """Cosine similarity; 0.0 if either vector is all-zero."""
    u = np.asarray(u.toarray()).ravel() if sp.issparse(u) else np.asarray(u, dtype=float).ravel()
    v = np.asarray(v.toarray()).ravel() if sp.issparse(v) else np.asarray(v, dtype=float).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


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
