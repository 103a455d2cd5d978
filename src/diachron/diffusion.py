"""Term-level diffusion indicators and the three-way term classification.

Each vocabulary term gets a salience score (pooled tf times ln(N/df), where
tf is df because keywords are a set per record) and a dispersion score (Gini
over its occurrence counts per cell, classification categories by default).
The decision table then labels it established, unusual, cross-section, or
unclassified. Quantile cuts are taken over the empirical indicator
distributions, so the labels are rank-based and invariant under duplicating
the whole corpus.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING, NamedTuple

from .artifacts import atomic_open, parsing
from .pipeline import DiffusionThresholds

if TYPE_CHECKING:  # annotations only; numpy is imported where used, so link never loads it
    import numpy as np

    from .corpus import CorpusSlice, Vocabulary

CATEGORY_ESTABLISHED = "established"
CATEGORY_UNUSUAL = "unusual"
CATEGORY_CROSS_SECTION = "cross_section"
CATEGORY_UNCLASSIFIED = "unclassified"

CATEGORIES = (
    CATEGORY_ESTABLISHED,
    CATEGORY_UNUSUAL,
    CATEGORY_CROSS_SECTION,
    CATEGORY_UNCLASSIFIED,
)

UNCATEGORIZED_CELL = "(none)"


class TermStats(NamedTuple):
    """Per-term indicator values plus the assigned diffusion category, in
    terms.csv's column order."""

    term: str
    df_p1: int
    df_p2: int
    tfidf: float
    gini: float
    category: str


def _gini_rows(x: np.ndarray) -> np.ndarray:
    """Gini of each row of a non-negative 2-D array; 0.0 for an all-zero row.

    Computed via the sorted form 2*sum(i * x_(i)) / (m * sum(x)) - (m+1)/m,
    which agrees with the mean absolute pairwise difference over ordered
    pairs normalized by 2*m*sum(x).
    """
    import numpy as np

    m = x.shape[1]
    if m == 0:  # no cells: every term has zero counts
        return np.zeros(len(x))
    total = x.sum(axis=1)
    weighted = np.sort(x, axis=1) @ np.arange(1, m + 1, dtype=float)
    g = 2.0 * weighted / (m * np.where(total > 0.0, total, 1.0)) - (m + 1) / m
    return np.where(total > 0.0, g, 0.0)


def classify_terms(
    vocabulary: Vocabulary,
    slices: tuple[CorpusSlice, CorpusSlice],
    thresholds: DiffusionThresholds = DiffusionThresholds(),
    cells: dict[str, tuple[str, ...]] | None = None,
) -> list[TermStats]:
    """Assign exactly one diffusion category to every vocabulary term.

    `cells` maps a record id to the labels of its dispersion cells; by
    default a record's cells are its categories, or UNCATEGORIZED_CELL if
    it has none. The Gini columns are the sorted labels, and a record
    missing from `cells` counts in no cell.

    Decision table, first matching row wins:
      1. unusual       df_p2/df_pooled >= novelty_share and df_pooled below the high-df cut
      2. cross_section gini below the low-gini cut and df_p1 >= 1
      3. established   df_pooled at or above the high-df cut and df_p1 >= 1
      4. unclassified  everything else
    """
    import numpy as np

    from .vectorize import incidence

    if cells is None:
        cells = {r.id: r.categories or (UNCATEGORIZED_CELL,) for s in slices for r in s.records}
    column = {c: i for i, c in enumerate(sorted(set().union(*cells.values())))}
    # term x cell counts: one bin t * n_cells + c per term t and cell c of each record
    n_cells = len(column)
    bins = [
        t * n_cells + column[c]
        for s in slices
        for r, terms in zip(s.records, incidence(s, vocabulary))
        for c in cells.get(r.id, ())
        for t in terms
    ]
    counts = np.bincount(np.array(bins, dtype=np.int64), minlength=len(vocabulary.terms) * n_cells)
    ginis = _gini_rows(counts.reshape(len(vocabulary.terms), n_cells).astype(float))

    n_pooled = slices[0].n_docs + slices[1].n_docs
    df_pooled = np.add(vocabulary.df_p1, vocabulary.df_p2, dtype=float)
    df_cut = float(np.quantile(df_pooled, thresholds.df_high_quantile))
    gini_cut = float(np.quantile(ginis, thresholds.gini_low_quantile))

    # Python ints and floats: the same values as numpy scalars, and cheaper to use one at a time
    stats: list[TermStats] = []
    for term, df1, df2, gini in zip(vocabulary.terms, vocabulary.df_p1, vocabulary.df_p2, ginis.tolist()):
        dfp = df1 + df2
        if df2 / dfp >= thresholds.novelty_share and dfp < df_cut:
            category = CATEGORY_UNUSUAL
        elif gini < gini_cut and df1 >= 1:
            category = CATEGORY_CROSS_SECTION
        elif dfp >= df_cut and df1 >= 1:
            category = CATEGORY_ESTABLISHED
        else:
            category = CATEGORY_UNCLASSIFIED
        stats.append(TermStats(term, df1, df2, dfp * math.log(n_pooled / dfp), gini, category))
    return stats


def write_terms_csv(stats: list[TermStats], path: str) -> str:
    """Write terms.csv in vocabulary order, reals at 6 places; returns the sha256 written."""
    with atomic_open(path, newline="") as (fh, sha256):
        writer = csv.writer(fh)
        writer.writerow(TermStats._fields)
        for s in stats:
            writer.writerow(
                [s.term, s.df_p1, s.df_p2, f"{s.tfidf:.6f}", f"{s.gini:.6f}", s.category]
            )
    return sha256.hexdigest()


def read_terms_csv(path: str) -> list[TermStats]:
    """Reload terms.csv (rounded reals; categories are exact).

    The header must be the one write_terms_csv writes, and every row must
    hold its six fields, a finite tfidf and gini, and a category of
    CATEGORIES; any other file is an InputError naming it (and the term).
    """
    stats = []
    with parsing(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TermStats._fields):
            raise ValueError(f"header {header} is not {list(TermStats._fields)}")
        for term, df_p1, df_p2, tfidf, gini, category in reader:
            if category not in CATEGORIES:
                raise ValueError(f"term {term!r} has unknown category {category!r}")
            tfidf_value, gini_value = float(tfidf), float(gini)
            if not (math.isfinite(tfidf_value) and math.isfinite(gini_value)):
                raise ValueError(f"term {term!r} has a tfidf or gini that is not finite")
            stats.append(TermStats(term, int(df_p1), int(df_p2), tfidf_value, gini_value, category))
    return stats
