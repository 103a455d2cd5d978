"""Cross-period cluster linkage and the category-by-status cross table.

The two periods hold disjoint documents, so cluster axes in the shared
term space are the only common coordinate system: a second-period cluster
is linked to every first-period cluster whose axis cosine reaches rho.
Clusters with at least one such parent are rooted, the rest are new. The
cosines come from the axes' exact dot products, which geometry.json holds.

The cross table then pools each second-period cluster's top terms by
cluster status and reports, per status, the share of pooled terms falling
in each term category. Terms are pooled as a multiset: a term appearing
in the top lists of two clusters of the same status counts twice.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .artifacts import STATUS_NEW, STATUS_ROOTED, ClusterLink, Linkage, cosine
from .diffusion import CATEGORIES, TermStats


class CrossTab(NamedTuple):
    # status -> category -> share; a status with no clusters maps to None
    shares: dict[str, dict[str, float] | None]
    n_terms: dict[str, int]


def link_periods(
    dots: Sequence[Sequence[float]], norms_p1: Sequence[float], norms_p2: Sequence[float], labels_p2, rho: float
) -> Linkage:
    """Link each P2 cluster, labelled from `labels_p2`, to its P1 parents by
    axis cosine >= rho, from the axes' dot products: `dots`, P2 by P1, and
    each axis's dot product with itself (its Gram diagonal). The cosines are
    rounded to 6 places once ranked and cut at rho, as linkage.json holds
    them."""
    links = []
    for c2, (row, norm, label) in enumerate(zip(dots, norms_p2, labels_p2, strict=True)):
        sims = [cosine(d, norm, n1) for d, n1 in zip(row, norms_p1, strict=True)]
        ranked = sorted(enumerate(sims), key=lambda p: -p[1])  # ties keep id order
        parents = tuple((c1, round(sim, 6)) for c1, sim in ranked if sim >= rho)
        status = STATUS_ROOTED if parents else STATUS_NEW
        links.append(ClusterLink(c2, label, status, parents, parents[0] if parents else None))
    return Linkage(rho=rho, links=tuple(links))


def cross_table(linkage: Linkage, top_terms_p2: Sequence[Sequence[str]], term_stats: list[TermStats]) -> CrossTab:
    """Share of each term category among pooled top terms, per cluster status;
    `top_terms_p2` holds each P2 cluster's top-term names, in id order."""
    category = {s.term: s.category for s in term_stats}
    counts = {STATUS_ROOTED: Counter(), STATUS_NEW: Counter()}
    for link, terms in zip(linkage.links, top_terms_p2, strict=True):
        for term in terms:  # link checks them against terms.csv
            counts[link.status][category[term]] += 1
    totals = {status: tally.total() for status, tally in counts.items()}
    shares = {
        status: {c: tally[c] / totals[status] for c in CATEGORIES} if totals[status] else None
        for status, tally in counts.items()
    }
    return CrossTab(shares=shares, n_terms=totals)
