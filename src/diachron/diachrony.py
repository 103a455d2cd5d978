"""Cross-period cluster linkage and the category-by-status cross table.

The two periods hold disjoint documents, so cluster axes in the shared
term space are the only common coordinate system: a second-period cluster
is linked to every first-period cluster whose axis cosine reaches rho.
Clusters with at least one such parent are rooted, the rest are new.

The cross table then pools each second-period cluster's top terms by
cluster status and reports, per status, the share of pooled terms falling
in each term category. Terms are pooled as a multiset: a term appearing
in the top lists of two clusters of the same status counts twice.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .artifacts import STATUS_NEW, STATUS_ROOTED, Cluster, ClusterLink, Linkage
from .diffusion import CATEGORIES, TermStats
from .mapping import Axis, cosine, dot


@dataclass(frozen=True)
class CrossTab:
    # status -> category -> share; a status with no clusters maps to None
    shares: dict[str, dict[str, float] | None]
    n_terms: dict[str, int]


def link_periods(axes_p1: list[Axis], axes_p2: list[Axis], labels_p2: list[str], rho: float) -> Linkage:
    """Link each P2 cluster, labelled from `labels_p2`, to its P1 parents by
    axis cosine >= rho; the axes are sparse rows, dicts of term -> weight.
    The cosines are rounded to 6 places once ranked and cut at rho, as
    linkage.json holds them."""
    norms_p1 = [dot(a1, a1) for a1 in axes_p1]
    links = []
    for c2, (a2, label) in enumerate(zip(axes_p2, labels_p2, strict=True)):
        norm = dot(a2, a2)
        sims = [cosine(dot(a2, a1), norm, n1) for a1, n1 in zip(axes_p1, norms_p1)]
        ranked = sorted(enumerate(sims), key=lambda p: -p[1])  # ties keep id order
        parents = tuple((c1, round(sim, 6)) for c1, sim in ranked if sim >= rho)
        status = STATUS_ROOTED if parents else STATUS_NEW
        links.append(ClusterLink(c2, label, status, parents, parents[0] if parents else None))
    return Linkage(rho=rho, links=tuple(links))


def cross_table(linkage: Linkage, clusters_p2: Sequence[Cluster], term_stats: list[TermStats]) -> CrossTab:
    """Share of each term category among pooled top terms, per cluster status."""
    category = {s.term: s.category for s in term_stats}
    status_of = {link.cluster_id: link.status for link in linkage.links}
    counts = {STATUS_ROOTED: Counter(), STATUS_NEW: Counter()}
    for cluster in clusters_p2:
        for term, _weight in cluster.top_terms:  # axis terms, which link checks against terms.csv
            counts[status_of[cluster.id]][category[term]] += 1
    totals = {status: tally.total() for status, tally in counts.items()}
    shares = {
        status: {c: tally[c] / totals[status] for c in CATEGORIES} if totals[status] else None
        for status, tally in counts.items()
    }
    return CrossTab(shares=shares, n_terms=totals)
