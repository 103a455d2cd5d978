"""Helpers shared by the test modules: an independent eigenvalue oracle, the
converter from dense rows to the sparse axes a cluster file stores, the
linkage of such axes through their products, and the map, linkage and cross
table computed from the axes directly."""

import math
from collections import Counter

import numpy as np

from diachron.artifacts import STATUS_NEW, STATUS_ROOTED, ClusterLink, Linkage
from diachron.diachrony import CrossTab, link_periods
from diachron.diffusion import CATEGORIES
from diachron.mapping import ClusterMap, build_edges, connected_components, cosine, dot, gram_matrix, pca_2d


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


def link_products(axes_p1, axes_p2, labels_p2, rho):
    """link_periods of sparse axes, given the products geometry.json records
    of them: the P2 x P1 dot products and each period's Gram diagonal."""
    norms = [[dot(a, a) for a in axes] for axes in (axes_p1, axes_p2)]
    dots = [[dot(a2, a1) for a1 in axes_p1] for a2 in axes_p2]
    return link_periods(dots, *norms, labels_p2, rho)


def sparse_rows(dense):
    """The rows of a dense array as sparse axes: dicts of term -> weight,
    term j named "t<j>", zero weights left out, as a cluster file stores them."""
    return [
        {f"t{j}": float(w) for j, w in enumerate(row) if w != 0.0}
        for row in np.asarray(dense, dtype=float)
    ]


# The map, linkage and cross table as the stages built them from the cluster
# files' axes, before the cluster stage recorded the axes' dot products in
# geometry.json: the oracles for the path through that file.


def cluster_map_from_axes(period_id, axes, tau, labels, sizes):
    """A period's map, its Gram matrix computed from the sparse axes."""
    gram = gram_matrix(axes)
    coords, vals, explained = pca_2d(gram)
    edges = build_edges(gram, tau)
    return ClusterMap(
        period_id=period_id,
        tau=tau,
        coords=coords,
        eigenvalues=vals,
        explained_variance=explained,
        edges=tuple(edges),
        components=tuple(connected_components(len(axes), edges)),
        labels=tuple(labels),
        sizes=tuple(sizes),
    )


def link_periods_from_axes(axes_p1, axes_p2, labels_p2, rho):
    """The linkage, each cosine from fresh dot products of the sparse axes."""
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


def cross_table_from_clusters(linkage, clusters_p2, term_stats):
    """The cross table, pooling the top terms of the P2 cluster records."""
    category = {s.term: s.category for s in term_stats}
    status_of = {link.cluster_id: link.status for link in linkage.links}
    counts = {STATUS_ROOTED: Counter(), STATUS_NEW: Counter()}
    for cluster in clusters_p2:
        for term, _weight in cluster.top_terms:
            counts[status_of[cluster.id]][category[term]] += 1
    totals = {status: tally.total() for status, tally in counts.items()}
    shares = {
        status: {c: tally[c] / totals[status] for c in CATEGORIES} if totals[status] else None
        for status, tally in counts.items()
    }
    return CrossTab(shares=shares, n_terms=totals)
