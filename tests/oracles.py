"""Helpers shared by the test modules: an independent eigenvalue oracle, the
full eigensolver that the map's leading-pair solver cuts down, the converter
from dense rows to the sparse axes a cluster file stores, the linkage of such
axes through their products, and the map, linkage and cross table computed
from the axes directly."""

import math
from collections import Counter

import numpy as np

from diachron.artifacts import STATUS_NEW, STATUS_ROOTED, ClusterLink, Linkage, cosine
from diachron.diachrony import CrossTab, link_periods
from diachron.diffusion import CATEGORIES
from diachron.errors import NumericError
from diachron.mapping import EPS, ClusterMap, build_edges, connected_components, dot, gram_matrix, pca_2d


def jacobi_eigenvalues(S, sweeps=100, off_tol=1e-13):
    """Cyclic Jacobi rotation oracle: full spectrum of a symmetric matrix.

    Each sweep meets every pair (p, q) once, in round-robin order: n - 1
    rounds of disjoint pairs (an odd n sits one index out per round). The
    rotations of a round touch disjoint rows and columns, so they are
    applied together, A <- J^T A J, each annihilating its A[p, q].
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    m = n + n % 2  # index n, when n is odd, is the one sitting out
    order, rounds = list(range(m)), []
    for _ in range(m - 1):
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(order[: m // 2], order[::-1]) if max(a, b) < n)
        rounds.append(np.array(pairs, dtype=int).reshape(-1, 2).T)
        order = [order[0], order[-1], *order[1:-1]]  # the first stays, the rest move one seat
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.square(A - np.diag(np.diag(A))))))
        if off < off_tol:
            break
        for p, q in rounds:
            apq = A[p, q]
            live = np.abs(apq) >= 1e-300
            theta = (A[q, q] - A[p, p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[theta == 0.0] = 1.0
            c = np.where(live, 1.0 / np.sqrt(t * t + 1.0), 1.0)
            s = np.where(live, t * c, 0.0)
            ap, aq = A[:, p], A[:, q]  # fancy indexing copies
            A[:, p], A[:, q] = c * ap - s * aq, s * ap + c * aq
            ap, aq = A[p, :], A[q, :]
            A[p, :], A[q, :] = c[:, None] * ap - s[:, None] * aq, s[:, None] * ap + c[:, None] * aq
    return sorted(np.diag(A), reverse=True)


def symmetric_eigenpairs(S):
    """Every eigenpair of the symmetric matrix S (a list of rows), eigenvalues
    ascending, the i-th eigenvector (unit length) for the i-th eigenvalue.

    Householder reduction to tridiagonal form, then implicit QL with
    Wilkinson shifts: EISPACK's tred2 and tql2, in the loop order of JAMA's
    public-domain translation, with sqrt(p * p + q * q) in place of hypot.
    Unlike `mapping.leading_eigenpairs` it accumulates every eigenvector;
    the two share the reduction and QL, so their pairs agree to rounding.
    """
    n = len(S)
    V = [list(map(float, row)) for row in S]
    d, e = V[n - 1][:], [0.0] * n
    for i in range(n - 1, 0, -1):  # reduce row i, from the last up
        scale, h = math.fsum(map(abs, d[:i])), 0.0
        if scale == 0.0:
            e[i], d[:i] = d[i - 1], V[i - 1][:i]
            for j in range(i):
                V[i][j] = V[j][i] = 0.0
        else:
            d[:i] = [x / scale for x in d[:i]]
            h, f = math.fsum([x * x for x in d[:i]]), d[i - 1]
            g = -math.sqrt(h) if f > 0.0 else math.sqrt(h)
            e[i], h, d[i - 1] = scale * g, h - f * g, f - g
            e[:i] = [0.0] * i
            for j in range(i):
                f = V[j][i] = d[j]
                g = e[j] + V[j][j] * f
                for k in range(j + 1, i):
                    g += V[k][j] * d[k]
                    e[k] += V[k][j] * f
                e[j] = g / h
            hh = math.fsum([x * y for x, y in zip(e[:i], d[:i])]) / (h + h)
            e[:i] = [x - hh * y for x, y in zip(e[:i], d[:i])]
            for j in range(i):
                f, g = d[j], e[j]
                for k in range(j, i):
                    V[k][j] -= f * e[k] + g * d[k]
                d[j], V[i][j] = V[i - 1][j], 0.0
        d[i] = h
    for i in range(n - 1):  # accumulate the transformations
        V[n - 1][i], V[i][i], h = V[i][i], 1.0, d[i + 1]
        if h != 0.0:
            d[: i + 1] = [V[k][i + 1] / h for k in range(i + 1)]
            for j in range(i + 1):
                g = math.fsum([V[k][i + 1] * V[k][j] for k in range(i + 1)])
                for k in range(i + 1):
                    V[k][j] -= g * d[k]
        for k in range(i + 1):
            V[k][i + 1] = 0.0
    d, V[n - 1] = V[n - 1][:], [0.0] * (n - 1) + [1.0]
    Z = [list(column) for column in zip(*V)]  # Z[i] is the i-th eigenvector
    e, f, tst1 = e[1:] + [0.0], 0.0, 0.0  # implicit QL on the tridiagonal (d, e)
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        m = l
        while abs(e[m]) > EPS * tst1:  # e[n - 1] is 0, so m stops at n - 1
            m += 1
        for _ in range(30 * n):
            if abs(e[l]) <= EPS * tst1:  # d[l] + f is an eigenvalue
                break
            g, p = d[l], (d[l + 1] - d[l]) / (2.0 * e[l])
            r = -math.sqrt(p * p + 1.0) if p < 0.0 else math.sqrt(p * p + 1.0)
            d[l], d[l + 1] = e[l] / (p + r), e[l] * (p + r)
            dl1, h = d[l + 1], g - d[l]
            d[l + 2 :] = [x - h for x in d[l + 2 :]]
            f += h
            p, c, c2, c3, el1, s, s2 = d[m], 1.0, 1.0, 1.0, e[l + 1], 0.0, 0.0
            for i in range(m - 1, l - 1, -1):  # chase the bulge up, rotating Z alike
                c3, c2, s2 = c2, c, s
                g, h, r = c * e[i], c * p, math.sqrt(p * p + e[i] * e[i])
                e[i + 1], s, c = s * r, e[i] / r, p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                zi, zj = Z[i], Z[i + 1]
                Z[i] = [c * a - s * b for a, b in zip(zi, zj)]
                Z[i + 1] = [s * a + c * b for a, b in zip(zi, zj)]
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l], d[l] = s * p, c * p
        if abs(e[l]) > EPS * tst1:
            raise NumericError("the symmetric eigensolver did not converge")
        d[l], e[l] = d[l] + f, 0.0
    order = sorted(range(n), key=d.__getitem__)
    return [d[i] for i in order], [Z[i] for i in order]


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
