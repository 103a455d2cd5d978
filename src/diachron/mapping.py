"""2D cluster maps: PCA of cluster axes, similarity edges, cluster networks.

The k cluster axes are sparse points in term space, dicts of term -> weight
as the cluster files store them. The cluster stage computes their k x k
Gram matrix once, exactly, for geometry.json: each entry is the correctly
rounded sum (math.fsum) of the products over the terms two axes share. A
map takes that matrix; its edges are its cosines (`artifacts.cosine`,
which link shares without this module). The PCA takes the top two
eigenpairs of its double-centered form, the Gram matrix of the
mean-centered axes over k: a unit eigenvector u with eigenvalue lam gives
the projections sqrt(k * lam) * u onto that principal direction, and they
are mean-centered, since the all-ones vector is a 0-eigenvector.

The eigenpairs come from Householder tridiagonalization and implicit QL
(EISPACK's tred1 and tql1) on Python floats in a fixed order, with only +,
-, *, /, math.sqrt and math.fsum, which are correctly rounded everywhere.
QL rotates no vectors but records its rotations, from which, with the
reflectors (trbak1), the two wanted vectors are rebuilt: only the reduction
is O(k^3). No BLAS or LAPACK is used, so the bytes do not depend on the CPU
kernel those would pick. The source paper uses power iteration; on a k x k
matrix the direct solver gives the same pairs to rounding.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .artifacts import cosine
from .errors import NumericError, checked

SVG_WIDTH = 1000
SVG_HEIGHT = 800
SVG_MARGIN = 50.0
MAX_RADIUS = 40.0
EPS = 2.0**-52
Axis = dict[str, float]  # a sparse row: term -> weight
Matrix = list[list[float]]  # a list of rows


@checked
class ClusterMap(NamedTuple):
    """A period's map, in map_P*.json's field order: edges are (i, j, cosine)
    at or above tau, and coords, labels and sizes hold one item per cluster."""

    period_id: str
    tau: float
    coords: tuple[tuple[float, float], ...]
    eigenvalues: tuple[float, float]
    explained_variance: float
    edges: tuple[tuple[int, int, float], ...]
    components: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    sizes: tuple[int, ...]

    def check(self) -> None:
        k = len(self.coords)
        if not k or len(self.labels) != k or len(self.sizes) != k:
            raise ValueError("coords, labels and sizes must be non-empty and of one length")
        if min(self.sizes) < 0:
            raise ValueError("a cluster size is negative")
        if any(not (0 <= i < k and 0 <= j < k) for i, j, _ in self.edges):
            raise ValueError(f"an edge ends outside range({k})")


def dot(a: Axis, b: Axis) -> float:
    """The correctly rounded dot product of two sparse rows. That rounding is
    unique, so the order of the shared terms does not matter."""
    return math.fsum([a[t] * b[t] for t in a.keys() & b.keys()])


def gram_matrix(axes: list[Axis]) -> Matrix:
    """The exact k x k Gram matrix of k sparse rows."""
    k = len(axes)
    gram = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = dot(axes[i], axes[j])
    return gram


def leading_eigenpairs(S: Matrix, count: int) -> tuple[list[float], Matrix]:
    """The `count` largest eigenvalues of the symmetric matrix S (a list of
    rows), descending, and a unit eigenvector for each: EISPACK's tred1, tql1
    and trbak1 in the loop order of JAMA's public-domain tred2 and tql2, with
    sqrt(p * p + q * q) in place of hypot. Each wanted vector is a unit vector
    with QL's rotations replayed on it, last first, then the reflectors."""
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
    # row m's reflector is I - u u^T / h on the first m coordinates, with u
    # column m above the diagonal and h = d[m]; h = 0 is the identity
    reflectors = [([row[m] for row in V[:m]], d[m]) for m in range(1, n) if d[m] != 0.0]
    d = [V[i][i] for i in range(n)]
    e, f, tst1 = e[1:] + [0.0], 0.0, 0.0  # implicit QL on the tridiagonal (d, e)
    rotations = []  # (i, c, s): each rotation of coordinates i and i + 1, in order
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
            for i in range(m - 1, l - 1, -1):  # chase the bulge up
                c3, c2, s2 = c2, c, s
                g, h, r = c * e[i], c * p, math.sqrt(p * p + e[i] * e[i])
                e[i + 1], s, c = s * r, e[i] / r, p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                rotations.append((i, c, s))
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l], d[l] = s * p, c * p
        if abs(e[l]) > EPS * tst1:
            raise NumericError("the symmetric eigensolver did not converge")
        d[l], e[l] = d[l] + f, 0.0
    wanted = sorted(range(n), key=d.__getitem__)[::-1][:count]  # ties: the later index first
    rotations.reverse()
    vectors = []
    for j in wanted:
        w = [0.0] * n
        w[j] = 1.0
        for i, c, s in rotations:
            w[i], w[i + 1] = c * w[i] + s * w[i + 1], c * w[i + 1] - s * w[i]
        for u, h in reflectors:  # row 1's first, row n - 1's last
            g = math.fsum([x * y for x, y in zip(u, w)]) / h
            w[: len(u)] = [x - g * y for x, y in zip(w, u)]
        vectors.append(w)
    return [d[j] for j in wanted], vectors


def pca_2d(gram: Matrix) -> tuple[tuple[tuple[float, float], ...], tuple[float, float], float]:
    """Project k cluster axes to 2D principal coordinates, from their Gram matrix.

    Returns (coords, (lam1, lam2), explained) where coords holds one (x, y)
    per axis, lam1 >= lam2 >= 0 are the top population eigenvalues and
    explained is (lam1 + lam2) / total variance, 1.0 when the variance is
    zero. Collinear inputs give lam2 = 0 and y identically 0. Sign
    convention: within each component the coordinate of largest absolute
    value (first such index) is positive.
    """
    k = len(gram)
    if k < 2:
        raise NumericError(f"need at least 2 cluster axes to map, got {k}")
    means = [math.fsum(row) / k for row in gram]
    grand = math.fsum(means) / k
    centered = [
        [math.fsum([g, -mi, -mj, grand]) / k for g, mj in zip(row, means)]
        for row, mi in zip(gram, means)
    ]
    total = math.fsum(centered[i][i] for i in range(k))
    # rounding moves each centered entry by at most 4 * eps / k times the
    # largest Gram entry, at most the trace; identical axes leave only that
    zero = 4.0 * EPS * math.fsum(gram[i][i] for i in range(k)) / k
    if max(abs(x) for row in centered for x in row) <= zero:
        return ((0.0, 0.0),) * k, (0.0, 0.0), 1.0
    vals, vecs = leading_eigenpairs(centered, 2)
    # the centered Gram is PSD, so negatives are roundoff; so is a value
    # under a few k * eps * lam1, or under the entries' roundoff
    floor = max(4.0 * k * EPS * vals[0], k * zero)
    lams, columns = [], []
    for val, vec in zip(vals, vecs):
        lam = val if val > floor else 0.0
        col = [math.sqrt(k * lam) * u for u in vec] if lam else [0.0] * k
        lams.append(lam)
        columns.append([-x for x in col] if max(col, key=abs) < 0.0 else col)
    explained = min(1.0, (lams[0] + lams[1]) / total) if total > zero else 1.0
    return tuple(zip(*columns)), (lams[0], lams[1]), explained


def build_edges(gram: Matrix, tau: float) -> list[tuple[int, int, float]]:
    """Pairs (i, j, cosine) of the axes whose Gram matrix is `gram`, with
    i < j and cosine >= tau, in (i, j) order."""
    pairs = [(i, j) for i in range(len(gram)) for j in range(i + 1, len(gram))]
    sims = [cosine(gram[i][j], gram[i][i], gram[j][j]) for i, j in pairs]
    return [(i, j, sim) for (i, j), sim in zip(pairs, sims) if sim >= tau]


def connected_components(k: int, edges) -> list[tuple[int, ...]]:
    """Undirected components, largest first, ties by smallest member id."""
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, *_ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for x in range(k):
        groups.setdefault(find(x), []).append(x)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def build_cluster_map(period_id: str, gram: Matrix, tau: float, labels, sizes) -> ClusterMap:
    """The map of k cluster axes from their Gram matrix, with their labels and sizes in axis order."""
    coords, vals, explained = pca_2d(gram)
    edges = build_edges(gram, tau)
    return ClusterMap(
        period_id=period_id,
        tau=tau,
        coords=coords,
        eigenvalues=vals,
        explained_variance=explained,
        edges=tuple(edges),
        components=tuple(connected_components(len(gram), edges)),
        labels=tuple(labels),
        sizes=tuple(sizes),
    )


def _scaled(values: list[float], lo: float, hi: float, invert: bool) -> list[float]:
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    if span == 0.0:
        return [(lo + hi) / 2.0] * len(values)
    out = []
    for v in values:
        t = (v - vmin) / span
        if invert:
            t = 1.0 - t
        out.append(lo + t * (hi - lo))
    return out


def _escape(text: str) -> str:
    """`html.escape(text, quote=False)`, without loading `html` on every call."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(cmap: ClusterMap) -> str:
    """Deterministic SVG: edges, then circles, then labels, fixed formatting."""
    k, labels, sizes = len(cmap.coords), cmap.labels, cmap.sizes
    xs = _scaled([c[0] for c in cmap.coords], SVG_MARGIN, SVG_WIDTH - SVG_MARGIN, False)
    # SVG y grows downward, so the vertical axis is inverted
    ys = _scaled([c[1] for c in cmap.coords], SVG_MARGIN, SVG_HEIGHT - SVG_MARGIN, True)
    max_size = max(sizes)
    radii = [MAX_RADIUS * (size / max_size) ** 0.5 if max_size > 0 else 4.0 for size in sizes]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f"<!-- cluster map {_escape(cmap.period_id)} -->",
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for i, j, sim in cmap.edges:
        lines.append(
            f'<line x1="{xs[i]:.2f}" y1="{ys[i]:.2f}" x2="{xs[j]:.2f}" '
            f'y2="{ys[j]:.2f}" stroke="#555555" stroke-opacity="{sim:.3f}" '
            'stroke-width="1.5"/>'
        )
    for c in range(k):
        lines.append(
            f'<circle cx="{xs[c]:.2f}" cy="{ys[c]:.2f}" r="{radii[c]:.2f}" '
            'fill="#4477aa" fill-opacity="0.6" stroke="#223355"/>'
        )
    for c in range(k):
        lines.append(
            f'<text x="{xs[c]:.2f}" y="{ys[c] - radii[c] - 4.0:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{_escape(labels[c])}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
