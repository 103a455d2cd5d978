"""2D cluster maps: PCA of cluster axes, similarity edges, cluster networks.

The k cluster axes are treated as k points in term space. Because k is
far smaller than the vocabulary, the eigenproblem is solved on the k x k
Gram matrix of the mean-centered rows (population scaling, divide by k):
a unit eigenvector u of the Gram with eigenvalue lam gives projections
sqrt(k * lam) * u onto the corresponding principal direction. The all-ones
vector is a 0-eigenvector of the centered Gram, so nonzero-eigenvalue
coordinates are automatically mean-centered.

Eigenpairs come from LAPACK's symmetric eigensolver (numpy.linalg.eigh),
ordered by eigenvalue magnitude, which for the (positive semidefinite)
Gram matrix coincides with algebraic order. The source paper uses power
iteration; on a k x k Gram matrix the direct solver gives the same pairs
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape  # not xml.sax.saxutils, which imports urllib.request
from typing import TYPE_CHECKING

from .errors import NumericError

if TYPE_CHECKING:  # numpy and the vectorizer are imported where used, so report never loads them
    import numpy as np

SVG_WIDTH = 1000
SVG_HEIGHT = 800
SVG_MARGIN = 50.0
MAX_RADIUS = 40.0


@dataclass(frozen=True)
class ClusterMap:
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

    def __post_init__(self) -> None:
        k = len(self.coords)
        if not k or len(self.labels) != k or len(self.sizes) != k:
            raise ValueError("coords, labels and sizes must be non-empty and of one length")
        if min(self.sizes) < 0:
            raise ValueError("a cluster size is negative")
        if any(not (0 <= i < k and 0 <= j < k) for i, j, _ in self.edges):
            raise ValueError(f"an edge ends outside range({k})")


def top_eigenpairs(S: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-m eigenpairs of a symmetric matrix, largest magnitude first, by
    LAPACK's symmetric solver. Returns (eigenvalues, eigenvectors as columns)."""
    import numpy as np

    vals, vecs = np.linalg.eigh(np.asarray(S, dtype=float))
    order = np.argsort(-np.abs(vals), kind="stable")[:m]
    return vals[order], vecs[:, order]


def pca_2d(axes: np.ndarray) -> tuple[np.ndarray, tuple[float, float], float]:
    """Project k cluster axes to 2D principal coordinates.

    Returns (coords, (lam1, lam2), explained) where coords is k x 2,
    lam1 >= lam2 >= 0 are the top population eigenvalues and explained is
    (lam1 + lam2) / total variance, 1.0 when the variance is zero. Collinear
    inputs give lam2 = 0 and y identically 0. Sign convention: within each
    component the coordinate of largest absolute value (first such index)
    is positive.
    """
    import numpy as np

    X = np.asarray(axes, dtype=float)
    k = X.shape[0]
    if k < 2:
        raise NumericError(f"need at least 2 cluster axes to map, got {k}")
    Xc = X - X.mean(axis=0)
    G = (Xc @ Xc.T) / k
    total = float(np.sum(Xc * Xc)) / k
    # identical axes leave only centering roundoff (~eps^2 of the data
    # scale); floor that to an exactly-zero spectrum
    zero = float(np.sum(X * X)) / k * 1e-24
    if float(np.max(np.abs(G))) <= zero:
        return np.zeros((k, 2)), (0.0, 0.0), 1.0 if total <= zero else 0.0
    vals, vecs = top_eigenpairs(G, 2)
    # Gram matrices are PSD, so negatives are roundoff; so is a value under a
    # few k * eps * lam1, which eigh leaves where collinear axes give exactly 0
    floor = 4.0 * k * np.finfo(float).eps * float(vals[0])
    coords = np.zeros((k, 2))
    lams = [0.0 if lam <= floor else float(lam) for lam in vals]
    for j, lam in enumerate(lams):
        if lam > 0.0:
            col = np.sqrt(k * lam) * vecs[:, j]
            pivot = int(np.argmax(np.abs(col)))
            coords[:, j] = -col if col[pivot] < 0.0 else col
    explained = 1.0 if total <= zero else min(1.0, (lams[0] + lams[1]) / total)
    return coords, (lams[0], lams[1]), explained


def build_edges(axes: np.ndarray, tau: float) -> list[tuple[int, int, float]]:
    """Pairs (i, j, cosine) with i < j and cosine >= tau, in (i, j) order."""
    import numpy as np

    from .vectorize import axis_cosines

    sims = axis_cosines(axes, axes)
    rows, cols = np.triu_indices(sims.shape[0], 1)  # i < j, in (i, j) order
    upper = sims[rows, cols]
    keep = upper >= tau
    return list(zip(rows[keep].tolist(), cols[keep].tolist(), upper[keep].tolist()))


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


def build_cluster_map(period_id: str, axes: np.ndarray, tau: float, labels, sizes) -> ClusterMap:
    """The map of k cluster axes, with their labels and sizes in axis order."""
    coords, vals, explained = pca_2d(axes)
    edges = build_edges(axes, tau)
    comps = connected_components(axes.shape[0], edges)
    return ClusterMap(
        period_id=period_id,
        tau=tau,
        coords=tuple((float(x), float(y)) for x, y in coords),
        eigenvalues=vals,
        explained_variance=explained,
        edges=tuple(edges),
        components=tuple(comps),
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
        f"<!-- cluster map {escape(cmap.period_id, quote=False)} -->",
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
            f"{escape(labels[c], quote=False)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
