import math

import numpy as np
import pytest

from diachron.errors import NumericError
from diachron.mapping import (
    MAX_RADIUS,
    build_cluster_map,
    build_edges,
    connected_components,
    pca_2d,
    render_svg,
    top_eigenpairs,
)


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


def _random_symmetric(rng, n=5):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


class TestJacobiOracleSelfCheck:
    def test_oracle_agrees_with_lapack(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            S = _random_symmetric(rng)
            mine = jacobi_eigenvalues(S)
            ref = sorted(np.linalg.eigvalsh(S), reverse=True)
            assert np.allclose(mine, ref, atol=1e-10)


class TestTopEigenpairs:
    def test_matches_jacobi_oracle_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            S = _random_symmetric(rng)
            vals, vecs = top_eigenpairs(S, 5)
            assert np.allclose(sorted(vals, reverse=True), jacobi_eigenvalues(S), atol=1e-8)
            # the residual bound leaves room for an iterative solver's
            # angle error; eigenvalues carry a much smaller error
            scale = float(np.max(np.abs(S)))
            for j in range(5):
                resid = np.linalg.norm(S @ vecs[:, j] - vals[j] * vecs[:, j])
                assert resid <= 1e-5 * max(scale, 1.0)
            gram = vecs.T @ vecs
            assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_ordered_by_magnitude(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            S = _random_symmetric(rng)
            vals, _ = top_eigenpairs(S, 5)
            mags = np.abs(vals)
            assert all(a >= b - 1e-9 for a, b in zip(mags, mags[1:]))

    def test_diagonal_matrix_exact(self):
        S = np.diag([5.0, -3.0, 1.0])
        vals, vecs = top_eigenpairs(S, 3)
        assert np.allclose(sorted(vals, reverse=True), [5.0, 1.0, -3.0], atol=1e-10)
        for j, lam in enumerate(vals):
            assert np.allclose(S @ vecs[:, j], lam * vecs[:, j], atol=1e-5)

    def test_near_tied_opposite_sign_pair(self):
        # eigenvalues {1.0, -0.999999}: plain power iteration cannot separate
        # these; the solver must
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([1.0, -0.999999, 0.3, -0.1])
        S = Q @ np.diag(lam) @ Q.T
        vals, vecs = top_eigenpairs(S, 4)
        assert np.allclose(sorted(vals, reverse=True), sorted(lam, reverse=True), atol=1e-8)
        gram = vecs.T @ vecs
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_zero_matrix_gives_zero_eigenvalues(self):
        vals, vecs = top_eigenpairs(np.zeros((3, 3)), 2)
        assert tuple(vals) == (0.0, 0.0)
        assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)


class TestPca2d:
    def test_three_collinear_points(self):
        axes = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        coords, (lam1, lam2), _ = pca_2d(axes)
        assert lam1 == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert lam2 == pytest.approx(0.0, abs=1e-12)
        # first index of maximal |x| is made positive
        root2 = math.sqrt(2.0)
        assert np.allclose(coords[:, 0], [root2, 0.0, -root2], atol=1e-9)
        assert np.allclose(coords[:, 1], 0.0, atol=1e-12)

    def test_collinear_axes_have_no_second_coordinate(self):
        # points on one line: the second eigenvalue is 0 up to roundoff,
        # which must not become a spurious second coordinate
        rng = np.random.default_rng(14)
        for _ in range(50):
            k, v = int(rng.integers(2, 12)), int(rng.integers(2, 40))
            axes = np.outer(rng.random(k), rng.random(v)) + rng.random(v)
            coords, (lam1, lam2), _ = pca_2d(axes)
            assert lam1 > 0.0
            assert lam2 == 0.0
            assert np.all(coords[:, 1] == 0.0)

    def test_identical_axes_collapse_to_origin(self):
        axes = np.tile(np.array([0.6, 0.8]), (4, 1))
        coords, (lam1, lam2), _ = pca_2d(axes)
        assert np.allclose(coords, 0.0, atol=1e-12)
        assert lam1 == 0.0
        assert lam2 == 0.0

    def test_coords_are_mean_centered(self):
        rng = np.random.default_rng(6)
        axes = rng.random((6, 4))
        coords, _, _ = pca_2d(axes)
        assert abs(coords[:, 0].sum()) < 1e-9
        assert abs(coords[:, 1].sum()) < 1e-9

    def test_projection_directions_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            axes = rng.random((5, 3))
            coords, (lam1, lam2), _ = pca_2d(axes)
            if lam1 > 1e-9 and lam2 > 1e-9:
                u = coords[:, 0] / np.linalg.norm(coords[:, 0])
                v = coords[:, 1] / np.linalg.norm(coords[:, 1])
                assert abs(float(u @ v)) < 1e-10

    def test_eigenvalues_sorted_and_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            axes = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 6))))
            _, (lam1, lam2), _ = pca_2d(axes)
            assert lam1 >= lam2 >= 0.0

    def test_vocabulary_column_permutation_preserves_eigenvalues(self):
        rng = np.random.default_rng(9)
        axes = rng.random((5, 6))
        _, before, _ = pca_2d(axes)
        perm = rng.permutation(6)
        _, after, _ = pca_2d(axes[:, perm])
        assert after[0] == pytest.approx(before[0], abs=1e-10)
        assert after[1] == pytest.approx(before[1], abs=1e-10)

    def test_matches_full_eigendecomposition(self):
        rng = np.random.default_rng(10)
        axes = rng.random((6, 5))
        _, (lam1, lam2), _ = pca_2d(axes)
        Xc = axes - axes.mean(axis=0)
        ref = sorted(np.linalg.eigvalsh((Xc @ Xc.T) / 6.0), reverse=True)
        assert lam1 == pytest.approx(ref[0], abs=1e-9)
        assert lam2 == pytest.approx(ref[1], abs=1e-9)

    def test_single_axis_rejected(self):
        with pytest.raises(NumericError):
            pca_2d(np.array([[1.0, 0.0]]))


class TestBuildEdges:
    def test_threshold_above_max_similarity_gives_no_edges(self):
        axes = np.array([[1.0, 0.0], [0.8, 0.6]])
        assert build_edges(axes, 0.99) == []

    def test_identical_axes_link_with_similarity_one(self):
        axes = np.array([[0.6, 0.8], [0.6, 0.8]])
        edges = build_edges(axes, 0.5)
        assert edges == [(0, 1, 1.0)]

    def test_bridge_axis_links_to_both_endpoints(self):
        s = 1.0 / math.sqrt(2.0)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        edges = build_edges(axes, 0.5)
        assert [(i, j) for i, j, _ in edges] == [(0, 2), (1, 2)]
        for _, _, sim in edges:
            assert sim == pytest.approx(0.70711, abs=5e-6)

    def test_edges_in_lexicographic_pair_order(self):
        rng = np.random.default_rng(11)
        axes = rng.random((6, 4))
        pairs = [(i, j) for i, j, _ in build_edges(axes, 0.01)]
        assert pairs == sorted(pairs)

    def test_similarities_clamped_to_unit_interval(self):
        rng = np.random.default_rng(12)
        axes = rng.random((5, 3))
        for _, _, sim in build_edges(axes, 0.01):
            assert 0.01 <= sim <= 1.0


class TestConnectedComponents:
    def test_no_edges_gives_singletons(self):
        assert connected_components(3, []) == [(0,), (1,), (2,)]

    def test_path_plus_isolated_vertex(self):
        comps = connected_components(4, [(0, 1, 0.9), (1, 2, 0.8)])
        assert comps == [(0, 1, 2), (3,)]

    def test_largest_first_then_smallest_member(self):
        edges = [(3, 4, 0.9), (0, 1, 0.9)]
        comps = connected_components(6, edges)
        assert comps == [(0, 1), (3, 4), (2,), (5,)]

    def test_edge_order_invariance(self):
        rng = np.random.default_rng(13)
        edges = [(0, 1, 0.5), (1, 2, 0.5), (4, 5, 0.5), (2, 3, 0.5)]
        base = connected_components(7, edges)
        for _ in range(5):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            assert connected_components(7, shuffled) == base

    def test_components_partition_the_cluster_set(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(2, 10))
            edges = []
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.random() < 0.3:
                        edges.append((i, j, 0.9))
            comps = connected_components(k, edges)
            flat = [c for comp in comps for c in comp]
            assert sorted(flat) == list(range(k))


class TestExplainedVariance:
    def test_two_term_space_is_fully_explained(self):
        rng = np.random.default_rng(15)
        axes = rng.random((5, 2))
        _, _, explained = pca_2d(axes)
        assert explained == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_defined_as_one(self):
        axes = np.tile(np.array([0.6, 0.8]), (3, 1))
        _, _, explained = pca_2d(axes)
        assert explained == 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            axes = rng.random((6, 5))
            _, _, ev = pca_2d(axes)
            assert 0.0 <= ev <= 1.0


class TestBuildClusterMap:
    def test_invariants_hold(self):
        rng = np.random.default_rng(17)
        axes = rng.random((6, 4))
        cmap = build_cluster_map("P1", axes, 0.2, list("abcdef"), [1] * 6)
        assert cmap.period_id == "P1"
        xs = [c[0] for c in cmap.coords]
        ys = [c[1] for c in cmap.coords]
        assert abs(sum(xs)) < 1e-9
        assert abs(sum(ys)) < 1e-9
        for _, _, sim in cmap.edges:
            assert 0.2 <= sim <= 1.0
        flat = sorted(c for comp in cmap.components for c in comp)
        assert flat == list(range(6))
        assert cmap.eigenvalues[0] >= cmap.eigenvalues[1] >= 0.0
        assert 0.0 <= cmap.explained_variance <= 1.0


def _labels_sizes(pairs):
    return [label for label, _ in pairs], [size for _, size in pairs]


class TestRenderSvg:
    def _map(self, pairs):
        s = 1.0 / math.sqrt(2.0)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        return build_cluster_map("P1", axes, 0.5, *_labels_sizes(pairs))

    def test_deterministic_output(self):
        cmap = self._map([("alpha", 4), ("beta", 9), ("gamma", 1)])
        assert render_svg(cmap) == render_svg(cmap)

    def test_structure_and_counts(self):
        cmap = self._map([("alpha", 4), ("beta", 9), ("gamma", 1)])
        svg = render_svg(cmap)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert 'width="1000"' in svg
        assert 'height="800"' in svg
        assert svg.count("<circle ") == 3
        assert svg.count("<line ") == len(cmap.edges) == 2
        assert svg.count("<text ") == 3
        assert "alpha" in svg and "beta" in svg and "gamma" in svg

    def test_radius_scales_with_square_root_of_size(self):
        cmap = self._map([("alpha", 4), ("beta", 9), ("gamma", 1)])
        svg = render_svg(cmap)
        # max size 9 -> radius 40; size 4 -> 40*sqrt(4/9); size 1 -> 40/3
        assert f'r="{MAX_RADIUS * math.sqrt(4.0 / 9.0):.2f}"' in svg
        assert f'r="{MAX_RADIUS:.2f}"' in svg
        assert f'r="{MAX_RADIUS / 3.0:.2f}"' in svg

    def test_labels_are_xml_escaped(self):
        cmap = self._map([("a<b", 1), ("c&d", 1), ("e>f", 1)])
        svg = render_svg(cmap)
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg
        assert "e&gt;f" in svg
        assert "a<b" not in svg

    def test_edge_opacity_tracks_similarity(self):
        cmap = self._map([("a", 1), ("b", 1), ("c", 1)])
        svg = render_svg(cmap)
        assert 'stroke-opacity="0.707"' in svg
