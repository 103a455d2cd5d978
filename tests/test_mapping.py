import html
import math

import numpy as np
import pytest

from diachron.errors import NumericError
from diachron.mapping import (
    MAX_RADIUS,
    build_cluster_map,
    build_edges,
    connected_components,
    cosine,
    dot,
    gram_matrix,
    pca_2d,
    render_svg,
    symmetric_eigenpairs,
)

from oracles import jacobi_eigenvalues, sparse_rows


def _pca(dense):
    """pca_2d of the dense rows, passed as sparse axes, with k x 2 coords."""
    coords, vals, explained = pca_2d(gram_matrix(sparse_rows(dense)))
    return np.array(coords).reshape(-1, 2), vals, explained


def _edges(dense, tau):
    """build_edges of the dense rows, passed as sparse axes."""
    return build_edges(gram_matrix(sparse_rows(dense)), tau)


def _cosines(a, b):
    """The cosine helper over every pair of dense rows of a and b."""
    rows_a, rows_b = sparse_rows(a), sparse_rows(b)
    return np.array(
        [[cosine(dot(u, v), dot(u, u), dot(v, v)) for v in rows_b] for u in rows_a]
    ).reshape(len(rows_a), len(rows_b))


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


def _eigen(S):
    """symmetric_eigenpairs of S as arrays: eigenvalues, eigenvectors as columns."""
    vals, vecs = symmetric_eigenpairs(np.asarray(S, dtype=float).tolist())
    return np.array(vals), np.array(vecs).T


def _assert_eigenpairs(S, vals, vecs, lam):
    """vals match the spectrum lam; each pair's residual and the vectors'
    orthonormality are at the scale of rounding."""
    n = len(S)
    scale = max(float(np.max(np.abs(S))), 1e-300)
    assert np.all(np.diff(vals) >= 0.0)  # ascending
    assert np.max(np.abs(vals - np.sort(lam))) <= 1e-12 * scale
    assert np.max(np.abs(S @ vecs - vecs * vals)) <= 1e-12 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12


class TestSymmetricEigenpairs:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 20])
    def test_matches_jacobi_and_lapack_on_random_matrices(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            S = _random_symmetric(rng, n)
            vals, vecs = _eigen(S)
            _assert_eigenpairs(S, vals, vecs, np.linalg.eigvalsh(S))
            scale = float(np.max(np.abs(S)))
            assert np.max(np.abs(vals[::-1] - jacobi_eigenvalues(S))) <= 1e-10 * scale

    def test_bit_identical_on_repeated_calls(self):
        S = _random_symmetric(np.random.default_rng(4), 12)
        assert _eigen(S)[0].tobytes() == _eigen(S)[0].tobytes()
        assert _eigen(S)[1].tobytes() == _eigen(S)[1].tobytes()

    def test_diagonal_matrix_exact(self):
        S = np.diag([5.0, -3.0, 1.0])
        vals, vecs = _eigen(S)
        assert vals.tolist() == [-3.0, 1.0, 5.0]
        _assert_eigenpairs(S, vals, vecs, [5.0, -3.0, 1.0])

    @pytest.mark.parametrize("n", [3, 6, 20])
    def test_repeated_top_eigenvalue(self, n):
        # lam1 = lam2: any orthonormal basis of their plane is a valid answer
        rng = np.random.default_rng(50 + n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([[2.0, 2.0], rng.uniform(-1.0, 1.0, n - 2)])
        S = (Q * lam) @ Q.T
        S = (S + S.T) / 2.0
        vals, vecs = _eigen(S)
        _assert_eigenpairs(S, vals, vecs, lam)

    def test_near_tied_opposite_sign_pair(self):
        # eigenvalues {1.0, -0.999999}: plain power iteration cannot separate these
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([1.0, -0.999999, 0.3, -0.1])
        S = Q @ np.diag(lam) @ Q.T
        vals, vecs = _eigen((S + S.T) / 2.0)
        _assert_eigenpairs(S, vals, vecs, lam)

    def test_rank_one_matrix(self):
        u = np.random.default_rng(6).standard_normal(7)
        S = np.outer(u, u)
        vals, vecs = _eigen(S)
        _assert_eigenpairs(S, vals, vecs, [float(u @ u)] + [0.0] * 6)
        top = vecs[:, -1]
        assert abs(float(top @ u)) == pytest.approx(float(np.linalg.norm(u)), rel=1e-12)

    def test_zero_matrix_gives_zero_eigenvalues(self):
        vals, vecs = _eigen(np.zeros((3, 3)))
        assert vals.tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(vecs.T @ vecs, np.eye(3))


class TestCosine:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_cosine(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((int(rng.integers(1, 8)), 6)) * (rng.random((1, 6)) < 0.7)
        b = rng.random((int(rng.integers(2, 8)), 6))
        b[0] = 0.0  # an all-zero row
        a[-1] = b[-1]  # a row shared by both sides
        sims = _cosines(a, b)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                u, v = a[i], b[j]
                denom = float(np.linalg.norm(u) * np.linalg.norm(v))
                want = min(1.0, float(u @ v) / denom) if denom > 0.0 else 0.0
                assert sims[i, j] == pytest.approx(want, abs=1e-15)
        assert np.all(sims[:, 0] == 0.0)
        assert sims[-1, -1] == 1.0

    def test_equal_rows_are_exactly_one(self):
        rng = np.random.default_rng(9)
        # scales whose squared norms neither overflow nor underflow
        rows = rng.random((200, 7)) * 10.0 ** rng.uniform(-60, 60, (200, 1))
        rows *= rng.random((200, 7)) < 0.6
        rows[:, 0] += 1e-3 * np.abs(rows[:, 1])  # no zero row
        for row in sparse_rows(rows):
            twin = dict(reversed(row.items()))  # the same row, its terms in another order
            assert cosine(dot(row, twin), dot(row, row), dot(twin, twin)) == 1.0

    def test_no_cosine_exceeds_one(self):
        rng = np.random.default_rng(10)
        base = rng.random((50, 30))
        near = base * (1.0 + 1e-15 * rng.standard_normal((50, 30)))  # all but parallel
        assert np.all(_cosines(base, near) <= 1.0)

    def test_zero_row_gives_zero(self):
        assert cosine(0.0, 0.0, 1.0) == 0.0
        assert cosine(0.0, 0.0, 0.0) == 0.0

    def test_dot_is_symmetric_and_exact(self):
        rng = np.random.default_rng(11)
        u, v = sparse_rows(rng.random((2, 40)) * (rng.random((2, 40)) < 0.5))
        assert dot(u, v) == dot(v, u) == math.fsum(w * v[t] for t, w in u.items() if t in v)

    def test_gram_matrix_is_symmetric_with_self_dots_on_the_diagonal(self):
        rows = sparse_rows(np.random.default_rng(12).random((5, 9)))
        gram = gram_matrix(rows)
        assert all(gram[i][j] == gram[j][i] == dot(rows[i], rows[j]) for i in range(5) for j in range(5))


class TestPca2d:
    def test_three_collinear_points(self):
        axes = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        coords, (lam1, lam2), _ = _pca(axes)
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
            coords, (lam1, lam2), _ = _pca(axes)
            assert lam1 > 0.0
            assert lam2 == 0.0
            assert np.all(coords[:, 1] == 0.0)

    def test_identical_axes_collapse_to_origin(self):
        axes = np.tile(np.array([0.6, 0.8]), (4, 1))
        coords, (lam1, lam2), _ = _pca(axes)
        assert np.allclose(coords, 0.0, atol=1e-12)
        assert lam1 == 0.0
        assert lam2 == 0.0

    def test_coords_are_mean_centered(self):
        rng = np.random.default_rng(6)
        axes = rng.random((6, 4))
        coords, _, _ = _pca(axes)
        assert abs(coords[:, 0].sum()) < 1e-9
        assert abs(coords[:, 1].sum()) < 1e-9

    def test_projection_directions_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            axes = rng.random((5, 3))
            coords, (lam1, lam2), _ = _pca(axes)
            if lam1 > 1e-9 and lam2 > 1e-9:
                u = coords[:, 0] / np.linalg.norm(coords[:, 0])
                v = coords[:, 1] / np.linalg.norm(coords[:, 1])
                assert abs(float(u @ v)) < 1e-10

    def test_eigenvalues_sorted_and_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            axes = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 6))))
            _, (lam1, lam2), _ = _pca(axes)
            assert lam1 >= lam2 >= 0.0

    def test_vocabulary_column_permutation_preserves_eigenvalues(self):
        rng = np.random.default_rng(9)
        axes = rng.random((5, 6))
        _, before, _ = _pca(axes)
        perm = rng.permutation(6)
        _, after, _ = _pca(axes[:, perm])
        assert after[0] == pytest.approx(before[0], abs=1e-10)
        assert after[1] == pytest.approx(before[1], abs=1e-10)

    def test_matches_full_eigendecomposition(self):
        rng = np.random.default_rng(10)
        axes = rng.random((6, 5))
        _, (lam1, lam2), _ = _pca(axes)
        Xc = axes - axes.mean(axis=0)
        ref = sorted(np.linalg.eigvalsh((Xc @ Xc.T) / 6.0), reverse=True)
        assert lam1 == pytest.approx(ref[0], abs=1e-9)
        assert lam2 == pytest.approx(ref[1], abs=1e-9)

    def test_single_axis_rejected(self):
        with pytest.raises(NumericError):
            _pca(np.array([[1.0, 0.0]]))


class TestBuildEdges:
    def test_threshold_above_max_similarity_gives_no_edges(self):
        axes = np.array([[1.0, 0.0], [0.8, 0.6]])
        assert _edges(axes, 0.99) == []

    def test_identical_axes_link_with_similarity_one(self):
        axes = np.array([[0.6, 0.8], [0.6, 0.8]])
        edges = _edges(axes, 0.5)
        assert edges == [(0, 1, 1.0)]

    def test_bridge_axis_links_to_both_endpoints(self):
        s = 1.0 / math.sqrt(2.0)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        edges = _edges(axes, 0.5)
        assert [(i, j) for i, j, _ in edges] == [(0, 2), (1, 2)]
        for _, _, sim in edges:
            assert sim == pytest.approx(0.70711, abs=5e-6)

    def test_edges_in_lexicographic_pair_order(self):
        rng = np.random.default_rng(11)
        axes = rng.random((6, 4))
        pairs = [(i, j) for i, j, _ in _edges(axes, 0.01)]
        assert pairs == sorted(pairs)

    def test_similarities_clamped_to_unit_interval(self):
        rng = np.random.default_rng(12)
        axes = rng.random((5, 3))
        for _, _, sim in _edges(axes, 0.01):
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
        _, _, explained = _pca(axes)
        assert explained == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_defined_as_one(self):
        axes = np.tile(np.array([0.6, 0.8]), (3, 1))
        _, _, explained = _pca(axes)
        assert explained == 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            axes = rng.random((6, 5))
            _, _, ev = _pca(axes)
            assert 0.0 <= ev <= 1.0


class TestBuildClusterMap:
    def test_invariants_hold(self):
        rng = np.random.default_rng(17)
        axes = rng.random((6, 4))
        cmap = build_cluster_map("P1", gram_matrix(sparse_rows(axes)), 0.2, list("abcdef"), [1] * 6)
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
        return build_cluster_map("P1", gram_matrix(sparse_rows(axes)), 0.5, *_labels_sizes(pairs))

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
        labels = ("a<b", "c&d", "e>f 'g' \"&amp;\"")
        svg = render_svg(self._map([(label, 1) for label in labels]))
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg
        assert "a<b" not in svg
        for label in labels:  # the html module's escape is the reference
            assert f">{html.escape(label, quote=False)}</text>" in svg

    def test_edge_opacity_tracks_similarity(self):
        cmap = self._map([("a", 1), ("b", 1), ("c", 1)])
        svg = render_svg(cmap)
        assert 'stroke-opacity="0.707"' in svg
