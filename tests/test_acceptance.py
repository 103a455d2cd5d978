"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test prints one `criterion NN (label): PASS` or `... FAIL (reason)`
line; run `pytest tests/test_acceptance.py -v -s` to stream them. The
checks pin the oracle equivalences (Gini, eigensolver, exhaustive
two-cluster optimum), planted-structure recovery on synthetic corpora,
and byte-identical determinism of the full pipeline at scale, each at
its stated tolerance.
"""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

from diachron import artifacts, syngen
from diachron.cli import main as cli_main
from diachron.cluster import fit_axial_kmeans, summarize_clusters
from diachron.corpus import (
    CorpusSlice,
    Record,
    build_vocabulary,
    split_periods,
)
from diachron.diachrony import STATUS_NEW, STATUS_ROOTED, cross_table
from diachron.diffusion import (
    CATEGORY_UNUSUAL,
    _gini_rows,
    classify_terms,
)
from diachron.mapping import build_cluster_map, gram_matrix, pca_2d, symmetric_eigenpairs
from diachron.pipeline import ClusterConfig, DiffusionThresholds, PeriodSpec
from diachron.seeding import derive_seed
from diachron.vectorize import DocTermMatrix, build_matrix

from oracles import jacobi_eigenvalues, link_products, sparse_rows

PERIODS = PeriodSpec((1996, 1998), (2001, 2003))


def criterion(number, label):
    """Print one pass/fail line per criterion, then let pytest see the outcome."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                reason = str(exc).splitlines()[0][:160] if str(exc) else type(exc).__name__
                print(f"criterion {number:02d} ({label}): FAIL ({reason})", flush=True)
                raise
            print(f"criterion {number:02d} ({label}): PASS", flush=True)

        return wrapper

    return decorate


# ---------------------------------------------------------------- oracles


def gini(shares):
    """Gini of one share vector, through the library's row kernel."""
    return float(_gini_rows(np.asarray(shares, dtype=float)[None, :])[0])


def gini_pairwise(shares):
    """O(m^2) mean-absolute-difference form: sum|xi-xj| over ordered pairs / (2m*sum)."""
    m = len(shares)
    total = math.fsum(shares)
    diff = math.fsum(abs(a - b) for a, b in itertools.combinations(shares, 2))
    return diff / (m * total)


def lambda_max(rows):
    gram = rows @ rows.T
    return float(np.linalg.eigvalsh(gram)[-1])


def best_two_cluster_objective(rows):
    """Exhaustive two-partition optimum; per-side optimum is the Gram's top eigenvalue."""
    n = rows.shape[0]
    best = -math.inf
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            best = max(best, lambda_max(rows[mask]) + lambda_max(rows[~mask]))
    return best


# ---------------------------------------------------------------- helpers


def unit_csr(dense, period_id="P1"):
    dense = dense / np.linalg.norm(dense, axis=1, keepdims=True)
    return DocTermMatrix(
        period_id=period_id,
        matrix=sp.csr_matrix(dense),
        doc_ids=tuple(f"doc-{i:04d}" for i in range(dense.shape[0])),
    )


def preset_state(name, seed, min_df=2):
    records, truth = syngen.generate(syngen.preset(name, seed=seed))
    p1, p2, _ = split_periods(records, PERIODS)
    vocabulary = build_vocabulary(p1, p2, min_df)
    return p1, p2, vocabulary, truth


def fit_period(slice_, vocabulary, k, seed):
    matrix = build_matrix(slice_, vocabulary, "tfidf")
    config = ClusterConfig(k=k, seed=derive_seed(seed, f"cluster.{slice_.period_id}"))
    return matrix, fit_axial_kmeans(matrix, config)


def dir_hashes(path):
    return {
        name: artifacts.sha256_file(os.path.join(path, name))
        for name in os.listdir(path)
    }


def write_run_config(path, corpus_path, k, seed):
    path.write_text(
        json.dumps(
            {
                "input": str(corpus_path),
                "periods": {"p1": [1996, 1998], "p2": [2001, 2003]},
                "cluster": {"k": k},
                "seed": seed,
            }
        ),
        encoding="utf-8",
    )
    return path


# The sha256 of each artifact of two `run`s, pinned across commits; a change
# that alters artifact bytes on purpose updates them and says so in
# CHANGES.md. run_manifest.json is left out: it records the input's path.
# geometry.json records the Python, numpy and scipy versions of the fit, so
# its pin, and provenance.json's, which holds its hash, hold for one set of
# them: Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
PINNED_SHA256 = {
    ("three-blocks", 3): {
        "clusters_P1.json": "5acc49b34d651e5e32c91e311d3f72a29d7086f8cce9ce19d3bdece5cf356f17",
        "clusters_P2.json": "201961408e5d8450bf1262feadc0157cf753a681ab4b6f364afc2d4d85262f3f",
        "corpus.jsonl": "8128ae784c9dbd12179f3e223a4817c31d9829ec7274f2b6cb46f3eab8eab50e",
        "crosstab.csv": "111eb28761c8be74a858d89be675efbdba3f135dc2f9695f69e429cc5451f38f",
        "geometry.json": "58577ce2a73c86cedd2d9f512b1192a8c609f9c34f1ca0d61d77dc4277a1d86f",
        "linkage.json": "e2023af23412fb0fe0dfa2f1655a8c969e80fbea0d1d116fe3dc5b03138fc542",
        "load_report.json": "a8ea5f5c4f82e3d1019f9e5501ae0460c279926c2bf9e4ee8ed412a507ea6df8",
        "map_P1.json": "3677ec68d7c27b74025f3f1780abc477e374fcb6b021aca7ddcdc2d44b2a48a3",
        "map_P1.svg": "cba3bb393f7c50f07ad7c5ee7ae29e9a27bff82b5d7a1fba0780dd1f733a042a",
        "map_P2.json": "188b0b9761e25a29f239a642f1958ee8247309e31260f36668ceb15d5ee4df60",
        "map_P2.svg": "508b5fbbf5b66f60db0c3881976a2823dceb04d83b21ffc1f26eebf453c8a97e",
        "provenance.json": "cbf04993d3aaa186e7230c4c662885883f2a111d3b6aab28893b1403c3c2b8e8",
        "terms.csv": "b29e9917e2e9544cf8b8d9d54e91bc8b302310d79e97fa84422d59fc630e7c4f",
    },
    ("large-scale", 10): {
        "clusters_P1.json": "63f502e2cf96a48bdc0083935b6ff98396982e69dec286f7d87bbf364dab9ecf",
        "clusters_P2.json": "ebb7fba062c122be855e58a82fc35ce968b460a22179c5d01c2697bad2ac292c",
        "corpus.jsonl": "f863005fbd74d47bf41f7b0f21f26da17ded90ee8acb158e115375a629f13119",
        "crosstab.csv": "378af4da1d1eaaf38e778e6ebf8a17259cbe471a4b9c8e519b5e6f77ff1d97f9",
        "geometry.json": "20ed17e101a2de8ed22c07faf41dbe86011ac685e21d59f14465f1e883f7750e",
        "linkage.json": "5b07068e4de16bd4acc8f4047f4091c77a597f7330aa9b737dd9c00eb55cef9e",
        "load_report.json": "a9801e03c29012c77ae340e1f2894f24ec65379d9ac4803b907773f68f39f3b1",
        "map_P1.json": "c0fdf2369fdb17091bb5954ec442741e6fd7e3ce14da5f9934396953d08ef111",
        "map_P1.svg": "9eb94d718f4fbce5600cabbe59c24546e1f003d0a98da113b0f2f2cf2d364d83",
        "map_P2.json": "c37288d0d0f21101cbf53d1447ea6d6c279d0bd4c8630c30bb12e9271b19df5e",
        "map_P2.svg": "19a5f6fcbf812ab1f04fffbf3d2e297ea7d251aeee35cf347d27d23fefe19c0e",
        "provenance.json": "687af6276dc643ed2175124878743073027c622fe73f55095c73d6d5fac29071",
        "terms.csv": "2464ff1da5b871c2cbdec1543072adac1dbcadfb4026c24af19b5bcf32fab7d2",
    },
}


def assert_pinned_bytes(out, preset, seed):
    hashes = dir_hashes(out)
    del hashes[artifacts.MANIFEST]
    assert hashes == PINNED_SHA256[(preset, seed)], f"{preset} seed {seed}: artifact bytes moved"


# ---------------------------------------------------------------- criteria


@criterion(1, "gini oracle equivalence")
def test_01_gini_matches_pairwise_oracle():
    assert gini([1, 0, 0, 0]) == 0.75

    rng = random.Random(0xD1AC01)
    vectors = []
    for _ in range(1000):
        m = rng.randint(1, 50)
        shares = [0.0 if rng.random() < 0.3 else rng.uniform(0.0, 1000.0) for _ in range(m)]
        if not any(shares):
            shares[rng.randrange(m)] = rng.uniform(1.0, 1000.0)
        vectors.append(shares)

    elapsed = 0.0
    for shares in vectors:
        start = time.perf_counter()
        fast = gini(shares)
        elapsed += time.perf_counter() - start
        assert abs(fast - gini_pairwise(shares)) <= 1e-12
    assert elapsed < 1.0, f"1000 gini calls took {elapsed:.3f}s"


@criterion(2, "tf-idf anchors and monotonicity")
def test_02_tfidf_anchors_and_monotonicity():
    # 100 records; term t{j} is in the first j of them
    records = [
        Record(f"d{i:03d}", 1996 if i < 50 else 2001, tuple(f"t{j:03d}" for j in range(i + 1, 101)))
        for i in range(100)
    ]
    slices = (CorpusSlice("P1", tuple(records[:50])), CorpusSlice("P2", tuple(records[50:])))
    vocabulary = build_vocabulary(*slices, min_df=1)
    scores = {s.term: s.tfidf for s in classify_terms(vocabulary, slices)}
    assert abs(scores["t010"] - 10 * math.log(10)) <= 1e-12
    per_df = [scores[f"t{df:03d}"] / df for df in range(1, 101)]  # the score at a fixed tf of 1
    assert all(a > b for a, b in zip(per_df, per_df[1:])), "not strictly decreasing in df"
    assert scores["t100"] == 0.0


@criterion(3, "monotone objective and fixed point")
def test_03_objective_trace_monotone_on_random_corpora():
    rng = np.random.default_rng(0xD1AC03)
    start = time.perf_counter()
    for trial in range(100):
        dense = rng.random((200, 100)) * (rng.random((200, 100)) < 0.06)
        for i in np.flatnonzero(~dense.any(axis=1)):
            dense[i, int(rng.integers(100))] = 0.5 + rng.random()
        matrix = unit_csr(dense)
        model = fit_axial_kmeans(matrix, ClusterConfig(k=5, restarts=10, seed=trial))

        trace = model.objective_trace
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:])), trial

        projections = np.asarray(matrix.matrix @ model.axes.T)
        assert np.array_equal(np.argmax(projections, axis=1), model.assignment), trial
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"100 corpora took {elapsed:.1f}s"


@criterion(4, "small-instance global optimality")
def test_04_best_of_restarts_reaches_exhaustive_optimum():
    # Instances are clusterable: two noisy document groups around random
    # non-negative directions, with arbitrary (including singleton) group
    # sizes.  On fully unstructured uniform matrices the farthest-first
    # init admits at most n distinct starting configurations for k=2, and
    # roughly one instance in ten has its optimum outside every reachable
    # basin regardless of restart count — tests/test_cluster.py covers that
    # regime at its measured rate.
    rng = np.random.default_rng(0xD1AC04)
    hits = 0
    for trial in range(100):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, 7))
        split = int(rng.integers(1, n))
        centers = rng.random((2, m))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rows = np.empty((n, m))
        for i in range(n):
            rows[i] = 0.8 * centers[0 if i < split else 1] + 0.2 * rng.random(m)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)

        config = ClusterConfig(k=2, restarts=10, tol=1e-14, max_iters=500, seed=trial)
        model = fit_axial_kmeans(unit_csr(rows), config)
        optimum = best_two_cluster_objective(rows)
        objective = model.objective_trace[-1]
        assert objective <= optimum + 1e-9, f"objective above exhaustive optimum on {trial}"
        if optimum - objective <= 1e-9:
            hits += 1
    assert hits >= 95, f"only {hits}/100 instances reached the optimum"


@criterion(5, "planted-cluster recovery")
def test_05_disjoint_blocks_recovered_exactly():
    p1, p2, vocabulary, truth = preset_state("three-blocks", seed=5)
    for slice_ in (p1, p2):
        matrix, model = fit_period(slice_, vocabulary, k=3, seed=5)
        assert matrix.doc_ids == tuple(r.id for r in slice_.records)  # none dropped
        cluster_of_block = {}
        for row, doc_id in enumerate(matrix.doc_ids):
            block = truth["doc_block"][doc_id]
            cluster = int(model.assignment[row])
            assert cluster_of_block.setdefault(block, cluster) == cluster, (
                f"{slice_.period_id}: block {block} split across clusters"
            )
        assert len(set(cluster_of_block.values())) == 3, f"{slice_.period_id}: blocks merged"


@criterion(6, "pca eigen oracle and collinear map")
def test_06_eigensolver_matches_jacobi_and_collinear_example():
    rng = np.random.default_rng(0xD1AC06)
    for _ in range(100):
        A = rng.standard_normal((5, 5))
        S = (A + A.T) / 2.0
        values, _ = symmetric_eigenpairs(S.tolist())
        assert np.allclose(sorted(values, reverse=True), jacobi_eigenvalues(S), atol=1e-8)

    gram = gram_matrix(sparse_rows([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    coords, eigenvalues, _ = pca_2d(gram)
    coords = np.array(coords)
    assert abs(eigenvalues[0] - 4.0 / 3.0) <= 1e-10
    assert abs(eigenvalues[1]) <= 1e-10
    expected_x = np.array([-math.sqrt(2.0), 0.0, math.sqrt(2.0)])
    x = coords[:, 0]
    assert np.allclose(x, expected_x, atol=1e-9) or np.allclose(x, -expected_x, atol=1e-9)
    assert np.allclose(coords[:, 1], 0.0, atol=1e-9)


@criterion(7, "diffusion category recovery")
def test_07_planted_categories_recovered():
    p1, p2, vocabulary, truth = preset_state("diffusion-mix", seed=7)
    stats = classify_terms(vocabulary, (p1, p2), DiffusionThresholds())
    category = {s.term: s.category for s in stats}

    planted = {t: c for t, c in truth["term_category"].items() if c != syngen.CATEGORY_UNPLANTED}
    assert planted
    hits = sum(1 for term, cat in planted.items() if category.get(term) == cat)
    assert hits >= math.ceil(0.95 * len(planted)), f"{hits}/{len(planted)} planted categories"

    novel_terms = [t for t, b in truth["term_block"].items() if b == truth["novel_block"]]
    assert novel_terms
    for term in novel_terms:
        assert vocabulary.df_p1[vocabulary.index[term]] == 0
        assert category[term] == CATEGORY_UNUSUAL, f"novel term {term} not unusual"


@criterion(8, "fresh-block linkage and cross table")
def test_08_fresh_block_is_the_single_new_cluster():
    p1, p2, vocabulary, truth = preset_state("fresh-block", seed=8)
    stats = classify_terms(vocabulary, (p1, p2), DiffusionThresholds())
    _, model_p1 = fit_period(p1, vocabulary, k=3, seed=8)
    matrix_p2, model_p2 = fit_period(p2, vocabulary, k=4, seed=8)
    summaries_p2 = summarize_clusters(model_p2, vocabulary, 10)

    novel_clusters = {
        int(model_p2.assignment[row])
        for row, doc_id in enumerate(matrix_p2.doc_ids)
        if truth["doc_block"][doc_id] == truth["novel_block"]
    }
    assert len(novel_clusters) == 1, "fresh block split across clusters"

    labels = [c.label for c in summaries_p2]
    for rho in (0.2, 0.3, 0.5):
        linkage = link_products(sparse_rows(model_p1.axes), sparse_rows(model_p2.axes), labels, rho)
        new_links = [l for l in linkage.links if l.status == STATUS_NEW]
        rooted_links = [l for l in linkage.links if l.status == STATUS_ROOTED]
        assert len(new_links) == 1, f"rho={rho}: {len(new_links)} new clusters"
        assert new_links[0].cluster_id in novel_clusters
        assert len(rooted_links) == 3
        for link in rooted_links:
            assert link.best_parent[1] >= 0.9, f"rho={rho}: weak root {link.best_parent}"

        table = cross_table(linkage, [[term for term, _ in c.top_terms] for c in summaries_p2], stats)
        share_new = table.shares[STATUS_NEW][CATEGORY_UNUSUAL]
        share_rooted = table.shares[STATUS_ROOTED][CATEGORY_UNUSUAL]
        assert share_new > share_rooted, f"rho={rho}: {share_new} <= {share_rooted}"


@criterion(9, "two cluster networks at default tau")
def test_09_two_supergroups_form_two_components():
    p1, p2, vocabulary, _ = preset_state("two-networks", seed=9)
    for slice_ in (p1, p2):
        _, model = fit_period(slice_, vocabulary, k=12, seed=9)
        labels = [str(c) for c in range(len(model.sizes))]
        axes = sparse_rows(model.axes)
        cluster_map = build_cluster_map(slice_.period_id, gram_matrix(axes), 0.2, labels, model.sizes)
        non_singleton = [c for c in cluster_map.components if len(c) > 1]
        assert len(non_singleton) == 2, (
            f"{slice_.period_id}: {len(non_singleton)} non-singleton components"
        )
        coverage = sum(len(c) for c in non_singleton) / len(model.sizes)
        assert 0.5 <= coverage <= 0.8, f"{slice_.period_id}: coverage {coverage:.2f}"


@criterion(10, "end-to-end determinism at scale")
def test_10_large_run_is_fast_and_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert cli_main(["syngen", "--preset", "large-scale", "--out", str(corpus_dir), "--seed", "10"]) == 0

    config_path = write_run_config(tmp_path / "config.json", corpus_dir / "corpus.jsonl", 20, 10)

    out_a, out_b, out_c = (str(tmp_path / name) for name in ("a", "b", "c"))
    start = time.perf_counter()
    assert cli_main(["run", "--config", str(config_path), "--out", out_a, "--threads", "1"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"full run took {elapsed:.1f}s"

    assert cli_main(["run", "--config", str(config_path), "--out", out_b, "--threads", "1"]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", out_c, "--threads", "4"]) == 0
    assert dir_hashes(out_a) == dir_hashes(out_b), "identical reruns differ"
    assert dir_hashes(out_a) == dir_hashes(out_c), "--threads 4 differs from --threads 1"
    assert_pinned_bytes(out_a, "large-scale", 10)


def test_small_run_bytes_are_pinned(tmp_path):
    corpus_dir = tmp_path / "corpus"
    argv = ["syngen", "--preset", "three-blocks", "--out", str(corpus_dir), "--seed", "3"]
    assert cli_main(argv) == 0
    config_path = write_run_config(tmp_path / "config.json", corpus_dir / "corpus.jsonl", 3, 3)
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert_pinned_bytes(tmp_path / "out", "three-blocks", 3)


def test_run_bytes_do_not_depend_on_blas_kernel_or_simd_targets(tmp_path):
    """`run` in a fresh process gives the same bytes whichever OpenBLAS kernel
    and numpy SIMD loops it gets. A BLAS without runtime kernel choice ignores
    OPENBLAS_CORETYPE, and the SIMD targets are the ones this numpy build
    dispatches (naming any other makes numpy refuse to start), so each case
    runs everywhere."""
    from numpy._core import _multiarray_umath

    corpus_dir = tmp_path / "corpus"
    argv = ["syngen", "--preset", "three-blocks", "--out", str(corpus_dir), "--seed", "3"]
    assert cli_main(argv) == 0
    config_path = write_run_config(tmp_path / "config.json", corpus_dir / "corpus.jsonl", 3, 3)
    src = os.path.dirname(os.path.dirname(artifacts.__file__))
    base = {
        name: value
        for name, value in os.environ.items()
        if name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    }
    base["PYTHONPATH"] = src
    cases = {
        "default": {},
        "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "no-simd-dispatch": {"NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)},
    }
    hashes = {}
    for name, env in cases.items():
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-c", "import sys; from diachron.cli import main; sys.exit(main(sys.argv[1:]))",
                "run", "--config", str(config_path), "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**base, **env},
        )
        assert proc.returncode == 0, (name, proc.stderr)
        hashes[name] = dir_hashes(out)
        del hashes[name][artifacts.MANIFEST]
    for name in cases:
        assert hashes[name] == hashes["default"], f"{name}: artifact bytes moved"
