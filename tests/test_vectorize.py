import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import diachron
from diachron.corpus import CorpusSlice, Record, build_vocabulary, normalize_term
from diachron.vectorize import build_matrix, idf_vector

keyword_strategy = (
    st.text(st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=12)
    .map(normalize_term)
    .filter(lambda s: s != "")
)


def cosine(u, v) -> float:
    """Oracle cosine of two dense or sparse vectors; 0.0 if either is all-zero."""
    u = np.asarray(u.toarray()).ravel() if sp.issparse(u) else np.asarray(u, dtype=float).ravel()
    v = np.asarray(v.toarray()).ravel() if sp.issparse(v) else np.asarray(v, dtype=float).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def _rec(rec_id, year, keywords):
    return Record(id=rec_id, year=year, keywords=tuple(sorted(set(keywords))), categories=())


def _dropped(slice_, dtm):
    """The slice's ids that build_matrix left out of the matrix, in id order."""
    kept = set(dtm.doc_ids)
    return tuple(r.id for r in slice_.records if r.id not in kept)


def _slices(p1_records, p2_records):
    return (
        CorpusSlice(period_id="P1", records=tuple(sorted(p1_records, key=lambda r: r.id))),
        CorpusSlice(period_id="P2", records=tuple(sorted(p2_records, key=lambda r: r.id))),
    )


def _small_corpus():
    p1 = [
        _rec("p1-a", 1996, ["alpha", "beta"]),
        _rec("p1-b", 1997, ["alpha", "gamma"]),
        _rec("p1-c", 1998, ["beta", "gamma"]),
    ]
    p2 = [
        _rec("p2-a", 1999, ["alpha", "beta", "gamma"]),
        _rec("p2-b", 2000, ["gamma"]),
    ]
    slices = _slices(p1, p2)
    vocab = build_vocabulary(slices[0], slices[1], min_df=1)
    return vocab, slices


class TestIdfVector:
    def test_matches_hand_computed_logs(self):
        vocab, _ = _small_corpus()
        # N_pooled=5; df(alpha)=3, df(beta)=3, df(gamma)=4
        expected = {"alpha": math.log(5 / 3), "beta": math.log(5 / 3), "gamma": math.log(5 / 4)}
        idf = idf_vector(vocab)
        for term, value in expected.items():
            assert idf[vocab.index[term]] == pytest.approx(value, abs=1e-12)

    def test_term_in_every_document_has_zero_idf(self):
        p1 = [_rec("p1-a", 1996, ["common", "x"])]
        p2 = [_rec("p2-a", 2001, ["common", "y"])]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        assert idf_vector(vocab)[vocab.index["common"]] == 0.0


class TestBuildMatrix:
    def test_single_keyword_binary_row_is_unit_entry(self):
        p1 = [_rec("p1-a", 1996, ["alpha"]), _rec("p1-b", 1996, ["beta"])]
        p2 = [_rec("p2-a", 2001, ["alpha", "beta"])]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        dtm = build_matrix(slices[0], vocab, "binary")
        row = dtm.matrix.getrow(0).toarray().ravel()
        assert np.count_nonzero(row) == 1
        assert row[vocab.index["alpha"]] == 1.0

    def test_four_keywords_binary_entries_are_half(self):
        p1 = [_rec("p1-a", 1996, ["a", "b", "c", "d"])]
        p2 = [_rec("p2-a", 2001, ["a", "b", "c", "d"])]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        dtm = build_matrix(slices[0], vocab, "binary")
        row = dtm.matrix.getrow(0).toarray().ravel()
        assert np.allclose(row, 0.5)

    def test_tfidf_weights_proportional_to_idf(self):
        # idf(t1)=ln10 (df 10 of 100), idf(t2)=ln100 (df 1 of 100)
        target = _rec("p1-000", 1996, ["t1", "t2"])
        p1 = [target] + [
            _rec(f"p1-{i:03d}", 1996, ["t1", "pad"] if i <= 9 else ["pad"]) for i in range(1, 50)
        ]
        p2 = [_rec(f"p2-{i:03d}", 2001, ["pad"]) for i in range(50)]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        assert vocab.df_p1[vocab.index["t1"]] + vocab.df_p2[vocab.index["t1"]] == 10
        assert vocab.df_p1[vocab.index["t2"]] + vocab.df_p2[vocab.index["t2"]] == 1

        dtm = build_matrix(slices[0], vocab, "tfidf")
        row = dtm.matrix.getrow(dtm.doc_ids.index("p1-000")).toarray().ravel()
        denominator = math.sqrt(math.log(10) ** 2 + math.log(100) ** 2)
        assert row[vocab.index["t1"]] == pytest.approx(math.log(10) / denominator, abs=1e-12)
        assert row[vocab.index["t2"]] == pytest.approx(math.log(100) / denominator, abs=1e-12)
        assert row[vocab.index["t1"]] == pytest.approx(0.4472, abs=5e-5)
        assert row[vocab.index["t2"]] == pytest.approx(0.8944, abs=5e-5)

    def test_rows_keyed_by_sorted_record_id(self):
        vocab, slices = _small_corpus()
        dtm = build_matrix(slices[0], vocab)
        assert dtm.doc_ids == ("p1-a", "p1-b", "p1-c")
        assert dtm.period_id == "P1"

    def test_all_rows_unit_norm_and_columns_sorted(self):
        vocab, slices = _small_corpus()
        for slice_ in slices:
            for weighting in ("binary", "tfidf"):
                dtm = build_matrix(slice_, vocab, weighting)
                m = dtm.matrix
                norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
                assert np.allclose(norms, 1.0, atol=1e-12)
                for r in range(m.shape[0]):
                    cols = m.indices[m.indptr[r] : m.indptr[r + 1]]
                    assert all(a < b for a, b in zip(cols, cols[1:]))
                    assert all(w > 0 for w in m.data[m.indptr[r] : m.indptr[r + 1]])

    def test_zero_idf_entries_not_stored_and_empty_rows_dropped(self):
        # "common" is in every doc (idf 0); p1-b has only "common" so its
        # tfidf row is empty and the doc is dropped from the matrix
        p1 = [_rec("p1-a", 1996, ["common", "x"]), _rec("p1-b", 1996, ["common"])]
        p2 = [_rec("p2-a", 2001, ["common", "y"])]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        dtm = build_matrix(slices[0], vocab, "tfidf")
        assert dtm.doc_ids == ("p1-a",)
        assert _dropped(slices[0], dtm) == ("p1-b",)
        assert dtm.matrix.shape == (1, len(vocab.terms))
        row = dtm.matrix.getrow(0).toarray().ravel()
        assert row[vocab.index["common"]] == 0.0
        assert row[vocab.index["x"]] == 1.0

    def test_binary_weighting_keeps_zero_idf_terms(self):
        p1 = [_rec("p1-a", 1996, ["common"]), _rec("p1-b", 1996, ["common", "x"])]
        p2 = [_rec("p2-a", 2001, ["common"])]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        dtm = build_matrix(slices[0], vocab, "binary")
        assert dtm.doc_ids == ("p1-a", "p1-b")
        assert _dropped(slices[0], dtm) == ()

    def test_out_of_vocabulary_keywords_ignored(self):
        vocab, slices = _small_corpus()
        extra = _rec("p1-z", 1996, ["alpha", "not-in-vocab"])
        slice_ = CorpusSlice(period_id="P1", records=(*slices[0].records, extra))
        dtm = build_matrix(slice_, vocab, "binary")
        row = dtm.matrix.getrow(dtm.doc_ids.index("p1-z")).toarray().ravel()
        assert np.count_nonzero(row) == 1
        assert row[vocab.index["alpha"]] == 1.0

    def test_nnz_equals_sum_of_surviving_keyword_counts(self):
        vocab, slices = _small_corpus()
        dtm = build_matrix(slices[0], vocab, "binary")
        expected = sum(len([t for t in r.keywords if t in vocab.index]) for r in slices[0].records)
        assert dtm.matrix.nnz == expected

    def test_record_shuffling_does_not_change_matrix(self):
        vocab, slices = _small_corpus()
        baseline = build_matrix(slices[0], vocab)
        shuffled = CorpusSlice(
            period_id="P1",
            records=tuple(sorted(slices[0].records, key=lambda r: r.id, reverse=True)[::-1]),
        )
        again = build_matrix(shuffled, vocab)
        assert again.doc_ids == baseline.doc_ids
        assert (again.matrix != baseline.matrix).nnz == 0


class TestCosine:
    def test_self_similarity_is_one(self):
        assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_are_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_forty_five_degree_anchor(self):
        u = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]
        assert cosine(u, [1.0, 0.0]) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
        assert cosine(u, [1.0, 0.0]) == pytest.approx(0.70711, abs=5e-6)

    def test_zero_vector_gives_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_accepts_sparse_rows(self):
        vocab, slices = _small_corpus()
        dtm = build_matrix(slices[0], vocab, "binary")
        u = dtm.matrix.getrow(0)
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)
        value = cosine(dtm.matrix.getrow(0), dtm.matrix.getrow(1))
        assert 0.0 <= value <= 1.0

    def test_matrix_row_cosines_stay_in_unit_interval(self):
        vocab, slices = _small_corpus()
        dtm = build_matrix(slices[0], vocab)
        for i in range(dtm.matrix.shape[0]):
            for j in range(dtm.matrix.shape[0]):
                value = cosine(dtm.matrix.getrow(i), dtm.matrix.getrow(j))
                assert -1e-12 <= value <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=1900, max_value=2100),
            st.lists(keyword_strategy, min_size=1, max_size=5),
        ),
        min_size=2,
        max_size=10,
    )
)
def test_random_corpora_produce_unit_rows(data):
    half = max(1, len(data) // 2)
    p1 = [_rec(f"p1-{i:03d}", y, kws) for i, (y, kws) in enumerate(data[:half])]
    p2 = [_rec(f"p2-{i:03d}", y, kws) for i, (y, kws) in enumerate(data[half:])]
    if not p2:
        p2 = [_rec("p2-000", 2001, ["pad"])]
    slices = _slices(p1, p2)
    vocab = build_vocabulary(slices[0], slices[1], min_df=1)
    for weighting in ("binary", "tfidf"):
        dtm = build_matrix(slices[0], vocab, weighting)
        m = dtm.matrix
        assert len(dtm.doc_ids) + len(_dropped(slices[0], dtm)) == slices[0].n_docs
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0, atol=1e-12)


def _reference_rows(slice_, vocabulary, weighting):
    """Per-record oracle: (doc ids, dropped ids, [(column, weight), ...] per kept row)."""
    idf = idf_vector(vocabulary)
    doc_ids, dropped, rows = [], [], []
    for rec in slice_.records:
        cols = sorted(vocabulary.index[t] for t in rec.keywords if t in vocabulary.index)
        entries = [(c, 1.0 if weighting == "binary" else float(idf[c])) for c in cols]
        entries = [(c, w) for c, w in entries if w > 0.0]
        if not entries:
            dropped.append(rec.id)
            continue
        norm = math.sqrt(math.fsum(w * w for _, w in entries))
        doc_ids.append(rec.id)
        rows.append([(c, w / norm) for c, w in entries])
    return doc_ids, dropped, rows


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.booleans(),
            # a small pool, so that dfs and hence idf weights vary within a row
            st.lists(st.sampled_from([f"k{i:02d}" for i in range(16)]), max_size=10, unique=True),
        ),
        min_size=2,
        max_size=16,
    ),
    min_df=st.integers(min_value=1, max_value=2),
)
def test_build_matrix_is_bitwise_equal_to_per_record_reference(data, min_df):
    # "common" is in every record, so its idf is 0 and a record holding
    # only "common" (or only out-of-vocabulary terms besides it) has no
    # tfidf weight left and is dropped
    p1 = [_rec(f"d{i:03d}", 1996, ["common", *kws]) for i, (in_p1, kws) in enumerate(data) if in_p1]
    p2 = [_rec(f"d{i:03d}", 2001, ["common", *kws]) for i, (in_p1, kws) in enumerate(data) if not in_p1]
    slices = _slices(p1 or [_rec("pad-1", 1996, ["common"])], p2 or [_rec("pad-2", 2001, ["common"])])
    vocab = build_vocabulary(slices[0], slices[1], min_df=min_df)
    for slice_ in slices:
        for weighting in ("binary", "tfidf"):
            dtm = build_matrix(slice_, vocab, weighting)
            doc_ids, dropped, rows = _reference_rows(slice_, vocab, weighting)
            assert dtm.doc_ids == tuple(doc_ids)
            assert _dropped(slice_, dtm) == tuple(dropped)
            m = dtm.matrix
            assert m.shape == (len(rows), len(vocab.terms))
            got = [
                list(zip(m.indices[a:b].tolist(), m.data[a:b].tolist()))
                for a, b in zip(m.indptr[:-1], m.indptr[1:])
            ]
            assert got == rows


def _runtime_imports(tree, package):
    """The enclosing function (None at module level) of each runtime import
    of `package` in a module; imports under `if TYPE_CHECKING:` serve
    annotations only and are skipped."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == package or name.startswith(f"{package}.") for name in names):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def _package_imports(package):
    """(module, enclosing function) of each runtime import of `package` in diachron."""
    return [
        (path.stem, function)
        for path in sorted(Path(diachron.__file__).parent.glob("*.py"))
        for function in _runtime_imports(ast.parse(path.read_text(encoding="utf-8")), package)
    ]


def test_scipy_is_imported_at_runtime_only_in_build_matrix():
    """test_cli's subprocess probe runs terms, map, link and report; this scan
    covers every module, ingest and syngen included. The cluster stage, which
    calls build_matrix, also reads scipy's version for geometry.json."""
    assert _package_imports("scipy") == [("pipeline", "stage_cluster"), ("vectorize", "build_matrix")]


def test_numpy_is_imported_at_runtime_only_by_the_fit_and_the_term_statistics():
    """Only the cluster stage imports cluster and vectorize, and reads numpy's
    version for geometry.json, and only the terms stage runs classify_terms,
    so ingest, map, link, report and syngen never load numpy."""
    assert _package_imports("numpy") == [
        ("cluster", None),
        ("diffusion", "_gini_rows"),
        ("diffusion", "classify_terms"),
        ("pipeline", "stage_cluster"),
        ("vectorize", None),
    ]
