import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diachron.corpus import CorpusSlice, Record, build_vocabulary
from diachron.diffusion import (
    CATEGORIES,
    CATEGORY_CROSS_SECTION,
    CATEGORY_ESTABLISHED,
    CATEGORY_UNCLASSIFIED,
    CATEGORY_UNUSUAL,
    UNCATEGORIZED_CELL,
    _gini_rows,
    classify_terms,
    read_terms_csv,
    write_terms_csv,
)
from diachron.errors import ConfigError
from diachron.pipeline import DiffusionThresholds


def gini(shares) -> float:
    """Gini of one non-negative vector with a positive sum, through the library's row kernel."""
    return float(_gini_rows(np.asarray(shares, dtype=float)[None, :])[0])


def gini_pairwise_oracle(shares) -> float:
    """O(m^2) reference: sum of |x_i - x_j| over all ordered pairs / (2 m sum x)."""
    x = [float(v) for v in shares]
    m = len(x)
    total = math.fsum(x)
    diff_sum = math.fsum(abs(a - b) for a in x for b in x)
    return diff_sum / (2.0 * m * total)


def _rec(rec_id, year, keywords, categories=()):
    return Record(id=rec_id, year=year, keywords=tuple(sorted(keywords)), categories=tuple(categories))


def _slices(p1_records, p2_records):
    return (
        CorpusSlice(period_id="P1", records=tuple(sorted(p1_records, key=lambda r: r.id))),
        CorpusSlice(period_id="P2", records=tuple(sorted(p2_records, key=lambda r: r.id))),
    )


share_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
).filter(lambda xs: sum(xs) > 0)


class TestGini:
    def test_perfect_equality_is_zero(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_single_cell_is_zero(self):
        assert gini([7]) == 0.0

    def test_all_mass_in_one_of_four_cells_is_exactly_three_quarters(self):
        assert gini([1, 0, 0, 0]) == 0.75

    def test_matches_oracle_on_fixed_vectors(self):
        for x in ([1, 2, 3], [0, 0, 1, 3], [2.5, 2.5, 5.0], [10, 1, 1, 1, 1]):
            assert gini(x) == pytest.approx(gini_pairwise_oracle(x), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=share_vectors)
    def test_matches_pairwise_oracle(self, x):
        assert gini(x) == pytest.approx(gini_pairwise_oracle(x), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(x=share_vectors, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_invariant(self, x, seed):
        shuffled = list(x)
        np.random.default_rng(seed).shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(x), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(x=share_vectors, c=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, x, c):
        # a subnormal x can scale to all zeros, where gini is undefined
        assume(any(c * v > 0 for v in x))
        assert gini([c * v for v in x]) == pytest.approx(gini(x), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(x=share_vectors)
    def test_range_is_zero_to_one_minus_one_over_m(self, x):
        g = gini(x)
        assert -1e-12 <= g <= 1.0 - 1.0 / len(x) + 1e-12

    def test_thousand_random_vectors_within_tolerance_under_one_second(self):
        import time

        rng = np.random.default_rng(1234)
        start = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(1, 51))
            x = rng.random(m) * rng.choice([1.0, 100.0])
            if x.sum() <= 0:
                x[0] = 1.0
            assert abs(gini(x) - gini_pairwise_oracle(x)) < 1e-12
        assert time.perf_counter() - start < 1.0


def _term_tfidfs(slices):
    vocab = build_vocabulary(slices[0], slices[1], min_df=1)
    return {s.term: s.tfidf for s in classify_terms(vocab, slices)}


class TestTfidf:
    """The tfidf column of classify_terms: pooled df times ln(N_pooled / df_pooled)."""

    def test_anchor_df_ten_of_hundred(self):
        slices = _slices(
            [_rec(f"p1-{i:03d}", 1996, ["t"] if i < 5 else ["x"]) for i in range(50)],
            [_rec(f"p2-{i:03d}", 2001, ["t"] if i < 5 else ["x"]) for i in range(50)],
        )
        assert _term_tfidfs(slices)["t"] == pytest.approx(10 * math.log(10), abs=1e-12)

    def test_anchor_hapax_of_hundred(self):
        slices = _slices(
            [_rec(f"p1-{i:03d}", 1996, ["t"] if i == 0 else ["x"]) for i in range(50)],
            [_rec(f"p2-{i:03d}", 2001, ["x"]) for i in range(50)],
        )
        assert _term_tfidfs(slices)["t"] == pytest.approx(math.log(100), abs=1e-12)

    def test_term_in_every_document_scores_zero(self):
        slices = _slices(
            [_rec("p1-a", 1996, ["t"]), _rec("p1-b", 1996, ["t"])],
            [_rec("p2-a", 2001, ["t"]), _rec("p2-b", 2001, ["t"])],
        )
        assert _term_tfidfs(slices)["t"] == 0.0

    def test_strictly_decreasing_in_df_at_fixed_tf(self):
        # term t{j} is in the first j of 100 records; tfidf / df is its score at tf 1
        records = [
            _rec(f"d{i:03d}", 1996 if i < 50 else 2001, [f"t{j:03d}" for j in range(i + 1, 101)])
            for i in range(100)
        ]
        slices = _slices(records[:50], records[50:])
        scores = _term_tfidfs(slices)
        per_df = [scores[f"t{df:03d}"] / df for df in range(1, 101)]
        assert all(a > b for a, b in zip(per_df, per_df[1:]))
        assert scores["t100"] == 0.0


class TestDocCells:
    """The cell partition behind the gini column, read from classify_terms."""

    def test_categories_mode_collects_sorted_labels(self):
        slices = _slices(
            [_rec("p1-a", 1996, ["t", "u"], categories=("y", "x"))],
            [_rec("p2-a", 2001, ["t"]), _rec("p2-b", 2001, ["u"], categories=("x",))],
        )
        explicit = {"p1-a": ("y", "x"), "p2-a": (UNCATEGORIZED_CELL,), "p2-b": ("x",)}
        ginis = _term_ginis(slices)
        assert ginis == _term_ginis(slices, cells=explicit)
        # over the cells ((none), x, y): t counts (1, 1, 1), u counts (0, 2, 1)
        assert ginis["t"] == 0.0
        assert ginis["u"] == pytest.approx(gini_pairwise_oracle([0, 2, 1]), abs=1e-12)

    def test_clusters_mode_uses_assignments(self):
        slices = _slices(
            [_rec("p1-a", 1996, ["t"], categories=("a",)), _rec("p1-b", 1996, ["t"], categories=("a",))],
            [_rec("p2-a", 2001, ["t"], categories=("a",))],
        )
        cells = {"p1-a": ("c1",), "p1-b": ("c0",), "p2-a": ("c0",)}
        assert _term_ginis(slices)["t"] == 0.0
        assert _term_ginis(slices, cells=cells)["t"] == pytest.approx(gini_pairwise_oracle([2, 1]), abs=1e-12)

    def test_clusters_mode_skips_unassigned_records(self):
        slices = _slices([_rec("p1-a", 1996, ["t"]), _rec("p1-b", 1996, ["t"])], [_rec("p2-a", 2001, ["t"])])
        # counting p1-b in either cell would give counts (2, 1) and a positive Gini
        assert _term_ginis(slices, cells={"p1-a": ("c0",), "p2-a": ("c1",)})["t"] == 0.0


def _term_ginis(slices, cells=None):
    vocab = build_vocabulary(slices[0], slices[1], min_df=1)
    return {s.term: s.gini for s in classify_terms(vocab, slices, cells=cells)}


class TestTermGini:
    """One term's Gini over the cell partition, read from classify_terms."""

    def test_uniform_spread_over_four_categories_is_zero(self):
        slices = _slices(
            [_rec(f"p1-{c}", 1996, ["t"], categories=(c,)) for c in "abcd"],
            [_rec("p2-a", 2001, ["other"], categories=("a",))],
        )
        assert _term_ginis(slices)["t"] == 0.0

    def test_six_occurrences_in_one_of_four_categories(self):
        p1 = [_rec(f"p1-{i}", 1996, ["t"], categories=("a",)) for i in range(6)]
        p1 += [_rec(f"p1-pad-{c}", 1996, ["other"], categories=(c,)) for c in "bcd"]
        slices = _slices(p1, [_rec("p2-a", 2001, ["other"], categories=("a",))])
        assert _term_ginis(slices)["t"] == 0.75

    def test_single_category_corpus_gives_zero_for_every_term(self):
        slices = _slices(
            [_rec("p1-a", 1996, ["t", "u"], categories=("only",))],
            [_rec("p2-a", 2001, ["t"], categories=("only",))],
        )
        ginis = _term_ginis(slices)
        assert ginis["t"] == 0.0
        assert ginis["u"] == 0.0

    def test_zero_count_term_reads_zero(self):
        # "missing" occurs only in a record without a cluster cell
        slices = _slices(
            [_rec("p1-a", 1996, ["t"], categories=("a",))],
            [_rec("p2-a", 2001, ["t"], categories=("a",)), _rec("p2-b", 2001, ["missing"])],
        )
        ginis = _term_ginis(slices, cells={"p1-a": ("P1:0",), "p2-a": ("P2:0",)})
        assert ginis["t"] == 0.0
        assert ginis["missing"] == 0.0


corpus_records = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(st.sampled_from(["t0", "t1", "t2", "t3", "t4"]), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=2),
        st.sampled_from([None, "c0", "c1", "c2"]),
    ),
    min_size=2,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(data=corpus_records, by_cluster=st.booleans())
def test_gini_column_matches_per_record_counts(data, by_cluster):
    """classify_terms' gini column against gini() of counts tallied record by record;
    with cluster cells, a record with cluster None has no cell."""
    # every record holds "core", so a min_df of 2 leaves the vocabulary non-empty
    records = [
        _rec(f"d{i:02d}", 1996 if in_p1 else 2001, ["core", *kws], categories=cats)
        for i, (in_p1, kws, cats, _) in enumerate(data)
    ]
    slices = _slices([r for r in records if r.year == 1996], [r for r in records if r.year == 2001])
    assume(slices[0].n_docs and slices[1].n_docs)
    cells = {f"d{i:02d}": (c,) for i, (*_, c) in enumerate(data) if c is not None} if by_cluster else None
    vocab = build_vocabulary(slices[0], slices[1], min_df=2)

    tallied = {r.id: r.categories or (UNCATEGORIZED_CELL,) for r in records} if cells is None else cells
    labels = sorted({c for cs in tallied.values() for c in cs})
    counts = np.zeros((len(vocab.terms), len(labels)))
    for rec in records:
        for term in rec.keywords:
            if term in vocab.index:
                for c in tallied.get(rec.id, ()):
                    counts[vocab.index[term], labels.index(c)] += 1
    expected = [gini(row) if row.sum() > 0 else 0.0 for row in counts]
    stats = classify_terms(vocab, slices, cells=cells)
    assert [s.gini for s in stats] == expected


def _decision_table_corpus():
    """Four terms engineered to hit each decision-table row exactly once.

    Cells are the two categories a, b.  Pooled df vector is (6, 4, 3, 1)
    so the 0.75 quantile cut is 4.5; gini vector is (0.5, 0, 0.5, 0.5)
    so the 0.25 quantile cut is 0.375.
    """
    p1 = [
        _rec("p1-1", 1996, ["est", "rare"], categories=("a",)),
        _rec("p1-2", 1996, ["est"], categories=("a",)),
        _rec("p1-3", 1996, ["est", "spread"], categories=("a",)),
        _rec("p1-4", 1996, ["spread"], categories=("b",)),
    ]
    p2 = [
        _rec("p2-1", 2001, ["est", "spread"], categories=("a",)),
        _rec("p2-2", 2001, ["est"], categories=("a",)),
        _rec("p2-3", 2001, ["est"], categories=("a",)),
        _rec("p2-4", 2001, ["novel", "spread"], categories=("b",)),
        _rec("p2-5", 2001, ["novel"], categories=("b",)),
        _rec("p2-6", 2001, ["novel"], categories=("b",)),
    ]
    slices = _slices(p1, p2)
    vocab = build_vocabulary(slices[0], slices[1], min_df=1)
    return vocab, slices


class TestClassifyTerms:
    def test_each_decision_row_hit(self):
        vocab, slices = _decision_table_corpus()
        stats = {s.term: s for s in classify_terms(vocab, slices)}
        assert stats["novel"].category == CATEGORY_UNUSUAL
        assert stats["spread"].category == CATEGORY_CROSS_SECTION
        assert stats["est"].category == CATEGORY_ESTABLISHED
        assert stats["rare"].category == CATEGORY_UNCLASSIFIED

    def test_stats_fields_match_hand_counts(self):
        vocab, slices = _decision_table_corpus()
        stats = {s.term: s for s in classify_terms(vocab, slices)}
        est = stats["est"]
        assert (est.df_p1, est.df_p2) == (3, 3)
        assert est.tfidf == pytest.approx(6 * math.log(10 / 6), abs=1e-12)
        assert est.gini == pytest.approx(0.5, abs=1e-12)
        novel = stats["novel"]
        assert (novel.df_p1, novel.df_p2) == (0, 3)
        assert stats["spread"].gini == 0.0

    def test_output_in_vocabulary_order_and_total(self):
        vocab, slices = _decision_table_corpus()
        stats = classify_terms(vocab, slices)
        assert tuple(s.term for s in stats) == vocab.terms
        assert all(s.category in CATEGORIES for s in stats)

    def test_doubling_corpus_preserves_gini_and_categories(self):
        vocab, slices = _decision_table_corpus()
        before = classify_terms(vocab, slices)

        def clone(records):
            out = list(records)
            out += [
                Record(id=r.id + "-copy", year=r.year, keywords=r.keywords, categories=r.categories)
                for r in records
            ]
            return out

        doubled = _slices(clone(slices[0].records), clone(slices[1].records))
        vocab2 = build_vocabulary(doubled[0], doubled[1], min_df=1)
        after = {s.term: s for s in classify_terms(vocab2, doubled)}
        for s in before:
            assert after[s.term].gini == pytest.approx(s.gini, abs=1e-12)
            assert after[s.term].category == s.category
            assert after[s.term].df_p1 == 2 * s.df_p1
            assert after[s.term].df_p2 == 2 * s.df_p2

    def test_degenerate_quantiles_never_error(self):
        # every term in every document: all df equal, all gini equal
        p1 = [_rec(f"p1-{i}", 1996, ["t1", "t2"], categories=("a",)) for i in range(3)]
        p2 = [_rec(f"p2-{i}", 2001, ["t1", "t2"], categories=("a",)) for i in range(3)]
        slices = _slices(p1, p2)
        vocab = build_vocabulary(slices[0], slices[1], min_df=1)
        stats = classify_terms(vocab, slices)
        assert len(stats) == 2
        assert all(s.category in CATEGORIES for s in stats)

    def test_thresholds_are_honored(self):
        vocab, slices = _decision_table_corpus()
        # novelty_share above 1.0 is rejected at construction; lowering the
        # df quantile to 0.05 pushes the cut below the novel term's df, so
        # the unusual row can no longer fire
        strict = DiffusionThresholds(df_high_quantile=0.05, novelty_share=1.0)
        stats = {s.term: s for s in classify_terms(vocab, slices, strict)}
        assert stats["novel"].category != CATEGORY_UNUSUAL

    def test_cluster_cells_change_gini_but_not_counts(self):
        vocab, slices = _decision_table_corpus()
        cells = {r.id: (f"{s.period_id}:0",) for s in slices for r in s.records}
        stats = {s.term: s for s in classify_terms(vocab, slices, cells=cells)}
        # two cells (P1:0, P2:0): est has counts (3,3) -> gini 0
        assert stats["est"].gini == 0.0
        assert stats["est"].df_p1 == 3


class TestThresholdValidation:
    def test_quantiles_must_be_strictly_inside_unit_interval(self):
        with pytest.raises(ConfigError):
            DiffusionThresholds(df_high_quantile=1.0)
        with pytest.raises(ConfigError):
            DiffusionThresholds(gini_low_quantile=0.0)

    def test_novelty_share_must_be_in_half_open_interval(self):
        with pytest.raises(ConfigError):
            DiffusionThresholds(novelty_share=0.0)
        with pytest.raises(ConfigError):
            DiffusionThresholds(novelty_share=1.5)
        DiffusionThresholds(novelty_share=1.0)


class TestTermsCsv:
    def test_round_trip_and_format(self, tmp_path):
        vocab, slices = _decision_table_corpus()
        stats = classify_terms(vocab, slices)
        path = tmp_path / "terms.csv"
        write_terms_csv(stats, str(path))

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["term", "df_p1", "df_p2", "tfidf", "gini", "category"]
        assert [r[0] for r in rows[1:]] == list(vocab.terms)
        for row in rows[1:]:
            assert len(row[3].split(".")[1]) == 6
            assert len(row[4].split(".")[1]) == 6

        loaded = read_terms_csv(str(path))
        for orig, back in zip(stats, loaded):
            assert back.term == orig.term
            assert back.category == orig.category
            assert (back.df_p1, back.df_p2) == (orig.df_p1, orig.df_p2)
            assert back.tfidf == pytest.approx(orig.tfidf, abs=5e-7)
            assert back.gini == pytest.approx(orig.gini, abs=5e-7)
