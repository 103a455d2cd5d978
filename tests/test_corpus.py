import csv
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachron.corpus import (
    CSV_LIST_SEP,
    Record,
    build_vocabulary,
    load_corpus,
    normalize_term,
    save_corpus,
    split_periods,
)
from diachron.errors import ConfigError, InputError
from diachron.pipeline import PeriodSpec


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_csv(path, records):
    """Records as a CSV corpus, list cells joined by CSV_LIST_SEP."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "year", "keywords", "categories", "title"])
        for r in records:
            lists = (CSV_LIST_SEP.join(r.keywords), CSV_LIST_SEP.join(r.categories))
            writer.writerow([r.id, r.year, *lists, r.title or ""])


SPEC = PeriodSpec((1996, 1998), (1999, 2001))


class TestNormalizeTerm:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_term("  Gene   Expression ") == "gene expression"

    def test_plain_term_unchanged(self):
        assert normalize_term("pcr") == "pcr"


class TestLoadCorpus:
    def test_jsonl_round_trip(self, tmp_path):
        rows = [
            {"id": "b", "year": 1997, "keywords": ["PCR", "pcr", "gene  mapping"]},
            {"id": "a", "year": 2000, "keywords": ["x"], "categories": ["Bio"], "title": "T"},
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        records, dropped = load_corpus(str(path))
        assert dropped == 0
        assert len(records) == 2
        by_id = {r.id: r for r in records}
        # set semantics: duplicates collapse after normalization
        assert by_id["b"].keywords == ("gene mapping", "pcr")
        assert by_id["a"].categories == ("bio",)

    def test_repeated_categories_collapse_in_first_occurrence_order(self, tmp_path):
        rows = [{"id": "a", "year": 1997, "keywords": ["x"], "categories": ["Chem", "Bio", "bio", " chem"]}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        (record,), _ = load_corpus(str(path))
        assert record.categories == ("chem", "bio")

    def test_empty_keywords_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "year": 1996, "keywords": []},
                {"id": "b", "year": 1996, "keywords": ["  "]},
                {"id": "c", "year": 1996, "keywords": ["x"]},
            ],
        )
        records, dropped = load_corpus(str(path))
        assert [r.id for r in records] == ["c"]
        assert dropped == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "year": 1996, "keywords": ["x"]}\nnot json\n')
        with pytest.raises(InputError, match=r":2:"):
            load_corpus(str(path))

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"id": "dup", "year": 1996, "keywords": ["x"]},
                {"id": "dup", "year": 1997, "keywords": ["y"]},
            ],
        )
        with pytest.raises(InputError, match="dup"):
            load_corpus(str(path))

    def test_missing_field_is_an_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "keywords": ["x"]}])
        with pytest.raises(InputError):
            load_corpus(str(path))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,year,keywords,categories,title\n"
            'a,1996,PCR; гене,Bio;Chem,"Some, title"\n'
            "b,2000,x,,\n"
        )
        records, _ = load_corpus(str(path), "csv")
        by_id = {r.id: r for r in records}
        assert by_id["a"].keywords == ("pcr", "гене")
        assert by_id["a"].categories == ("bio", "chem")
        assert by_id["a"].title == "Some, title"
        assert by_id["b"].title is None

    def test_csv_year_takes_ascii_digits_with_an_optional_sign(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,year,keywords\na, +1996 ,x\nb,-0012,x\nc,2000,x\n", encoding="utf-8")
        records, _ = load_corpus(str(path), "csv")
        assert [r.year for r in records] == [1996, -12, 2000]


# keywords generated already-normalized, since identity holds for records
# the loader would leave unchanged
keyword_strategy = (
    st.text(
        st.characters(min_codepoint=33, max_codepoint=0x2FF),
        min_size=1,
        max_size=12,
    )
    .map(normalize_term)
    .filter(lambda s: s != "")
)

# the csv format joins list cells with ";", so values containing it would be
# split on reload
csv_safe_keyword_strategy = keyword_strategy.filter(lambda s: CSV_LIST_SEP not in s)


def _record_strategy(keywords):
    return st.builds(
        Record,
        id=st.uuids().map(str),
        year=st.integers(min_value=1900, max_value=2100),
        keywords=st.lists(keywords, min_size=1, max_size=6).map(
            lambda kws: tuple(sorted(set(kws)))
        ),
        categories=st.just(()),
        title=st.one_of(
            st.none(),
            st.text(min_size=1, max_size=20).map(lambda s: s.replace("\x00", " ")),
        ),
    )


record_strategy = _record_strategy(keyword_strategy)
csv_record_strategy = _record_strategy(csv_safe_keyword_strategy)


class TestSaveCorpus:
    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(record_strategy, min_size=1, max_size=8, unique_by=lambda r: r.id))
    def test_save_load_identity_jsonl(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("rt") / "c.jsonl"
        digest = save_corpus(records, str(path))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        loaded, _ = load_corpus(str(path), "jsonl")
        assert loaded == sorted(records, key=lambda r: r.id)

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(csv_record_strategy, min_size=1, max_size=8, unique_by=lambda r: r.id))
    def test_save_load_identity_csv(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("rt") / "c.csv"
        write_csv(path, records)
        loaded, _ = load_corpus(str(path), "csv")
        assert loaded == records


class TestPeriodSpec:
    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError):
            PeriodSpec((1996, 1999), (1999, 2001))

    def test_p2_before_p1_rejected(self):
        with pytest.raises(ConfigError):
            PeriodSpec((1999, 2001), (1996, 1998))

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigError):
            PeriodSpec((1998, 1996), (1999, 2001))


class TestSplitPeriods:
    def test_assigns_and_sorts_by_id(self):
        records = [
            Record("z", 1996, ("a",)),
            Record("a", 1997, ("b",)),
            Record("m", 2000, ("c",)),
            Record("q", 1990, ("d",)),
        ]
        p1, p2, dropped = split_periods(records, SPEC)
        assert [r.id for r in p1.records] == ["a", "z"]
        assert [r.id for r in p2.records] == ["m"]
        assert dropped == 1

    def test_empty_period_is_an_error(self):
        records = [Record("a", 1996, ("x",))]
        with pytest.raises(InputError, match="P2"):
            split_periods(records, SPEC)


class TestBuildVocabulary:
    def _slices(self):
        records = [
            Record("a", 1996, ("shared", "p1only")),
            Record("b", 1997, ("shared", "rare")),
            Record("c", 2000, ("shared", "p2only")),
            Record("d", 2001, ("shared", "p2only")),
        ]
        p1, p2, _ = split_periods(records, SPEC)
        return p1, p2

    def test_min_df_prunes_pooled(self):
        p1, p2 = self._slices()
        vocab = build_vocabulary(p1, p2, min_df=2)
        assert vocab.terms == ("p2only", "shared")

    def test_counts_are_set_semantics(self):
        p1, p2 = self._slices()
        vocab = build_vocabulary(p1, p2, min_df=1)
        t = vocab.index["shared"]
        assert vocab.df_p1[t] == 2 and vocab.df_p2[t] == 2
        assert vocab.n_docs_p1 == 2 and vocab.n_docs_p2 == 2

    def test_terms_sorted(self):
        p1, p2 = self._slices()
        vocab = build_vocabulary(p1, p2, min_df=1)
        assert list(vocab.terms) == sorted(vocab.terms)

    def test_empty_vocabulary_is_an_error(self):
        p1, p2 = self._slices()
        with pytest.raises(InputError):
            build_vocabulary(p1, p2, min_df=10)
