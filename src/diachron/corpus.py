"""Bibliographic record ingestion, period splitting, and vocabulary construction.

Records arrive as JSONL or CSV with pre-indexed keywords (controlled terms);
no free-text processing happens here. Keywords are treated as a set within
one record, so per-record tf is identically 1 and tf equals df per period.
All containers are sorted and immutable after construction so that every
downstream floating-point reduction runs in a fixed order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from dataclasses import dataclass, field

from .errors import ConfigError, InputError

_WS_RE = re.compile(r"\s+")

CSV_COLUMNS = ("id", "year", "keywords", "categories", "title")
CSV_LIST_SEP = ";"


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Write a text file through a temporary file in the same directory,
    renamed over `path` on success and removed on error (atomic, no fsync)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def normalize_term(raw: str) -> str:
    """Lowercase, collapse internal whitespace, strip. Empty result means drop."""
    return _WS_RE.sub(" ", raw.strip()).lower()


@dataclass(frozen=True)
class Record:
    """One bibliographic document with normalized, deduplicated keywords."""

    id: str
    year: int
    keywords: tuple[str, ...]
    categories: tuple[str, ...] = ()
    title: str | None = None


@dataclass(frozen=True)
class PeriodSpec:
    """Two successive, disjoint year windows (inclusive bounds)."""

    p1_start: int
    p1_end: int
    p2_start: int
    p2_end: int

    def __post_init__(self) -> None:
        if not (self.p1_start <= self.p1_end < self.p2_start <= self.p2_end):
            raise ConfigError(
                "invalid period spec: require p1_start <= p1_end < p2_start <= p2_end, "
                f"got [{self.p1_start},{self.p1_end}] and [{self.p2_start},{self.p2_end}]"
            )


@dataclass(frozen=True)
class CorpusSlice:
    """All records of one period, sorted by id (the determinism anchor)."""

    period_id: str
    records: tuple[Record, ...]

    @property
    def n_docs(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class LoadReport:
    records_read: int
    records_kept: int
    dropped_empty_keywords: int


@dataclass(frozen=True)
class SplitReport:
    p1_docs: int
    p2_docs: int
    dropped_outside_periods: int


@dataclass(frozen=True)
class Vocabulary:
    """Sorted term list with per-period df/tf counters and slice sizes.

    With set-semantics keywords tf_px equals df_px; both are kept because
    the indicator layer is defined over both counters.
    """

    terms: tuple[str, ...]
    index: dict[str, int] = field(repr=False)
    df_p1: tuple[int, ...]
    df_p2: tuple[int, ...]
    tf_p1: tuple[int, ...]
    tf_p2: tuple[int, ...]
    n_docs_p1: int
    n_docs_p2: int

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def n_docs_pooled(self) -> int:
        return self.n_docs_p1 + self.n_docs_p2

    def df_pooled(self, term: str) -> int:
        t = self.index[term]
        return self.df_p1[t] + self.df_p2[t]

    def tf_pooled(self, term: str) -> int:
        t = self.index[term]
        return self.tf_p1[t] + self.tf_p2[t]


def _normalized_keyword_set(raw_keywords) -> tuple[str, ...]:
    seen = set()
    for raw in raw_keywords:
        term = normalize_term(raw)
        if term:
            seen.add(term)
    return tuple(sorted(seen))


def _make_record(obj: dict, where: str) -> Record:
    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise InputError(f"{where}: 'id' must be a non-empty string")
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise InputError(f"{where}: 'year' must be an integer")
    keywords = obj.get("keywords")
    if not isinstance(keywords, list) or any(not isinstance(k, str) for k in keywords):
        raise InputError(f"{where}: 'keywords' must be an array of strings")
    categories = obj.get("categories", [])
    if not isinstance(categories, list) or any(not isinstance(c, str) for c in categories):
        raise InputError(f"{where}: 'categories' must be an array of strings")
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        raise InputError(f"{where}: 'title' must be a string")
    title = title or None
    cats = tuple(c for c in (normalize_term(c) for c in categories) if c)
    return Record(
        id=rec_id,
        year=year,
        keywords=_normalized_keyword_set(keywords),
        categories=cats,
        title=title,
    )


def _iter_jsonl(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: malformed JSON line: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            yield _make_record(obj, f"{path}:{lineno}")


def _iter_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("id", "year", "keywords") if c not in header]
        if missing:
            raise InputError(f"{path}: CSV header missing required columns {missing}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            year_raw = (row.get("year") or "").strip()
            try:
                year = int(year_raw)
            except ValueError as exc:
                raise InputError(f"{where}: 'year' must be an integer, got {year_raw!r}") from exc
            obj = {
                "id": (row.get("id") or "").strip(),
                "year": year,
                "keywords": _split_cell(row.get("keywords")),
                "categories": _split_cell(row.get("categories")),
                "title": (row.get("title") or None),
            }
            yield _make_record(obj, where)


def _split_cell(cell: str | None) -> list[str]:
    if not cell:
        return []
    return [part for part in (p.strip() for p in cell.split(CSV_LIST_SEP)) if part]


def load_corpus(path: str, format: str = "jsonl") -> tuple[list[Record], LoadReport]:
    """Load and validate records; returns (records, load report).

    Records whose keywords normalize to the empty set are dropped and
    counted. A duplicate id is an error naming the id.
    """
    if format == "jsonl":
        source = _iter_jsonl(path)
    elif format == "csv":
        source = _iter_csv(path)
    else:
        raise InputError(f"unknown corpus format {format!r} (expected 'jsonl' or 'csv')")

    records: list[Record] = []
    seen_ids: set[str] = set()
    read = 0
    dropped_empty = 0
    for rec in source:
        read += 1
        if rec.id in seen_ids:
            raise InputError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        if not rec.keywords:
            dropped_empty += 1
            continue
        records.append(rec)
    report = LoadReport(
        records_read=read,
        records_kept=len(records),
        dropped_empty_keywords=dropped_empty,
    )
    return records, report


def save_corpus(records: list[Record], path: str, format: str = "jsonl") -> None:
    """Serialize records (sorted by id) so that a reload round-trips exactly."""
    ordered = sorted(records, key=lambda r: r.id)
    if format == "jsonl":
        with atomic_open(path) as fh:
            for rec in ordered:
                obj = {
                    "id": rec.id,
                    "year": rec.year,
                    "keywords": list(rec.keywords),
                    "categories": list(rec.categories),
                }
                if rec.title is not None:
                    obj["title"] = rec.title
                fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
    elif format == "csv":
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in ordered:
                for value in (*rec.keywords, *rec.categories):
                    if CSV_LIST_SEP in value:
                        raise InputError(
                            f"record {rec.id!r}: value {value!r} contains the CSV list"
                            f" separator {CSV_LIST_SEP!r} and cannot be written as csv"
                        )
                writer.writerow(
                    [
                        rec.id,
                        rec.year,
                        CSV_LIST_SEP.join(rec.keywords),
                        CSV_LIST_SEP.join(rec.categories),
                        rec.title or "",
                    ]
                )
    else:
        raise InputError(f"unknown corpus format {format!r} (expected 'jsonl' or 'csv')")


def split_periods(
    records: list[Record], spec: PeriodSpec
) -> tuple[CorpusSlice, CorpusSlice, SplitReport]:
    """Assign records to P1/P2 by year; out-of-window records are dropped and counted."""
    p1, p2 = [], []
    dropped = 0
    for rec in records:
        if spec.p1_start <= rec.year <= spec.p1_end:
            p1.append(rec)
        elif spec.p2_start <= rec.year <= spec.p2_end:
            p2.append(rec)
        else:
            dropped += 1
    for name, bucket in (("P1", p1), ("P2", p2)):
        if not bucket:
            raise InputError(f"empty period {name}: no record falls inside its window")
    p1.sort(key=lambda r: r.id)
    p2.sort(key=lambda r: r.id)
    report = SplitReport(p1_docs=len(p1), p2_docs=len(p2), dropped_outside_periods=dropped)
    return CorpusSlice("P1", tuple(p1)), CorpusSlice("P2", tuple(p2)), report


def build_vocabulary(p1: CorpusSlice, p2: CorpusSlice, min_df: int = 2) -> Vocabulary:
    """Pool both periods and keep terms with pooled document frequency >= min_df.

    Keywords are already normalized and deduplicated per record, so each
    record contributes at most 1 to df and 1 to tf of a term per period.
    """
    if min_df < 1:
        raise ConfigError(f"min_df must be >= 1, got {min_df}")
    df1: dict[str, int] = {}
    df2: dict[str, int] = {}
    for slice_, df in ((p1, df1), (p2, df2)):
        for rec in slice_.records:
            for term in rec.keywords:
                df[term] = df.get(term, 0) + 1
    terms = sorted(t for t in set(df1) | set(df2) if df1.get(t, 0) + df2.get(t, 0) >= min_df)
    if not terms:
        raise InputError(f"empty vocabulary: no term reaches pooled df >= {min_df}")
    d1 = tuple(df1.get(t, 0) for t in terms)
    d2 = tuple(df2.get(t, 0) for t in terms)
    return Vocabulary(
        terms=tuple(terms),
        index={t: i for i, t in enumerate(terms)},
        df_p1=d1,
        df_p2=d2,
        tf_p1=d1,
        tf_p2=d2,
        n_docs_p1=p1.n_docs,
        n_docs_p2=p2.n_docs,
    )
