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
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .artifacts import atomic_open
from .errors import InputError

if TYPE_CHECKING:  # annotations only: the config records live with RunConfig
    from .pipeline import PeriodSpec

_WS_RE = re.compile(r"\s+")
_YEAR_RE = re.compile(r"[+-]?[0-9]+")  # ASCII digits: int() alone also takes "1_997" and "١٩٩٧"

CSV_LIST_SEP = ";"


def normalize_term(raw: str) -> str:
    """Lowercase, collapse internal whitespace, strip. Empty result means drop."""
    return _WS_RE.sub(" ", raw.strip()).lower()


class Record(NamedTuple):
    """One bibliographic document with normalized, deduplicated keywords
    (sorted) and categories (in first-occurrence order)."""

    id: str
    year: int
    keywords: tuple[str, ...]
    categories: tuple[str, ...] = ()
    title: str | None = None


class CorpusSlice(NamedTuple):
    """All records of one period, sorted by id (the determinism anchor)."""

    period_id: str
    records: tuple[Record, ...]

    @property
    def n_docs(self) -> int:
        return len(self.records)


class Vocabulary(NamedTuple):
    """Sorted term list with per-period df counters and slice sizes.

    Keywords are a set per record, so a term's tf in a period is its df:
    df_p1 and df_p2 are the only counters.
    """

    terms: tuple[str, ...]
    index: dict[str, int]
    df_p1: tuple[int, ...]
    df_p2: tuple[int, ...]
    n_docs_p1: int
    n_docs_p2: int


class _Normalized(dict):
    """normalize_term of each raw string, worked out once per distinct string."""

    def __missing__(self, raw: str) -> str:
        term = self[raw] = normalize_term(raw)
        return term


def _make_record(obj: dict, where: str, normalized: _Normalized, limit: int) -> Record:
    rec_id = obj.get("id")
    if type(rec_id) is not str or not rec_id:
        raise InputError(f"{where}: 'id' must be a non-empty string")
    year = obj.get("year")
    if type(year) is not int:
        raise InputError(f"{where}: 'year' must be an integer")
    keywords = obj.get("keywords")
    if type(keywords) is not list or not set(map(type, keywords)) <= {str}:
        raise InputError(f"{where}: 'keywords' must be an array of strings")
    categories = obj.get("categories", [])
    if type(categories) is not list or not set(map(type, categories)) <= {str}:
        raise InputError(f"{where}: 'categories' must be an array of strings")
    title = obj.get("title")
    if title is not None and type(title) is not str:
        raise InputError(f"{where}: 'title' must be a string")
    title = title or None
    terms = {normalized[k] for k in keywords}
    terms.discard("")
    # terms.csv holds each term in one field, which the csv module reads up to `limit`
    if terms and max(map(len, terms)) > limit:
        raise InputError(f"{where}: a keyword is longer than {limit} characters")
    # deduplicated in first-occurrence order: a record counts once per cell
    cats = tuple(dict.fromkeys(c for c in map(normalized.__getitem__, categories) if c))
    return Record(rec_id, year, tuple(sorted(terms)), cats, title)  # by position: the cheapest call


@contextlib.contextmanager
def _utf8_text(path: str):
    """Report bytes that are not UTF-8, met while reading `path`, as an input
    error naming it (the line is unknown: the file is decoded in blocks)."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _iter_jsonl(path: str, normalized: _Normalized, limit: int):
    decoder = json.JSONDecoder()  # json.loads's, built once; a line with a BOM still fails
    with open(path, encoding="utf-8") as fh, _utf8_text(path):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = decoder.decode(line)
            except (ValueError, RecursionError) as exc:  # also a long integer, deep nesting
                raise InputError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            yield _make_record(obj, f"{path}:{lineno}", normalized, limit)


def _iter_csv(path: str, normalized: _Normalized, limit: int):
    with open(path, encoding="utf-8", newline="") as fh, _utf8_text(path):
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            missing = [c for c in ("id", "year", "keywords") if c not in header]
            if missing:
                raise InputError(f"{path}: CSV header missing required columns {missing}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                year_raw = (row.get("year") or "").strip()
                try:
                    year = int(_YEAR_RE.fullmatch(year_raw).group())
                except (AttributeError, ValueError) as exc:  # no match, or over int()'s digit limit
                    raise InputError(f"{where}: 'year' must be an integer, got {year_raw!r}") from exc
                obj = {
                    "id": (row.get("id") or "").strip(),
                    "year": year,
                    "keywords": _split_cell(row.get("keywords")),
                    "categories": _split_cell(row.get("categories")),
                    "title": (row.get("title") or None),
                }
                yield _make_record(obj, where, normalized, limit)
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise InputError(f"{path}:{reader.reader.line_num}: malformed CSV: {exc}") from exc


def _split_cell(cell: str | None) -> list[str]:
    if not cell:
        return []
    return [part for part in (p.strip() for p in cell.split(CSV_LIST_SEP)) if part]


def load_corpus(path: str, format: str = "jsonl") -> tuple[list[Record], int]:
    """Load and validate records; returns (records, the number dropped).

    Records whose keywords normalize to the empty set are dropped and
    counted. A duplicate id is an error naming the id.
    """
    source = {"jsonl": _iter_jsonl, "csv": _iter_csv}[format](path, _Normalized(), csv.field_size_limit())

    records: list[Record] = []
    seen_ids: set[str] = set()
    dropped_empty = 0
    for rec in source:
        if rec.id in seen_ids:
            raise InputError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        if not rec.keywords:
            dropped_empty += 1
            continue
        records.append(rec)
    return records, dropped_empty


def save_corpus(records: list[Record], path: str) -> str:
    """Write records (sorted by id) as JSONL, so that a reload round-trips
    exactly; returns the sha256 of the bytes written."""
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True)  # json.dumps's, built once
    lines = []
    for rec in sorted(records, key=lambda r: r.id):
        obj = {"id": rec.id, "year": rec.year, "keywords": rec.keywords, "categories": rec.categories}
        if rec.title is not None:
            obj["title"] = rec.title
        lines.append(encoder.encode(obj) + os.linesep)  # the line end text mode would write
    data = "".join(lines).encode("utf-8")
    with atomic_open(path) as (fh, sha256):
        fh.buffer.write(data)  # past the text layer, so the file holds exactly `data`
    return sha256.hexdigest()


def split_periods(records: list[Record], spec: PeriodSpec) -> tuple[CorpusSlice, CorpusSlice, int]:
    """Assign records to P1/P2 by year; out-of-window records are dropped and counted."""
    (p1_start, p1_end), (p2_start, p2_end) = spec.p1, spec.p2
    p1, p2 = [], []
    dropped = 0
    for rec in records:
        if p1_start <= rec.year <= p1_end:
            p1.append(rec)
        elif p2_start <= rec.year <= p2_end:
            p2.append(rec)
        else:
            dropped += 1
    for name, bucket in (("P1", p1), ("P2", p2)):
        if not bucket:
            raise InputError(f"empty period {name}: no record falls inside its window")
    p1.sort(key=lambda r: r.id)
    p2.sort(key=lambda r: r.id)
    return CorpusSlice("P1", tuple(p1)), CorpusSlice("P2", tuple(p2)), dropped


def load_slices(path: str, spec: PeriodSpec) -> tuple[CorpusSlice, CorpusSlice]:
    """The two period slices of a corpus.jsonl that save_corpus wrote."""
    records = load_corpus(path, "jsonl")[0]
    try:
        return split_periods(records, spec)[:2]
    except InputError as exc:  # an empty period, which names no file
        raise InputError(f"{path}: {exc}") from exc


def build_vocabulary(p1: CorpusSlice, p2: CorpusSlice, min_df: int = 2) -> Vocabulary:
    """Pool both periods and keep terms with pooled document frequency >= min_df.

    Keywords are already normalized and deduplicated per record, so each
    record contributes at most 1 to a term's df per period.
    """
    df1, df2 = (Counter(chain.from_iterable(rec.keywords for rec in s.records)) for s in (p1, p2))
    terms = tuple(sorted(t for t, n in (df1 + df2).items() if n >= min_df))
    if not terms:
        raise InputError(f"empty vocabulary: no term reaches pooled df >= {min_df}")
    return Vocabulary(
        terms=terms,
        index={t: i for i, t in enumerate(terms)},
        df_p1=tuple(df1[t] for t in terms),
        df_p2=tuple(df2[t] for t in terms),
        n_docs_p1=p1.n_docs,
        n_docs_p2=p2.n_docs,
    )
