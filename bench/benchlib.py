"""Arithmetic shared by run_bench.py, collect.py and the self-tests.

Nothing here imports diachron or starts a process: these are the pure
functions that turn samples, spans and artifacts into metric values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics

PLANTED_CATEGORIES = ("established", "unusual", "cross_section")


def median(values):
    """Median of a non-empty sample; None for an empty one."""
    values = list(values)
    return statistics.median(values) if values else None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile range as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    `spans` is a list of dicts with `start`, `end` and `parent` (the index
    of the parent span in the same list, or None). Children are clipped
    to their parent's interval before the union is taken.
    """
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for i, span in enumerate(spans):
        kids = [
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children.get(i, ())
        ]
        kids = [(s, e) for s, e in kids if e > s]
        out.append((span["end"] - span["start"]) - _covered(kids))
    return out


def outermost_total(spans, prefix):
    """Summed duration of spans named `prefix`* that have no ancestor so named.

    Nested calls within one layer (a writer calling another writer) are
    counted once, through the outermost call.
    """
    total = 0.0
    for span in spans:
        if not span["name"].startswith(prefix):
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"].startswith(prefix):
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total += span["end"] - span["start"]
    return total


def self_time_table(span_lists):
    """Self time summed by span name over several span lists, largest first.

    Each list comes from one process, so parent indices stay within it.
    """
    table = {}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            table[span["name"]] = table.get(span["name"], 0.0) + own
    return sorted(table.items(), key=lambda item: -item[1])


def purity(truth, clusters_by_period):
    """Share of documents that sit in their cluster's majority planted block.

    `clusters_by_period` is a list of parsed clusters_P*.json documents;
    every member id is looked up in truth["doc_block"].
    """
    doc_block = truth["doc_block"]
    majority = 0
    total = 0
    for data in clusters_by_period:
        for cluster in data["clusters"]:
            counts = {}
            for doc in cluster["members"]:
                block = doc_block[doc]
                counts[block] = counts.get(block, 0) + 1
            if counts:
                majority += max(counts.values())
            total += len(cluster["members"])
    if total == 0:
        raise ValueError("no clustered documents")
    return majority / total


def term_agreement(truth, term_category):
    """Share of planted terms that terms.csv puts in their planted category.

    A planted term missing from terms.csv (below min_df) counts as a miss.
    """
    planted = {
        term: category
        for term, category in truth["term_category"].items()
        if category in PLANTED_CATEGORIES
    }
    if not planted:
        raise ValueError("truth plants no categorized terms")
    hits = sum(1 for term, cat in planted.items() if term_category.get(term) == cat)
    return hits / len(planted)


def read_term_categories(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["term"]: row["category"] for row in csv.DictReader(fh)}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def hash_dir(path):
    """sha256 over the sorted (name, bytes) of every regular file in `path`."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        h.update(name.encode("utf-8") + b"\0")
        with open(full, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def hash_tree(root, suffixes=(".py",)):
    """sha256 over the relative paths and bytes of files under `root` that
    end in one of `suffixes`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(suffixes):
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode("utf-8") + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
