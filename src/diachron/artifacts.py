"""Deterministic readers and writers for pipeline artifacts.

Everything here is byte-stable: JSON floats are emitted by Python's
shortest-round-trip repr (so full-precision values reload exactly),
dict key order is fixed by construction, and CSV fields use pinned
decimal formats. Cluster files carry the full-precision axes plus a
vocabulary hash, which is what lets a later stage rebuild the exact
in-memory model and detect stale artifacts after an input change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os

import numpy as np

from .cluster import ClusterModel, ClusterSummary
from .corpus import Vocabulary, atomic_open
from .diachrony import (
    CROSSTAB_CATEGORIES,
    STATUS_NEW,
    STATUS_ROOTED,
    CrossTab,
    Linkage,
)
from .errors import InputError
from .mapping import ClusterMap, render_svg

LOAD_REPORT = "load_report.json"
CORPUS = "corpus.jsonl"
TERMS = "terms.csv"
TRUTH = "truth.json"
MANIFEST = "run_manifest.json"
CROSSTAB = "crosstab.csv"
LINKAGE = "linkage.json"


def clusters_file(period_id: str) -> str:
    return f"clusters_{period_id}.json"


def map_json_file(period_id: str) -> str:
    return f"map_{period_id}.json"


def map_svg_file(period_id: str) -> str:
    return f"map_{period_id}.svg"


def matrix_file(period_id: str) -> str:
    return f"matrix_{period_id}.json"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def vocab_sha256(vocabulary: Vocabulary) -> str:
    payload = json.dumps(
        {
            "terms": list(vocabulary.terms),
            "df_p1": list(vocabulary.df_p1),
            "df_p2": list(vocabulary.df_p2),
            "n_docs_p1": vocabulary.n_docs_p1,
            "n_docs_p2": vocabulary.n_docs_p2,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_json(obj, path: str) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise InputError(f"cannot decode {path}: {exc}") from exc


@contextlib.contextmanager
def parsing(path: str):
    """Report a decoded artifact of the wrong shape as an input error naming it."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed artifact {path}: {exc!r}") from exc


def require(path: str, producer: str):
    """Error naming the stage that builds a missing upstream artifact."""
    if not os.path.exists(path):
        raise InputError(
            f"missing {os.path.basename(path)} artifact: {path} "
            f"(run the {producer!r} stage first)"
        )
    return path


def write_clusters(
    path: str,
    model: ClusterModel,
    summaries: list[ClusterSummary],
    vocabulary: Vocabulary,
    config_echo: dict,
) -> None:
    axes = model.axes
    clusters = []
    for c, summary in enumerate(summaries):
        rows = np.flatnonzero(np.asarray(model.assignment) == c)
        members = [model.doc_ids[int(r)] for r in rows]
        nz = np.flatnonzero(axes[c] != 0.0)
        axis = {vocabulary.terms[int(t)]: float(axes[c][int(t)]) for t in nz}
        clusters.append(
            {
                "id": c,
                "label": summary.label,
                "size": summary.size,
                "top_terms": [[t, round(w, 6)] for t, w in summary.top_terms],
                "members": members,
                "axis": axis,
            }
        )
    write_json(
        {
            "period_id": model.period_id,
            "config": config_echo,
            "vocab_sha256": vocab_sha256(vocabulary),
            "objective_trace": list(model.objective_trace),
            "clusters": clusters,
        },
        path,
    )


def read_clusters(
    path: str, vocabulary: Vocabulary
) -> tuple[ClusterModel, list[ClusterSummary]]:
    """Rebuild the exact model from the artifact's full-precision axes."""
    data = read_json(path)
    with parsing(path):
        stored = data.get("vocab_sha256")
        current = vocab_sha256(vocabulary)
        if stored != current:
            raise InputError(
                f"stale artifact {os.path.basename(path)}: it was built over a "
                "different vocabulary (re-run upstream stages)"
            )
        clusters = data["clusters"]
        k = len(clusters)
        axes = np.zeros((k, len(vocabulary)))
        member_cluster: dict[str, int] = {}
        summaries = []
        for entry in clusters:
            c = int(entry["id"])
            for term, weight in entry["axis"].items():
                axes[c][vocabulary.index[term]] = float(weight)
            for doc in entry["members"]:
                member_cluster[doc] = c
            summaries.append(
                ClusterSummary(
                    cluster_id=c,
                    label=entry["label"],
                    top_terms=tuple((t, float(w)) for t, w in entry["top_terms"]),
                    size=int(entry["size"]),
                )
            )
        doc_ids = tuple(sorted(member_cluster))
        assignment = np.array([member_cluster[d] for d in doc_ids], dtype=int)
        model = ClusterModel(
            period_id=data["period_id"],
            axes=axes,
            assignment=assignment,
            objective_trace=tuple(float(j) for j in data["objective_trace"]),
            sizes=tuple(s.size for s in summaries),
            doc_ids=doc_ids,
        )
    return model, summaries


def write_map(
    path: str, cmap: ClusterMap, summaries: list[ClusterSummary], tau: float
) -> None:
    write_json(
        {
            "period_id": cmap.period_id,
            "tau": tau,
            "coords": [[x, y] for x, y in cmap.coords],
            "eigenvalues": list(cmap.eigenvalues),
            "explained_variance": cmap.explained_variance,
            "edges": [[i, j, s] for i, j, s in cmap.edges],
            "components": [list(c) for c in cmap.components],
            "labels": [s.label for s in summaries],
            "sizes": [s.size for s in summaries],
        },
        path,
    )


def read_map(path: str) -> tuple[ClusterMap, list[ClusterSummary]]:
    data = read_json(path)
    with parsing(path):
        cmap = ClusterMap(
            period_id=data["period_id"],
            coords=tuple((float(x), float(y)) for x, y in data["coords"]),
            eigenvalues=(float(data["eigenvalues"][0]), float(data["eigenvalues"][1])),
            explained_variance=float(data["explained_variance"]),
            edges=tuple((int(i), int(j), float(s)) for i, j, s in data["edges"]),
            components=tuple(tuple(int(x) for x in c) for c in data["components"]),
        )
        summaries = [
            ClusterSummary(cluster_id=c, label=label, top_terms=(), size=int(size))
            for c, (label, size) in enumerate(zip(data["labels"], data["sizes"]))
        ]
    return cmap, summaries


def write_svg(path: str, cmap: ClusterMap, summaries: list[ClusterSummary]) -> None:
    with atomic_open(path) as fh:
        fh.write(render_svg(cmap, summaries))


def write_linkage(path: str, linkage: Linkage, labels: list[str]) -> None:
    write_json(
        {
            "rho": linkage.rho,
            "links": [
                {
                    "cluster_id": link.cluster_id,
                    "label": labels[link.cluster_id],
                    "status": link.status,
                    "parents": [[p, round(s, 6)] for p, s in link.parents],
                    "best_parent": (
                        [link.best_parent[0], round(link.best_parent[1], 6)]
                        if link.best_parent
                        else None
                    ),
                }
                for link in linkage.links
            ],
        },
        path,
    )


def write_crosstab(path: str, crosstab: CrossTab) -> None:
    """One row per cluster status; a status with no pooled terms gets
    empty share cells and n_terms 0."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["status"] + list(CROSSTAB_CATEGORIES) + ["n_terms"])
        for status in (STATUS_ROOTED, STATUS_NEW):
            shares = crosstab.shares[status]
            if shares is None:
                writer.writerow([status] + [""] * len(CROSSTAB_CATEGORIES) + [0])
            else:
                writer.writerow(
                    [status]
                    + [f"{shares[c]:.6f}" for c in CROSSTAB_CATEGORIES]
                    + [crosstab.n_terms[status]]
                )


def write_matrix(path: str, matrix, vocabulary: Vocabulary, weighting: str) -> None:
    """Optional inspection artifact: the weighted rows, term by term."""
    M = matrix.matrix
    rows = []
    for r, doc_id in enumerate(matrix.doc_ids):
        start, end = M.indptr[r], M.indptr[r + 1]
        weights = {
            vocabulary.terms[int(c)]: float(w)
            for c, w in zip(M.indices[start:end], M.data[start:end])
        }
        rows.append({"id": doc_id, "weights": weights})
    write_json(
        {
            "period_id": matrix.period_id,
            "weighting": weighting,
            "vocab_sha256": vocab_sha256(vocabulary),
            "shape": [matrix.n_rows, matrix.n_cols],
            "dropped_doc_ids": list(matrix.dropped_doc_ids),
            "rows": rows,
        },
        path,
    )
