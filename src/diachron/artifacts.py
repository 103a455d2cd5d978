"""Deterministic readers and writers for pipeline artifacts.

Everything here is byte-stable: JSON floats are emitted by Python's
shortest-round-trip repr (so full-precision values reload exactly),
dict key order is fixed by construction, and CSV fields use pinned
decimal formats, and every file is written through `atomic_open`.
Cluster files carry the full-precision axes plus the hashes of the
vocabulary and of corpus.jsonl, which is what lets a later stage read
back the exact clusters and detect stale artifacts after an input change.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import heapq
import json
import os
from typing import TYPE_CHECKING, Literal, get_args

from .errors import ConfigError, InputError, decode
from .mapping import ClusterMap, render_svg

if TYPE_CHECKING:  # annotations only: diachrony imports from here, and map never loads corpus
    from .corpus import Vocabulary
    from .diachrony import CrossTab

LOAD_REPORT = "load_report.json"
CORPUS = "corpus.jsonl"
TERMS = "terms.csv"
TRUTH = "truth.json"
MANIFEST = "run_manifest.json"
CROSSTAB = "crosstab.csv"
LINKAGE = "linkage.json"


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """load_report.json: the input's sha256 and the records ingest read, kept and dropped."""

    input_sha256: str
    records_read: int
    records_kept: int
    dropped_empty_keywords: int
    p1_docs: int
    p2_docs: int
    dropped_outside_periods: int


@dataclasses.dataclass(frozen=True)
class Cluster:
    """A cluster in its file's key order; members in row order, the axis in vocabulary order.
    decode checks that `members` is a list and `axis` a dict, read_clusters their items."""

    id: int
    label: str
    size: int
    top_terms: tuple[tuple[str, float], ...]
    members: list
    axis: dict


@dataclasses.dataclass(frozen=True)
class ClusterFile:
    """clusters_P*.json: the fit's settings and input hashes, then its clusters."""

    period_id: str
    config: dict
    vocab_sha256: str
    corpus_sha256: str
    objective_trace: tuple[float, ...]
    clusters: tuple[Cluster, ...]


Status = Literal["rooted", "new"]  # a P2 cluster with a P1 parent is rooted, one without new
STATUS_ROOTED, STATUS_NEW = get_args(Status)


@dataclasses.dataclass(frozen=True)
class ClusterLink:
    """A P2 cluster in linkage.json's key order; parents are (P1 id, cosine >= rho), best first,
    each cosine to 6 places."""

    cluster_id: int
    label: str
    status: Status
    parents: tuple[tuple[int, float], ...]
    best_parent: tuple[int, float] | None

    def __post_init__(self) -> None:
        if (self.status == STATUS_ROOTED) != bool(self.parents):
            raise ValueError(f"link {self.cluster_id} is {self.status} with {len(self.parents)} parents")
        if self.best_parent != (self.parents[0] if self.parents else None):
            raise ValueError(f"the best parent of link {self.cluster_id} is not its first parent")
        cosines = [cosine for _, cosine in self.parents]
        if any(a < b for a, b in zip(cosines, cosines[1:])):
            raise ValueError(f"the parents of link {self.cluster_id} are not in cosine order, best first")


@dataclasses.dataclass(frozen=True)
class Linkage:
    """linkage.json: the rho it was built with and one link per P2 cluster."""

    rho: float
    links: tuple[ClusterLink, ...]


def clusters_file(period_id: str) -> str:
    return f"clusters_{period_id}.json"


def map_json_file(period_id: str) -> str:
    return f"map_{period_id}.json"


def map_svg_file(period_id: str) -> str:
    return f"map_{period_id}.svg"


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


def sha256_file(path: str) -> str:
    import hashlib  # here, so that report never loads it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def vocab_sha256(vocabulary: Vocabulary) -> str:
    import hashlib

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
    def non_finite(constant: str):  # json's NaN and Infinity, which no artifact holds
        raise InputError(f"malformed artifact {path}: {constant} is not a finite number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=non_finite)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a long integer, deep nesting
        raise InputError(f"cannot decode {path}: {exc}") from exc


@contextlib.contextmanager
def parsing(path: str):
    """Report a decoded artifact of the wrong shape as an input error naming it."""
    try:
        yield
    except (
        AttributeError, LookupError, OverflowError, TypeError, ValueError, csv.Error, ConfigError
    ) as exc:  # ConfigError: a field that decode rejects
        detail = repr(exc) if isinstance(exc, KeyError) else exc  # a KeyError's message is the bare key
        raise InputError(f"malformed artifact {path}: {detail}") from exc


def read_artifact(path: str, cls):
    """The frozen dataclass `cls` from the JSON artifact `path`, decoded strictly."""
    data = read_json(path)
    with parsing(path):
        return decode(cls, data)


def require(path: str, producer: str):
    """Error naming the stage that builds a missing upstream artifact."""
    if not os.path.exists(path):
        raise InputError(
            f"missing {os.path.basename(path)} artifact: {path} "
            f"(run the {producer!r} stage first)"
        )
    return path


def _stale(name: str, reason: str, fix: str = "re-run upstream stages") -> InputError:
    return InputError(f"stale artifact {name}: {reason} ({fix})")


def _check_built_with(path: str, key: str, built, value, fix: str = "re-run upstream stages") -> None:
    if built != value:
        reason = f"it was built with {key} {json.dumps(built)}, not {json.dumps(value)}"
        raise _stale(os.path.basename(path), reason, fix)


def top_terms(axis: dict, top_m: int) -> tuple[str, tuple[tuple[str, float], ...]]:
    """A cluster's label and top terms, from its axis: the `top_m` terms of
    largest positive weight, ties in term order, each with its weight rounded
    to 6 places once chosen, and the first of them as the label ("" if none)."""
    heaviest = heapq.nsmallest(top_m, ((-w, t) for t, w in axis.items() if w > 0.0))
    top = tuple((t, round(-w, 6)) for w, t in heaviest)
    return (top[0][0] if top else ""), top


def write_clusters(path: str, clusters: ClusterFile) -> None:
    # the fields as they are: dataclasses.asdict would deep-copy every axis weight
    write_json({**vars(clusters), "clusters": list(map(vars, clusters.clusters))}, path)


def read_clusters(path: str, period_id: str, corpus_sha256: str, config_echo: dict) -> ClusterFile:
    """The checked cluster file `path` of the period `period_id`.

    The file must record `period_id` and the sha256 of corpus.jsonl, echo
    every key of the running `config_echo` (as JSON holds it), decode as a
    ClusterFile and hold the echoed k clusters, numbered 0 to k-1 in order,
    with axis weights in [-1, 1] and string members. Each cluster's size
    must be its member count, and its label and top terms the ones
    `top_terms` gives for its axis under the echoed top_m. No document may
    be listed twice. The vocabulary is checked apart, by check_vocabulary.
    """
    data = read_json(path)
    with parsing(path):
        _check_built_with(path, "period_id", data.get("period_id"), period_id, "re-run the cluster stage")
        if data.get("corpus_sha256") != corpus_sha256:
            raise _stale(os.path.basename(path), "it was built over a different corpus.jsonl")
        for key, value in config_echo.items():
            _check_built_with(path, key, data["config"].get(key), value)
        record = decode(ClusterFile, data)
        k, top_m = config_echo["k"], config_echo["top_m"]
        if [c.id for c in record.clusters] != list(range(k)):  # the linkage's ids
            raise ValueError(f"the clusters are not k={k} with ids 0 to {k - 1} in order")
        listed: set[str] = set()
        count = 0
        for c in record.clusters:
            weights = c.axis.values()
            # the axes are unit vectors; json reads 1e999 as inf, which fails too
            if not set(map(type, weights)) <= {int, float} or not all(abs(w) <= 1.0 for w in weights):
                raise ValueError(f"an axis weight of cluster {c.id} is not a number in [-1, 1]")
            if not set(map(type, c.members)) <= {str}:
                raise ValueError(f"a member of cluster {c.id} is not a string")
            listed.update(c.members)
            count += len(c.members)
            if len(listed) != count:
                raise ValueError(f"a document of cluster {c.id} is listed twice")
            if c.size != len(c.members):
                raise ValueError(f"cluster {c.id} has size {c.size} but {len(c.members)} members")
            if (c.label, c.top_terms) != top_terms(c.axis, top_m):
                raise ValueError(f"the label and top terms of cluster {c.id} are not its axis's top {top_m}")
    return record


def check_vocabulary(path: str, record: ClusterFile, vocabulary: Vocabulary, vocabulary_sha256: str) -> None:
    """Check the cluster file `path`, as `record`, against the vocabulary whose
    `vocab_sha256` is `vocabulary_sha256`: the file must record that hash, or
    terms.csv and load_report.json are stale, and its axis terms must be
    vocabulary terms."""
    if record.vocab_sha256 != vocabulary_sha256:
        reason = f"they do not hold the vocabulary {os.path.basename(path)} was built over"
        raise _stale(f"{TERMS} or {LOAD_REPORT}", reason, "re-run the terms stage, or ingest")
    terms = vocabulary.index.keys()
    with parsing(path):
        for c in record.clusters:
            if not c.axis.keys() <= terms:
                stray = next(term for term in c.axis if term not in terms)
                raise ValueError(f"axis term {stray!r} of cluster {c.id} is not in the vocabulary")


def write_map(path: str, cmap: ClusterMap) -> None:
    write_json(dataclasses.asdict(cmap), path)


def read_map(path: str, period_id: str, tau: float) -> ClusterMap:
    """The map of `period_id` in `path`, which must have been built with `tau`."""
    cmap = read_artifact(path, ClusterMap)
    _check_built_with(path, "period_id", cmap.period_id, period_id, "re-run the map stage")
    _check_built_with(path, "tau", cmap.tau, tau, "re-run the map stage")
    return cmap


def read_linkage(path: str, rho: float, k: int) -> Linkage:
    """The linkage in `path`, which must have been built with `rho` and
    link the P2 clusters 0 to k-1 in order."""
    linkage = read_artifact(path, Linkage)
    _check_built_with(path, "rho", linkage.rho, rho, "re-run the link stage")
    with parsing(path):
        if [link.cluster_id for link in linkage.links] != list(range(k)):
            raise ValueError(f"the links are not of the k={k} P2 clusters 0 to {k - 1} in order")
    return linkage


def write_svg(path: str, cmap: ClusterMap) -> None:
    with atomic_open(path) as fh:
        fh.write(render_svg(cmap))


def write_linkage(path: str, linkage: Linkage) -> None:
    write_json(dataclasses.asdict(linkage), path)


def write_crosstab(path: str, crosstab: CrossTab) -> None:
    """One row per cluster status; a status with no pooled terms gets
    empty share cells and n_terms 0."""
    from .diffusion import CATEGORIES  # here, so that map and report never load diffusion

    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["status"] + list(CATEGORIES) + ["n_terms"])
        for status, shares in crosstab.shares.items():  # rooted, then new, as cross_table builds it
            if shares is None:
                writer.writerow([status] + [""] * len(CATEGORIES) + [0])
            else:
                writer.writerow(
                    [status]
                    + [f"{shares[c]:.6f}" for c in CATEGORIES]
                    + [crosstab.n_terms[status]]
                )
