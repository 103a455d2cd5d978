"""Deterministic readers and writers for pipeline artifacts.

Everything here is byte-stable: JSON floats are emitted by Python's
shortest-round-trip repr (so full-precision values reload exactly),
dict key order is fixed by construction, CSV fields use pinned decimal
formats, and every file is written through `atomic_open`, which hashes the
bytes as it writes them. Cluster files carry the full-precision axes, so a
later stage reads back the exact clusters, and geometry.json what map,
link and report take from a fit. The readers here check a file's own
content; provenance.json, the ledger that `pipeline.Run` keeps, says which
artifacts and config fields each file was built from.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import io
import json
import os
from typing import TYPE_CHECKING, Literal, NamedTuple, get_args

from .errors import ConfigError, InputError, checked, decode, encode
from .mapping import ClusterMap, render_svg

if TYPE_CHECKING:  # annotations only: diachrony imports from here
    from .diachrony import CrossTab

LOAD_REPORT = "load_report.json"
CORPUS = "corpus.jsonl"
TERMS = "terms.csv"
TRUTH = "truth.json"
MANIFEST = "run_manifest.json"
CROSSTAB = "crosstab.csv"
LINKAGE = "linkage.json"
PROVENANCE = "provenance.json"
GEOMETRY = "geometry.json"


class LoadReport(NamedTuple):
    """load_report.json: the input's sha256 and the records ingest read, kept and dropped."""

    input_sha256: str
    records_read: int
    records_kept: int
    dropped_empty_keywords: int
    p1_docs: int
    p2_docs: int
    dropped_outside_periods: int


class Cluster(NamedTuple):
    """A cluster in its file's key order; members in row order, the axis in vocabulary order.
    decode checks that `members` is a list and `axis` a dict, read_clusters their items."""

    id: int
    label: str
    size: int
    top_terms: tuple[tuple[str, float], ...]
    members: list
    axis: dict


class ClusterFile(NamedTuple):
    """clusters_P*.json: the period and the fit's objective trace, then its clusters."""

    period_id: str
    objective_trace: tuple[float, ...]
    clusters: tuple[Cluster, ...]


Status = Literal["rooted", "new"]  # a P2 cluster with a P1 parent is rooted, one without new
STATUS_ROOTED, STATUS_NEW = get_args(Status)


@checked
class ClusterLink(NamedTuple):
    """A P2 cluster in linkage.json's key order; parents are (P1 id, cosine >= rho), best first,
    each cosine to 6 places."""

    cluster_id: int
    label: str
    status: Status
    parents: tuple[tuple[int, float], ...]
    best_parent: tuple[int, float] | None

    def check(self) -> None:
        if (self.status == STATUS_ROOTED) != bool(self.parents):
            raise ValueError(f"link {self.cluster_id} is {self.status} with {len(self.parents)} parents")
        if self.best_parent != (self.parents[0] if self.parents else None):
            raise ValueError(f"the best parent of link {self.cluster_id} is not its first parent")
        cosines = [cosine for _, cosine in self.parents]
        if any(a < b for a, b in zip(cosines, cosines[1:])):
            raise ValueError(f"the parents of link {self.cluster_id} are not in cosine order, best first")


class Linkage(NamedTuple):
    """linkage.json: the rho it was built with and one link per P2 cluster."""

    rho: float
    links: tuple[ClusterLink, ...]


class PeriodGeometry(NamedTuple):
    """A period in geometry.json: its clusters' labels, sizes and top terms,
    by id, and the Gram matrix of their axes."""

    labels: tuple[str, ...]
    sizes: tuple[int, ...]
    top_terms: tuple[tuple[str, ...], ...]
    gram: tuple[tuple[float, ...], ...]


class Geometry(NamedTuple):
    """geometry.json: both periods, the dot products of the P2 axes with the
    P1 axes, and the Python, numpy and scipy versions of the fit."""

    p1: PeriodGeometry
    p2: PeriodGeometry
    dot: tuple[tuple[float, ...], ...]
    versions: dict


class Provenance(NamedTuple):
    """An artifact's record in provenance.json: the sha256 of its bytes, the
    sha256 of each artifact its stage took, by name, and the config fields
    that shaped it."""

    sha256: str
    inputs: dict
    config: dict


def clusters_file(period_id: str) -> str:
    return f"clusters_{period_id}.json"


def map_json_file(period_id: str) -> str:
    return f"map_{period_id}.json"


def map_svg_file(period_id: str) -> str:
    return f"map_{period_id}.svg"


class _Sha256Writer(io.BufferedIOBase):
    """The binary file `raw`, hashing the bytes written through it."""

    def __init__(self, raw) -> None:
        self.raw, self.sha256 = raw, hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.raw.write(data)


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Write a text file through a temporary file in the same directory,
    renamed over `path` on success and removed on error (atomic, no fsync).
    Yields the file and the sha256 of the bytes written to it, whole once
    the block ends."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as raw:
            sink = _Sha256Writer(raw)
            with io.TextIOWrapper(sink, encoding="utf-8", newline=newline) as fh:
                yield fh, sink.sha256
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(obj, path: str) -> str:
    """Write `obj`, encoded, as indented JSON; returns the sha256 of the bytes
    written. As save_corpus does, it serializes once and writes past the text
    layer in one call, with the line ends text mode would write."""
    text = json.dumps(encode(obj), indent=2, ensure_ascii=False) + "\n"
    with atomic_open(path) as (fh, sha256):
        fh.buffer.write(text.replace("\n", os.linesep).encode("utf-8"))
    return sha256.hexdigest()


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
    """The record `cls`, a NamedTuple, from the JSON artifact `path`, decoded strictly."""
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


def stale(name: str, reason: str, producer: str) -> InputError:
    return InputError(f"stale artifact {name}: {reason} (re-run the {producer} stage)")


def check_built_with(name: str, key: str, built, value, producer: str) -> None:
    if built != value:
        raise stale(name, f"it was built with {key} {json.dumps(built)}, not {json.dumps(value)}", producer)


def write_ledger(path: str, ledger: dict[str, Provenance]) -> str:
    """Write provenance.json, its records in name order."""
    return write_json({name: encode(ledger[name]) for name in sorted(ledger)}, path)


def read_ledger(path: str, names) -> dict[str, Provenance]:
    """provenance.json, whose records may name as inputs only the artifacts `names`."""
    data = read_json(path)
    with parsing(path):
        ledger = {name: decode(Provenance, record, name) for name, record in data.items()}
        for name, record in ledger.items():
            if not record.inputs.keys() <= names:
                raise ValueError(f"the record of {name} names an input that no stage writes")
    return ledger


def top_terms(axis: dict, top_m: int) -> tuple[str, tuple[tuple[str, float], ...]]:
    """A cluster's label and top terms, from its axis: the `top_m` terms of
    largest positive weight, ties in term order, each with its weight rounded
    to 6 places once chosen, and the first of them as the label ("" if none)."""
    heaviest = heapq.nsmallest(top_m, ((-w, t) for t, w in axis.items() if w > 0.0))
    top = tuple((t, round(-w, 6)) for w, t in heaviest)
    return (top[0][0] if top else ""), top


def write_clusters(path: str, clusters: ClusterFile) -> str:
    return write_json(clusters, path)  # encode leaves each members list and axis dict as it is


def read_clusters(path: str, period_id: str, k: int, top_m: int, terms=None) -> ClusterFile:
    """The checked cluster file `path` of the period `period_id`.

    The file must record `period_id`, decode as a ClusterFile and hold k
    clusters, numbered 0 to k-1 in order, with axis weights in [-1, 1] and
    string members. Each cluster's size must be its member count, and its
    label and top terms the ones `top_terms` gives for its axis under
    `top_m`. No document may be listed twice. Given the set of vocabulary
    `terms`, every axis term must be one of them.
    """
    data = read_json(path)
    with parsing(path):
        check_built_with(os.path.basename(path), "period_id", data.get("period_id"), period_id, "cluster")
        record = decode(ClusterFile, data)
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
            if terms is not None and not c.axis.keys() <= terms:
                stray = next(term for term in c.axis if term not in terms)
                raise ValueError(f"axis term {stray!r} of cluster {c.id} is not in the vocabulary")
    return record


def read_geometry(path: str, ks: tuple[int, int], terms=None) -> Geometry:
    """The geometry.json `path` of ks[0] P1 and ks[1] P2 clusters: per period k
    sizes, top-term lists, each label the first of its list ("" if none), and
    a k x k Gram matrix; ks[1] x ks[0] dot products. Given the set of
    vocabulary `terms`, every P2 top term must be one of them."""
    record = read_artifact(path, Geometry)
    with parsing(path):
        for period_id, period, k in zip(("P1", "P2"), (record.p1, record.p2), ks):
            lengths = {len(period.sizes), len(period.top_terms), len(period.gram), *map(len, period.gram)}
            if lengths != {k} or period.labels != tuple((*top, "")[0] for top in period.top_terms):
                raise ValueError(f"{period_id} is not k={k} clusters, each labelled by its first top term")
        if list(map(len, record.dot)) != [ks[0]] * ks[1]:
            raise ValueError(f"the dot products are not {ks[1]} x {ks[0]}")
        stray = [t for top in record.p2.top_terms for t in top if t not in terms] if terms is not None else ()
        if stray:
            raise ValueError(f"P2 top term {stray[0]!r} is not in the vocabulary")
    return record


def write_map(path: str, cmap: ClusterMap) -> str:
    return write_json(cmap, path)


def read_map(path: str, period_id: str) -> ClusterMap:
    """The map of `period_id` in `path`."""
    cmap = read_artifact(path, ClusterMap)
    check_built_with(os.path.basename(path), "period_id", cmap.period_id, period_id, "map")
    return cmap


def read_linkage(path: str, k: int) -> Linkage:
    """The linkage in `path`, which must link the P2 clusters 0 to k-1 in order."""
    linkage = read_artifact(path, Linkage)
    with parsing(path):
        if [link.cluster_id for link in linkage.links] != list(range(k)):
            raise ValueError(f"the links are not of the k={k} P2 clusters 0 to {k - 1} in order")
    return linkage


def write_svg(path: str, cmap: ClusterMap) -> None:
    with atomic_open(path) as (fh, _):
        fh.write(render_svg(cmap))


def write_linkage(path: str, linkage: Linkage) -> str:
    return write_json(linkage, path)


def write_crosstab(path: str, crosstab: CrossTab) -> None:
    """One row per cluster status; a status with no pooled terms gets
    empty share cells and n_terms 0."""
    from .diffusion import CATEGORIES  # here, so that map and report never load diffusion

    with atomic_open(path, newline="") as (fh, _):
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
