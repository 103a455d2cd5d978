"""Stage orchestration: one config drives the whole artifact directory.

A stage takes its inputs from the invocation's `Run`. A record that an
earlier stage of the same invocation made (ingest's periods and load
report, the clusters and their geometry, the maps, the linkage) is handed
on as it is; anything else is read from the prior-stage artifact in the
output directory and checked against provenance.json, the ledger of what
each artifact was built from. Each record holds its values as its file does,
so stages run one at a time or chained by `run` give byte-identical
results. Both go through one runner, which hands every stage one
argument, the `Run`. All randomness flows from the single config seed
through stage-labeled derived seeds, and row order is fixed once, when
`split_periods` sorts each period by record id. Only terms and cluster
parse corpus.jsonl, and only terms a cluster file: map, link and report
read geometry.json, what no tau or rho changes, recorded once per fit.

Config values are checked once, as the config file is decoded (types and
choices) and a RunConfig built (ranges); the stages and the library
routines under them take them as given. The config records live here,
and each stage imports the modules of its own work: map, link and report
load neither numpy nor scipy (their arithmetic is in Python floats, and the
versions come from the fit), map and report neither corpus nor diffusion,
link not the map code, and only cluster loads scipy.

The terms stage runs before clustering when dispersion cells come from
record categories, and after it when cells are the period clusters
themselves; the canonical stage list in the manifest reflects that.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Literal, NamedTuple, get_args

from . import __version__, artifacts
from .errors import ConfigError, InputError, checked, decode, encode, read_json_object
from .seeding import derive_seed

if TYPE_CHECKING:  # imported in the stages and Run methods that use them
    from .corpus import CorpusSlice, Vocabulary
    from .diffusion import TermStats
    from .mapping import ClusterMap

PERIOD_IDS = ("P1", "P2")
Format = Literal["jsonl", "csv"]
FORMATS = get_args(Format)


@checked
class PeriodSpec(NamedTuple):
    """Two successive, disjoint year windows, each an inclusive [start, end] pair."""

    p1: tuple[int, int]
    p2: tuple[int, int]

    def check(self) -> None:
        (p1_start, p1_end), (p2_start, p2_end) = self.p1, self.p2
        if not (p1_start <= p1_end < p2_start <= p2_end):
            raise ConfigError(
                "invalid period spec: require p1_start <= p1_end < p2_start <= p2_end, "
                f"got [{p1_start},{p1_end}] and [{p2_start},{p2_end}]"
            )


@checked
class DiffusionThresholds(NamedTuple):
    """Quantile cuts and novelty share driving the decision table."""

    df_high_quantile: float = 0.75
    gini_low_quantile: float = 0.25
    novelty_share: float = 0.8

    def check(self) -> None:
        for name in ("df_high_quantile", "gini_low_quantile"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie strictly between 0 and 1, got {value}")
        if not 0.0 < self.novelty_share <= 1.0:
            raise ConfigError(f"novelty_share must lie in (0, 1], got {self.novelty_share}")


@checked
class ClusterSection(NamedTuple):
    """The config file's `cluster` section; `k_p1` and `k_p2` override `k`."""

    k: int = 20
    k_p1: int | None = None
    k_p2: int | None = None
    max_iters: int = 100
    tol: float = 1e-9
    restarts: int = 10

    def check(self) -> None:
        for name in ("k", "k_p1", "k_p2"):
            value = getattr(self, name)
            if value is not None and value < 2:
                raise ConfigError(f"{name} must be >= 2 to map clusters, got {value}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.tol < 0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")


class ClusterConfig(NamedTuple):
    """One period's fit settings, in the key order of its cluster file's echo."""

    k: int
    max_iters: int = 100
    tol: float = 1e-9
    restarts: int = 10
    seed: int = 0


@checked
class RunConfig(NamedTuple):
    """A config file in its own shape and key order (the manifest's), required fields first."""

    input: str
    periods: PeriodSpec
    format: Format = "jsonl"
    min_df: int = 2
    weighting: Literal["binary", "tfidf"] = "tfidf"
    thresholds: DiffusionThresholds = DiffusionThresholds()
    cluster: ClusterSection = ClusterSection()
    tau: float = 0.2
    rho: float = 0.3
    top_m: int = 10
    gini_cells: Literal["categories", "clusters"] = "categories"
    seed: int = 0

    def check(self) -> None:
        try:  # the checks open() makes on a path before it looks at the file system
            if b"\0" in os.fsencode(self.input):
                raise ValueError("embedded null byte")
        except ValueError as exc:
            raise ConfigError(f"input must be a file path, got {self.input!r}: {exc}") from exc
        if self.min_df < 1:
            raise ConfigError(f"min_df must be >= 1, got {self.min_df}")
        if self.top_m < 1:
            raise ConfigError(f"top_m must be >= 1, got {self.top_m}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"rho must be in (0, 1], got {self.rho}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def cluster_config(self, period_id: str) -> ClusterConfig:
        section = self.cluster
        return ClusterConfig(
            k={"P1": section.k_p1, "P2": section.k_p2}[period_id] or section.k,
            max_iters=section.max_iters,
            tol=section.tol,
            restarts=section.restarts,
            seed=derive_seed(self.seed, f"cluster.{period_id}"),
        )

    def stage_order(self) -> list[str]:
        if self.gini_cells == "clusters":
            return ["ingest", "cluster", "terms", "map", "link", "report"]
        return ["ingest", "terms", "cluster", "map", "link", "report"]


def config_from_dict(data: dict, base_dir: str = ".") -> RunConfig:
    """RunConfig from a decoded config file, a relative `input` resolved
    against `base_dir`."""
    config = decode(RunConfig, data)
    if os.path.isabs(config.input):
        return config
    return config._replace(input=os.path.normpath(os.path.join(base_dir, config.input)))


def load_config(path: str) -> RunConfig:
    data = read_json_object(path, "config")
    data.pop("dump_matrices", None)  # a retired key, still accepted
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


class Run:
    """One invocation: the config, the output directory, the thread count of
    the fit, the ledger and the record of each artifact the stages take.

    Every record kept in a file comes through `_read`: the one its stage
    made earlier in this invocation, equal to a read of its file, or else
    the file, read and checked once. terms.csv's stats are always read from
    the file: holding them through the fits would raise the peak memory.
    The ledger, provenance.json, holds for each artifact in `settings` the
    sha256 of its bytes as written, those of the artifacts its stage took,
    and the config fields that shaped it. Each `hand_on` rewrites it, and
    ingest, whose corpus.jsonl every other artifact derives from, starts it
    anew unless it records the very corpus.jsonl just written."""

    def __init__(self, config: RunConfig, out: str, threads: int = 1) -> None:
        self.config, self.out, self.threads = config, out, threads
        self.settings = _settings(config)
        self._records: dict[str, object] = {}  # artifact name -> record, made or read
        self._made: set[str] = set()  # the artifacts this invocation wrote
        self._checked: set[str] = set()  # the ledger records checked against the config
        self._ledger: dict[str, artifacts.Provenance] | None = None
        self._vocabulary: Vocabulary | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def ledger(self) -> dict[str, artifacts.Provenance]:
        if self._ledger is None:
            path = artifacts.require(self.path(artifacts.PROVENANCE), "ingest")
            self._ledger = artifacts.read_ledger(path, self.settings.keys())
        return self._ledger

    def hand_on(self, name: str, sha256: str, inputs=(), record=None) -> None:
        """Record in the ledger that a stage wrote `name`, whose bytes have
        the digest `sha256`, from the artifacts `inputs`; `record`, unless
        None, is what the file holds, for the later stages to take."""
        if name == artifacts.CORPUS:  # the ledger stands only if it records these very bytes
            try:
                kept = self.ledger().get(name)
            except (InputError, OSError):  # missing or unreadable
                kept = None
            if kept is None or kept.sha256 != sha256:
                self._ledger = {}
        ledger = self.ledger()
        ledger[name] = artifacts.Provenance(sha256, {i: ledger[i].sha256 for i in inputs}, self.settings[name][1])
        artifacts.write_ledger(self.path(artifacts.PROVENANCE), ledger)
        self._made.add(name)
        if record is not None:
            self._records[name] = record

    def _check(self, name: str) -> None:
        """Check the ledger record of `name`, then those of its inputs, recursively."""
        if name in self._checked:
            return
        self._checked.add(name)  # before the inputs, so that a cycle ends
        producer, settings = self.settings[name]
        record = self.ledger().get(name)
        if record is None:
            raise artifacts.stale(name, f"{artifacts.PROVENANCE} holds no record of it", producer)
        for key, value in settings.items():
            artifacts.check_built_with(name, key, record.config.get(key), value, producer)
        for source, sha256 in record.inputs.items():
            self._check(source)
            if self.ledger()[source].sha256 != sha256:
                raise artifacts.stale(name, f"it was built from another {source}", producer)

    def _read(self, name: str, reader=None, *args):
        """The record of `name`: the one handed on, or else `reader(path, *args)`
        of its file, which is checked, unless this invocation wrote it, by
        `_check`, by `reader`, and then by its sha256 (with no reader, None).
        The caller evaluates `args` before the file is required, so an input
        they read is named first if missing."""
        if self._records.get(name) is None:  # not read, or checked unparsed
            producer = self.settings[name][0]
            path = artifacts.require(self.path(name), producer)
            checked = name not in self._made
            if checked:
                self._check(name)
            record = reader(path, *args) if reader else None
            if checked and artifacts.sha256_file(path) != self.ledger()[name].sha256:
                raise artifacts.stale(name, f"its bytes are not the ones {artifacts.PROVENANCE} records", producer)
            self._records[name] = record
        return self._records[name]

    def geometry(self, terms=None) -> artifacts.Geometry:
        """The fit's geometry, as made or from its checked file, whose P2 top
        terms must be among the vocabulary `terms`, if given; each cluster
        file it was built from is checked first, all but a parse."""
        for period_id in PERIOD_IDS:
            self._read(artifacts.clusters_file(period_id))
        ks = tuple(self.config.cluster_config(period_id).k for period_id in PERIOD_IDS)
        return self._read(artifacts.GEOMETRY, artifacts.read_geometry, ks, terms)

    def slices(self) -> tuple[CorpusSlice, CorpusSlice, Vocabulary]:
        from .corpus import build_vocabulary, load_slices

        p1, p2 = self._read(artifacts.CORPUS, load_slices, self.config.periods)
        if self._vocabulary is None:
            self._vocabulary = build_vocabulary(p1, p2, self.config.min_df)
        return p1, p2, self._vocabulary

    def terms(self) -> list[TermStats]:
        from .diffusion import read_terms_csv

        return self._read(artifacts.TERMS, read_terms_csv)

    def load_report(self) -> artifacts.LoadReport:
        return self._read(artifacts.LOAD_REPORT, artifacts.read_artifact, artifacts.LoadReport)

    def read_clusters(self, period_id: str, terms=None) -> tuple[artifacts.Cluster, ...]:
        """A period's clusters, as fitted or from its checked cluster file,
        whose axis terms must be among the vocabulary `terms`, if given."""
        k, top_m = self.config.cluster_config(period_id).k, self.config.top_m
        name = artifacts.clusters_file(period_id)
        return self._read(name, artifacts.read_clusters, period_id, k, top_m, terms).clusters

    def read_map(self, period_id: str) -> ClusterMap:
        """A period's map, as built or from its checked map file."""
        return self._read(artifacts.map_json_file(period_id), artifacts.read_map, period_id)

    def read_linkage(self) -> artifacts.Linkage:
        """The linkage, as built or from its checked file, of the P2 map's clusters."""
        k = len(self.read_map("P2").coords)
        return self._read(artifacts.LINKAGE, artifacts.read_linkage, k)


def _settings(config: RunConfig) -> dict[str, tuple[str, dict]]:
    """Each artifact that a later stage reads: the stage that writes it, and
    the config fields that shape it, as the ledger holds them. tau and rho
    shape only the maps and the linkage, so that map, link and report re-run
    under new ones reuse the rest, geometry.json included."""
    vocabulary = {"periods": encode(config.periods), "min_df": config.min_df}
    thresholds = {"thresholds": encode(config.thresholds), "gini_cells": config.gini_cells}
    settings = {
        artifacts.CORPUS: ("ingest", {}),
        artifacts.LOAD_REPORT: ("ingest", {"periods": vocabulary["periods"]}),
        artifacts.TERMS: ("terms", {**vocabulary, **thresholds}),
        artifacts.LINKAGE: ("link", {"rho": config.rho}),
        artifacts.GEOMETRY: ("cluster", {}),
    }
    for period_id in PERIOD_IDS:
        fit = {**encode(config.cluster_config(period_id)), "weighting": config.weighting}
        settings[artifacts.clusters_file(period_id)] = ("cluster", {**fit, "top_m": config.top_m, **vocabulary})
        settings[artifacts.map_json_file(period_id)] = ("map", {"tau": config.tau})
    # as the ledger reads them back: `encode` leaves a tuple, which json writes as an array
    return {name: (producer, json.loads(json.dumps(fields))) for name, (producer, fields) in settings.items()}


def stage_ingest(run: Run) -> None:
    from .corpus import load_corpus, save_corpus, split_periods

    config = run.config
    records, dropped_empty = load_corpus(config.input, config.format)
    p1, p2, dropped_outside = split_periods(records, config.periods)
    try:
        corpus_digest = save_corpus(records, run.path(artifacts.CORPUS))
    except UnicodeEncodeError as exc:  # only a lone surrogate escape, such as "\ud800", does that
        raise InputError(f"{config.input}: a record holds a lone surrogate") from exc
    report = artifacts.LoadReport(
        input_sha256=artifacts.sha256_file(config.input),
        records_read=len(records) + dropped_empty,
        records_kept=len(records),
        dropped_empty_keywords=dropped_empty,
        p1_docs=p1.n_docs,
        p2_docs=p2.n_docs,
        dropped_outside_periods=dropped_outside,
    )
    report_digest = artifacts.write_json(report, run.path(artifacts.LOAD_REPORT))
    run.hand_on(artifacts.CORPUS, corpus_digest, record=(p1, p2))
    run.hand_on(artifacts.LOAD_REPORT, report_digest, record=report)


def stage_terms(run: Run) -> None:
    from .diffusion import classify_terms, write_terms_csv

    p1, p2, vocabulary = run.slices()
    cells, inputs = None, [artifacts.CORPUS]  # cells: record categories
    if run.config.gini_cells == "clusters":  # first-period cluster memberships
        clusters = run.read_clusters("P1", vocabulary.index.keys())
        cells = {doc_id: (f"P1:{c.id}",) for c in clusters for doc_id in c.members}
        inputs.append(artifacts.clusters_file("P1"))
    stats = classify_terms(vocabulary, (p1, p2), run.config.thresholds, cells)
    run.hand_on(artifacts.TERMS, write_terms_csv(stats, run.path(artifacts.TERMS)), inputs)


def stage_cluster(run: Run) -> None:
    import numpy
    import scipy

    from .cluster import fit_axial_kmeans, summarize_clusters
    from .mapping import dot, gram_matrix
    from .vectorize import build_matrix

    config = run.config
    p1, p2, vocabulary = run.slices()
    for slice_ in (p1, p2):
        matrix = build_matrix(slice_, vocabulary, config.weighting)
        model = fit_axial_kmeans(matrix, config.cluster_config(slice_.period_id), threads=run.threads)
        clusters = summarize_clusters(model, vocabulary, config.top_m)
        name = artifacts.clusters_file(slice_.period_id)
        record = artifacts.ClusterFile(model.period_id, model.objective_trace, tuple(clusters))
        run.hand_on(name, artifacts.write_clusters(run.path(name), record), [artifacts.CORPUS], record)
        del matrix, model, clusters, record  # so that P2's matrix and fit do not join P1's in memory
    fitted = [run.read_clusters(period_id) for period_id in PERIOD_IDS]  # as handed on above
    axes = [[c.axis for c in clusters] for clusters in fitted]
    periods = [
        artifacts.PeriodGeometry(
            tuple(c.label for c in clusters),
            tuple(c.size for c in clusters),
            tuple(tuple(term for term, _ in c.top_terms) for c in clusters),
            tuple(map(tuple, gram_matrix(period_axes))),
        )
        for clusters, period_axes in zip(fitted, axes)
    ]
    dots = tuple(tuple(dot(a2, a1) for a1 in axes[0]) for a2 in axes[1])
    # sys.version's first token is the one platform.python_version() parses
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    geometry = artifacts.Geometry(*periods, dots, versions)
    sha256 = artifacts.write_json(geometry, run.path(artifacts.GEOMETRY))
    run.hand_on(artifacts.GEOMETRY, sha256, list(map(artifacts.clusters_file, PERIOD_IDS)), geometry)


def stage_map(run: Run) -> None:
    from .mapping import build_cluster_map

    geometry = run.geometry()
    for period_id, period in zip(PERIOD_IDS, (geometry.p1, geometry.p2)):
        cmap = build_cluster_map(period_id, period.gram, run.config.tau, period.labels, period.sizes)
        name = artifacts.map_json_file(period_id)
        sha256 = artifacts.write_map(run.path(name), cmap)
        artifacts.write_svg(run.path(artifacts.map_svg_file(period_id)), cmap)
        run.hand_on(name, sha256, [artifacts.clusters_file(period_id), artifacts.GEOMETRY], cmap)


def stage_link(run: Run) -> None:
    from .diachrony import cross_table, link_periods

    stats = run.terms()
    geometry = run.geometry({s.term for s in stats})  # the vocabulary
    p1, p2 = geometry.p1, geometry.p2
    norms_p1, norms_p2 = ([row[i] for i, row in enumerate(p.gram)] for p in (p1, p2))  # the Gram diagonals
    linkage = link_periods(geometry.dot, norms_p1, norms_p2, p2.labels, run.config.rho)
    crosstab = cross_table(linkage, p2.top_terms, stats)
    sha256 = artifacts.write_linkage(run.path(artifacts.LINKAGE), linkage)
    artifacts.write_crosstab(run.path(artifacts.CROSSTAB), crosstab)
    inputs = [*map(artifacts.clusters_file, PERIOD_IDS), artifacts.TERMS, artifacts.GEOMETRY]
    run.hand_on(artifacts.LINKAGE, sha256, inputs, linkage)


def stage_report(run: Run) -> None:
    maps = [run.read_map(p) for p in PERIOD_IDS]
    run.read_linkage()
    input_sha256 = run.load_report().input_sha256
    versions = run.geometry().versions  # the fit's, which made the bytes
    for period_id, cmap in zip(PERIOD_IDS, maps):  # every input checked before the first write
        artifacts.write_svg(run.path(artifacts.map_svg_file(period_id)), cmap)
    artifacts.write_json(
        {
            "config": encode(run.config),
            "input_sha256": input_sha256,
            "versions": {"diachron": __version__, **versions},
            "stages": run.config.stage_order(),
        },
        run.path(artifacts.MANIFEST),
    )


STAGES = {
    "ingest": stage_ingest,
    "terms": stage_terms,
    "cluster": stage_cluster,
    "map": stage_map,
    "link": stage_link,
    "report": stage_report,
}


def run_stages(names: list[str], config: RunConfig, out: str, threads: int = 1, log=None) -> None:
    """Run stages in order; on failure, remove the files this invocation
    created, and `out` too if it created it and it is left empty. `log`,
    unless None, takes each stage's timing, as a logger's `info` does."""
    created = not os.path.exists(out)
    os.makedirs(out, exist_ok=True)
    before = set(os.listdir(out))
    run = Run(config, out, threads)  # corpus.jsonl is parsed on first use, after any ingest
    begin = time.perf_counter()
    try:
        for name in names:
            start = time.perf_counter()
            STAGES[name](run)
            if log:
                log("stage %s finished in %.2fs", name, time.perf_counter() - start)
    except BaseException:
        for entry in set(os.listdir(out)) - before:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(out, entry))
        if created:
            with contextlib.suppress(OSError):  # rmdir removes only an empty directory
                os.rmdir(out)
        raise
    if log:
        log("%d stage(s) finished in %.2fs", len(names), time.perf_counter() - begin)
