"""Stage orchestration: one config drives the whole artifact directory.

Every stage reads its inputs from prior-stage artifacts in the output
directory and rebuilds cheap intermediates (period slices, vocabulary,
matrices) from corpus.jsonl, so stages can run one at a time or chained
by `run` with byte-identical results. Both go through one runner, which
parses corpus.jsonl at most once per invocation (not at all after an
ingest in the same invocation) and hands the result to every stage. All
randomness flows from the single config seed through stage-labeled
derived seeds.

The terms stage runs before clustering when dispersion cells come from
record categories, and after it when cells are the period clusters
themselves; the canonical stage list in the manifest reflects that.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, artifacts
from .cluster import ClusterConfig, fit_axial_kmeans, summarize_clusters
from .corpus import (
    CorpusSlice,
    PeriodSpec,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    save_corpus,
    split_periods,
)
from .diachrony import cross_table, link_periods
from .diffusion import DiffusionThresholds, classify_terms, read_terms_csv, write_terms_csv
from .errors import ConfigError, decode
from .mapping import build_cluster_map
from .seeding import derive_seed
from .vectorize import WEIGHTINGS, build_matrix

log = logging.getLogger("diachron")

PERIOD_IDS = ("P1", "P2")
GINI_CELL_MODES = ("categories", "clusters")
FORMATS = ("jsonl", "csv")
# config keys of the "cluster" section, in manifest order; RunConfig holds them flat
CLUSTER_KEYS = ("k", "k_p1", "k_p2", "max_iters", "tol", "restarts")


@dataclass(frozen=True)
class RunConfig:
    input: str
    periods: PeriodSpec
    format: str = "jsonl"
    min_df: int = 2
    weighting: str = "tfidf"
    thresholds: DiffusionThresholds = field(default_factory=DiffusionThresholds)
    k: int = 20
    k_p1: int | None = None
    k_p2: int | None = None
    max_iters: int = ClusterConfig.max_iters
    tol: float = ClusterConfig.tol
    restarts: int = ClusterConfig.restarts
    seed: int = 0
    tau: float = 0.2
    rho: float = 0.3
    top_m: int = 10
    gini_cells: str = "categories"
    dump_matrices: bool = False

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(
                f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}"
            )
        if self.gini_cells not in GINI_CELL_MODES:
            raise ConfigError(
                f"gini_cells must be one of {GINI_CELL_MODES}, got {self.gini_cells!r}"
            )
        for name, value in (("k", self.k), ("k_p1", self.k_p1), ("k_p2", self.k_p2)):
            if value is not None and value < 2:
                raise ConfigError(f"{name} must be >= 2 to map clusters, got {value}")
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
        k = {"P1": self.k_p1, "P2": self.k_p2}[period_id] or self.k
        return ClusterConfig(
            k=k,
            max_iters=self.max_iters,
            tol=self.tol,
            restarts=self.restarts,
            seed=derive_seed(self.seed, f"cluster.{period_id}"),
        )

    def stage_order(self) -> list[str]:
        if self.gini_cells == "clusters":
            return ["ingest", "cluster", "terms", "map", "link", "report"]
        return ["ingest", "terms", "cluster", "map", "link", "report"]

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "format": self.format,
            "periods": {
                "p1": [self.periods.p1_start, self.periods.p1_end],
                "p2": [self.periods.p2_start, self.periods.p2_end],
            },
            "min_df": self.min_df,
            "weighting": self.weighting,
            "thresholds": dataclasses.asdict(self.thresholds),
            "cluster": {key: getattr(self, key) for key in CLUSTER_KEYS},
            "tau": self.tau,
            "rho": self.rho,
            "top_m": self.top_m,
            "gini_cells": self.gini_cells,
            "seed": self.seed,
            "dump_matrices": self.dump_matrices,
        }


def config_from_dict(data: dict, base_dir: str = ".") -> RunConfig:
    """RunConfig from a decoded config file: the `cluster` section is
    flattened, the `periods` pairs fill PeriodSpec's fields, and a relative
    `input` is resolved against `base_dir`."""
    for section in ("cluster", "periods"):
        if not isinstance(data.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object, got {data[section]!r}")
    cluster = data.get("cluster", {})
    flat = {key: value for key, value in data.items() if key not in CLUSTER_KEYS}
    flat.update((key, cluster[key]) for key in CLUSTER_KEYS if key in cluster)
    where = {key: f"cluster.{key}" for key in CLUSTER_KEYS}
    if "periods" in data:
        flat["periods"], where["periods"] = {}, {}
        for key in ("p1", "p2"):
            names = (f"{key}_start", f"{key}_end")
            where["periods"].update((name, f"periods.{key}[{i}]") for i, name in enumerate(names))
            if key in data["periods"]:
                pair = data["periods"][key]
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ConfigError(f"periods.{key} must be a [start, end] pair, got {pair!r}")
                flat["periods"].update(zip(names, pair))
    config = decode(RunConfig, flat, where)
    if os.path.isabs(config.input):
        return config
    return dataclasses.replace(config, input=os.path.normpath(os.path.join(base_dir, config.input)))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def with_overrides(
    config: RunConfig, seed: int | None = None, format: str | None = None
) -> RunConfig:
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if format is not None:
        config = dataclasses.replace(config, format=format)
    return config


class CorpusCache:
    """corpus.jsonl of one invocation, parsed at most once (never after an
    ingest) and shared by its stages. In both stage orders every slice reader
    runs before the first vocabulary-only reader, so that read drops the
    slices: map and link hold no records while they work."""

    def __init__(self, config: RunConfig, out: str) -> None:
        self._config = config
        self._out = out
        self._periods: tuple[CorpusSlice, CorpusSlice] | None = None
        self._vocabulary: Vocabulary | None = None

    def put(self, p1: CorpusSlice, p2: CorpusSlice) -> None:
        """Periods of what ingest just wrote, which a parse would reproduce."""
        self._periods = p1, p2

    def slices(self) -> tuple[CorpusSlice, CorpusSlice, Vocabulary]:
        if self._periods is None:
            path = artifacts.require(os.path.join(self._out, artifacts.CORPUS), "ingest")
            records, _ = load_corpus(path, "jsonl")
            self._periods = split_periods(records, self._config.periods)[:2]
        p1, p2 = self._periods
        if self._vocabulary is None:
            self._vocabulary = build_vocabulary(p1, p2, self._config.min_df)
        return p1, p2, self._vocabulary

    def vocabulary(self) -> Vocabulary:
        if self._vocabulary is None:
            self.slices()
        self._periods = None
        return self._vocabulary


def _read_clusters(out: str, period_id: str, vocabulary: Vocabulary):
    path = os.path.join(out, artifacts.clusters_file(period_id))
    return artifacts.read_clusters(artifacts.require(path, "cluster"), vocabulary)


def stage_ingest(config: RunConfig, out: str, corpus: CorpusCache) -> None:
    records, load_report = load_corpus(config.input, config.format)
    p1, p2, split_report = split_periods(records, config.periods)
    save_corpus(records, os.path.join(out, artifacts.CORPUS), "jsonl")
    artifacts.write_json(
        {
            "input_sha256": artifacts.sha256_file(config.input),
            "records_read": load_report.records_read,
            "records_kept": load_report.records_kept,
            "dropped_empty_keywords": load_report.dropped_empty_keywords,
            "p1_docs": split_report.p1_docs,
            "p2_docs": split_report.p2_docs,
            "dropped_outside_periods": split_report.dropped_outside_periods,
        },
        os.path.join(out, artifacts.LOAD_REPORT),
    )
    corpus.put(p1, p2)


def stage_terms(config: RunConfig, out: str, corpus: CorpusCache) -> None:
    p1, p2, vocabulary = corpus.slices()
    assignments = None
    if config.gini_cells == "clusters":  # cells: first-period cluster memberships
        model, _ = _read_clusters(out, "P1", vocabulary)
        assignments = {
            doc_id: f"P1:{int(c)}" for doc_id, c in zip(model.doc_ids, model.assignment)
        }
    stats = classify_terms(
        vocabulary,
        (p1, p2),
        config.thresholds,
        cells=config.gini_cells,
        assignments=assignments,
    )
    write_terms_csv(stats, os.path.join(out, artifacts.TERMS))


def stage_cluster(
    config: RunConfig, out: str, corpus: CorpusCache, threads: int = 1
) -> None:
    p1, p2, vocabulary = corpus.slices()
    for slice_ in (p1, p2):
        matrix = build_matrix(slice_, vocabulary, config.weighting)
        cluster_config = config.cluster_config(slice_.period_id)
        model = fit_axial_kmeans(matrix, cluster_config, threads=threads)
        summaries = summarize_clusters(model, vocabulary, config.top_m)
        echo = {**dataclasses.asdict(cluster_config), "weighting": config.weighting}
        artifacts.write_clusters(
            os.path.join(out, artifacts.clusters_file(slice_.period_id)),
            model,
            summaries,
            vocabulary,
            echo,
        )
        if config.dump_matrices:
            artifacts.write_matrix(
                os.path.join(out, artifacts.matrix_file(slice_.period_id)),
                matrix,
                vocabulary,
                config.weighting,
            )


def stage_map(config: RunConfig, out: str, corpus: CorpusCache) -> None:
    vocabulary = corpus.vocabulary()
    for period_id in PERIOD_IDS:
        model, summaries = _read_clusters(out, period_id, vocabulary)
        cmap = build_cluster_map(period_id, model.axes, config.tau)
        artifacts.write_map(
            os.path.join(out, artifacts.map_json_file(period_id)),
            cmap,
            summaries,
            config.tau,
        )
        artifacts.write_svg(
            os.path.join(out, artifacts.map_svg_file(period_id)), cmap, summaries
        )


def stage_link(config: RunConfig, out: str, corpus: CorpusCache) -> None:
    vocabulary = corpus.vocabulary()
    model_p1, _ = _read_clusters(out, "P1", vocabulary)
    model_p2, summaries_p2 = _read_clusters(out, "P2", vocabulary)
    path = artifacts.require(os.path.join(out, artifacts.TERMS), "terms")
    with artifacts.parsing(path):
        stats = read_terms_csv(path)
    linkage = link_periods(model_p1, model_p2, vocabulary, config.rho)
    crosstab = cross_table(linkage, summaries_p2, stats, config.top_m)
    artifacts.write_linkage(
        os.path.join(out, artifacts.LINKAGE),
        linkage,
        [s.label for s in summaries_p2],
    )
    artifacts.write_crosstab(os.path.join(out, artifacts.CROSSTAB), crosstab)


def stage_report(config: RunConfig, out: str, corpus: CorpusCache) -> None:
    for period_id in PERIOD_IDS:
        path = artifacts.require(
            os.path.join(out, artifacts.map_json_file(period_id)), "map"
        )
        cmap, summaries = artifacts.read_map(path)
        artifacts.write_svg(
            os.path.join(out, artifacts.map_svg_file(period_id)), cmap, summaries
        )
    path = artifacts.require(os.path.join(out, artifacts.LOAD_REPORT), "ingest")
    with artifacts.parsing(path):
        input_sha256 = artifacts.read_json(path)["input_sha256"]
    artifacts.write_json(
        {
            "config": config.to_dict(),
            "input_sha256": input_sha256,
            "versions": {
                "diachron": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "stages": config.stage_order(),
        },
        os.path.join(out, artifacts.MANIFEST),
    )


STAGES = {
    "ingest": stage_ingest,
    "terms": stage_terms,
    "cluster": stage_cluster,
    "map": stage_map,
    "link": stage_link,
    "report": stage_report,
}


def _run_stages(names: list[str], config: RunConfig, out: str, threads: int) -> None:
    """Run stages in order; on failure, remove files this invocation created."""
    os.makedirs(out, exist_ok=True)
    before = set(os.listdir(out))
    corpus = CorpusCache(config, out)  # parsed on first use, after any ingest
    try:
        for name in names:
            stage = STAGES[name]
            if name == "cluster":
                stage = functools.partial(stage, threads=threads)
            start = time.perf_counter()
            stage(config, out, corpus)
            log.info("stage %s finished in %.2fs", name, time.perf_counter() - start)
    except BaseException:
        for entry in set(os.listdir(out)) - before:
            try:
                os.remove(os.path.join(out, entry))
            except OSError:
                pass
        raise


def run_stage(name: str, config: RunConfig, out: str, threads: int = 1) -> None:
    """Run one stage; on failure, remove files this invocation created."""
    _run_stages([name], config, out, threads)


def run_pipeline(config: RunConfig, out: str, threads: int = 1) -> None:
    """All stages in canonical order; partial outputs removed on failure."""
    start = time.perf_counter()
    _run_stages(config.stage_order(), config, out, threads)
    log.info("pipeline finished in %.2fs", time.perf_counter() - start)
