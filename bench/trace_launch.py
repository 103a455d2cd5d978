"""Traced launcher: run `diachron.cli.main(argv)` with spans around layer calls.

    python bench/trace_launch.py SPANS.json T_SPAWN -- <diachron argv>

Wrappers go on the public functions listed in TRACE_POINTS. Each wrapper
is bound wherever the original function object is reachable from a
loaded diachron module: the defining module, every module that imported
it by name, and module-level dicts such as `pipeline.STAGES`. A point
whose module or attribute no longer exists is listed under "missing" and
its metrics read null, so a refactor that renames a function does not
break the benchmark.

Spans are held in memory and written to SPANS.json when main returns;
nothing is written to the artifact directory. T_SPAWN is the parent's
CLOCK_MONOTONIC reading just before it started this process.

    python bench/trace_launch.py --probe-init CONFIG OUT RESULT.json

times the public `cluster.init_axes` once per restart seed of each
period, on the matrices rebuilt from OUT/corpus.jsonl.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _records(result):
    return len(result[0])


def _nnz(result):
    return int(result.matrix.nnz)


def _period(args, kwargs):
    return getattr(args[0], "period_id", None) if args else None


# (module, attribute, span name, label from args, count from result)
TRACE_POINTS = [
    ("diachron.pipeline", "load_config", "cli.config", None, None),
    ("diachron.pipeline", "stage_ingest", "stage.ingest", None, None),
    ("diachron.pipeline", "stage_terms", "stage.terms", None, None),
    ("diachron.pipeline", "stage_cluster", "stage.cluster", None, None),
    ("diachron.pipeline", "stage_map", "stage.map", None, None),
    ("diachron.pipeline", "stage_link", "stage.link", None, None),
    ("diachron.pipeline", "stage_report", "stage.report", None, None),
    ("diachron.corpus", "load_corpus", "corpus.load", None, _records),
    ("diachron.corpus", "build_vocabulary", "corpus.vocab", None, None),
    ("diachron.corpus", "save_corpus", "corpus.save", None, None),
    ("diachron.vectorize", "build_matrix", "vectorize.build_matrix", None, _nnz),
    ("diachron.diffusion", "classify_terms", "diffusion.classify", None, len),
    ("diachron.diffusion", "write_terms_csv", "diffusion.csv_write", None, None),
    ("diachron.diffusion", "read_terms_csv", "diffusion.csv_read", None, None),
    ("diachron.cluster", "fit_axial_kmeans", "cluster.fit", _period, None),
    ("diachron.cluster", "summarize_clusters", "cluster.summarize", None, None),
    ("diachron.mapping", "build_cluster_map", "mapping.build_map", None, None),
    ("diachron.mapping", "pca_2d", "mapping.pca", None, None),
    ("diachron.mapping", "build_edges", "mapping.edges", None, None),
    ("diachron.mapping", "render_svg", "mapping.svg", None, None),
    ("diachron.diachrony", "link_periods", "diachrony.link", None, None),
    ("diachron.diachrony", "cross_table", "diachrony.crosstab", None, None),
    ("diachron.artifacts", "write_json", "artifacts.write.json", None, None),
    ("diachron.artifacts", "write_clusters", "artifacts.write.clusters", None, None),
    ("diachron.artifacts", "write_map", "artifacts.write.map", None, None),
    ("diachron.artifacts", "write_linkage", "artifacts.write.linkage", None, None),
    ("diachron.artifacts", "write_crosstab", "artifacts.write.crosstab", None, None),
    ("diachron.artifacts", "read_json", "artifacts.read.json", None, None),
    ("diachron.artifacts", "read_clusters", "artifacts.read.clusters", None, None),
    ("diachron.artifacts", "read_map", "artifacts.read.map", None, None),
    ("diachron.syngen", "generate", "syngen.generate", None, None),
]


def _safe(fn, *args):
    """A label or count the wrapped call's shape no longer supports is None."""
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, fn, name, label=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": clock(),
                "end": None,
                "parent": self.stack[-1] if self.stack else None,
            }
            if label is not None:
                span["label"] = _safe(label, args, kwargs)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                self.stack.pop()
            if count is not None:
                span["count"] = _safe(count, result)
            return result

        return traced

    def install(self, points):
        modules = []
        for module_name in sorted({p[0] for p in points} | {"diachron", "diachron.cli"}):
            try:
                modules.append(importlib.import_module(module_name))
            except ImportError:
                pass
        for module_name, attr, name, label, count in points:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, label, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper


def _run_traced(spans_path: str, t_spawn: float, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install(TRACE_POINTS)
    import diachron.cli

    code = 1
    try:
        code = diachron.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "t_spawn": t_spawn,
                    "exit": code,
                    "missing": tracer.missing,
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


def _probe_init(config_path: str, out: str, result_path: str) -> int:
    """Median seconds per public init_axes call, or null if the API moved."""
    import os
    import statistics

    value = None
    try:
        from diachron import corpus, pipeline, vectorize
        from diachron.cluster import init_axes
        from diachron.seeding import derive_seed

        config = pipeline.load_config(config_path)
        records, _ = corpus.load_corpus(os.path.join(out, "corpus.jsonl"), "jsonl")
        p1, p2, _ = corpus.split_periods(records, config.periods)
        vocabulary = corpus.build_vocabulary(p1, p2, config.min_df)
        times = []
        for slice_ in (p1, p2):
            matrix = vectorize.build_matrix(slice_, vocabulary, config.weighting)
            cc = config.cluster_config(slice_.period_id)
            for r in range(cc.restarts):
                seed = derive_seed(cc.seed, f"restart.{r}")
                start = clock()
                init_axes(matrix, cc.k, seed)
                times.append(clock() - start)
        value = statistics.median(times)
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"init probe unavailable: {exc!r}", file=sys.stderr)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"init_s": value}, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--probe-init":
        return _probe_init(*argv[1:4])
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    return _run_traced(argv[0], float(argv[1]), argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
