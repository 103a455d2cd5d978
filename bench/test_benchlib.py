"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest bench/test_benchlib.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import run_bench  # noqa: E402


def span(name, start, end, parent=None, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, **extra}


def test_median_odd_even_and_empty():
    assert benchlib.median([3.0, 1.0, 2.0]) == 2.0
    assert benchlib.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert benchlib.median([]) is None


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method) puts q1 at 2.75, q3 at 8.25
    assert benchlib.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert benchlib.spread([7.0]) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        span("stage", 0.0, 10.0),
        span("load", 1.0, 4.0, parent=0),
        span("write", 3.0, 6.0, parent=0),  # overlaps load: union is 1..6
        span("json", 4.0, 5.0, parent=2),
    ]
    assert benchlib.self_times(spans) == pytest.approx([5.0, 3.0, 2.0, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [span("outer", 0.0, 2.0), span("inner", 1.0, 5.0, parent=0)]
    assert benchlib.self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_table_sums_by_name():
    first = [span("stage", 0.0, 4.0), span("load", 0.0, 1.0, parent=0)]
    second = [span("stage", 5.0, 7.0), span("load", 5.0, 6.5, parent=0)]
    table = dict(benchlib.self_time_table([first, second]))
    assert table == pytest.approx({"stage": 3.5, "load": 2.5})


def test_outermost_total_counts_nested_same_layer_once():
    spans = [
        span("stage.cluster", 0.0, 10.0),
        span("artifacts.write.clusters", 2.0, 5.0, parent=0),
        span("artifacts.write.json", 3.0, 5.0, parent=1),
        span("artifacts.write.json", 6.0, 7.0, parent=0),
    ]
    assert benchlib.outermost_total(spans, "artifacts.write") == pytest.approx(4.0)
    assert benchlib.outermost_total(spans, "stage.") == pytest.approx(10.0)
    assert benchlib.outermost_total(spans, "mapping.") == 0.0


def test_purity_counts_majority_block_per_cluster():
    truth = {"doc_block": {"a": "x", "b": "x", "c": "y", "d": "y", "e": "y"}}
    clusters = [
        {"clusters": [{"members": ["a", "b", "c"]}, {"members": ["d"]}]},
        {"clusters": [{"members": ["e"]}, {"members": []}]},
    ]
    # majorities: 2 of 3, 1 of 1, 1 of 1
    assert benchlib.purity(truth, clusters) == pytest.approx(4 / 5)


def test_term_agreement_ignores_unplanted_and_counts_missing_as_miss():
    truth = {
        "term_category": {
            "core": "established",
            "new": "unusual",
            "shared": "cross_section",
            "tail": "unplanted",
            "rare": "established",
        }
    }
    terms = {"core": "established", "new": "unusual", "shared": "established", "tail": "x"}
    # hits: core, new; misses: shared (wrong), rare (absent)
    assert benchlib.term_agreement(truth, terms) == pytest.approx(2 / 4)


def test_layer_metrics_reads_null_for_missing_points():
    trace = {
        "t_spawn": 0.0,
        "exit": 0,
        "missing": ["mapping.pca"],
        "spans": [
            span("cli.config", 0.1, 0.5),
            span("stage.map", 0.5, 2.0),
            span("corpus.load", 0.6, 1.0, parent=1, count=100),
            span("mapping.build_map", 1.2, 1.8, parent=1),
        ],
    }
    metrics = run_bench.layer_metrics([trace])
    assert metrics["mapping.pca_s"] is None
    assert metrics["pipeline.map_s"] == pytest.approx(1.5)
    assert metrics["pipeline.cluster_s"] == 0.0
    assert metrics["cli.start_s"] == pytest.approx(0.5)
    assert metrics["corpus.load_calls"] == 1
    assert metrics["corpus.records_per_s"] == pytest.approx(100 / 0.4)


def test_tracer_wraps_every_binding_and_lists_missing_points(monkeypatch):
    import types

    import trace_launch

    module = types.ModuleType("fake_layer")

    def work(n):
        return list(range(n))

    module.work = work
    module.table = {"work": work}
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = trace_launch.Tracer()
    tracer.install(
        [
            ("fake_layer", "work", "fake.work", None, len),
            ("fake_layer", "renamed", "fake.renamed", None, None),
        ]
    )
    assert module.work(3) == [0, 1, 2]
    assert module.table["work"](2) == [0, 1]
    assert [(s["name"], s["count"], s["parent"]) for s in tracer.spans] == [
        ("fake.work", 3, None),
        ("fake.work", 2, None),
    ]
    assert tracer.missing == ["fake.renamed"]


def test_each_call_is_scaled_by_the_samples_on_either_side(tmp_path, monkeypatch):
    class FakeHost:
        def __init__(self, values):
            self.values = iter(values)

        def sample(self):
            return next(self.values)

    runner = run_bench.Runner(str(tmp_path), FakeHost([1.0, 3.0, 2.0]))
    walls = iter([run_bench.SAMPLE_EVERY_S + 1.0, 0.1])

    def spawn(cmd, command, t0=None):
        return run_bench.Call(command=command, code=0, wall=next(walls), cpu=0.0, rss_mb=0.0)

    monkeypatch.setattr(runner, "spawn", spawn)
    long_call = runner.call(["run"])  # sampled before (1.0) and after (3.0)
    short_call = runner.call(["map"])  # the last sample is fresh: none before
    assert long_call.slowdown == pytest.approx(2.0)
    assert short_call.slowdown is None
    runner.settle()  # samples 2.0
    assert short_call.slowdown == pytest.approx(2.5)
