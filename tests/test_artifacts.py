"""The JSON artifacts round-trip through their dataclasses.

A cluster map and a load report, written as `artifacts.write_json` of
`dataclasses.asdict` and read back by the strict decoder, equal the
originals, and writing what was read gives the same bytes. So do a fitted
period's clusters, but for their top-term weights, which the file rounds.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from diachron import artifacts, syngen
from diachron.cluster import fit_axial_kmeans, summarize_clusters
from diachron.corpus import PeriodSpec, build_vocabulary, split_periods
from diachron.mapping import ClusterMap
from diachron.pipeline import ClusterConfig
from diachron.vectorize import build_matrix

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def cluster_maps(draw):
    k = draw(st.integers(1, 30))
    ends = st.integers(0, k - 1)

    def per_cluster(items):
        return tuple(draw(st.lists(items, min_size=k, max_size=k)))

    return ClusterMap(
        period_id=draw(st.text()),
        tau=draw(finite),
        coords=per_cluster(st.tuples(finite, finite)),
        eigenvalues=draw(st.tuples(finite, finite)),
        explained_variance=draw(finite),
        edges=tuple(draw(st.lists(st.tuples(ends, ends, finite), max_size=2 * k))),
        components=tuple(draw(st.lists(st.lists(ends, min_size=1).map(tuple), max_size=k))),
        labels=per_cluster(st.text()),
        sizes=per_cluster(st.integers(min_value=0)),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cmap=cluster_maps(), report=st.builds(artifacts.LoadReport))
def test_written_artifacts_read_back_equal_and_rewrite_the_same_bytes(cmap, report):
    with tempfile.TemporaryDirectory() as tmp:
        map_path, report_path = str(Path(tmp, "map_P1.json")), str(Path(tmp, "load_report.json"))
        artifacts.write_map(map_path, cmap)
        artifacts.write_json(dataclasses.asdict(report), report_path)
        written = Path(map_path).read_bytes(), Path(report_path).read_bytes()

        map_read = artifacts.read_map(map_path, cmap.tau)
        report_read = artifacts.read_artifact(artifacts.LoadReport, report_path)
        assert map_read == cmap
        assert report_read == report

        artifacts.write_map(map_path, map_read)
        artifacts.write_json(dataclasses.asdict(report_read), report_path)
        assert (Path(map_path).read_bytes(), Path(report_path).read_bytes()) == written


def test_fitted_clusters_read_back_equal_but_for_rounded_top_term_weights(tmp_path):
    records, _ = syngen.generate(syngen.preset("three-blocks", seed=3))
    p1, p2, _ = split_periods(records, PeriodSpec((1996, 1998), (2001, 2003)))
    vocabulary = build_vocabulary(p1, p2, 2)
    matrix = build_matrix(p1, vocabulary, "tfidf")
    model = fit_axial_kmeans(matrix, ClusterConfig(k=3, restarts=2, seed=3))
    clusters = summarize_clusters(model, vocabulary)
    echo = {"k": 3, "seed": 3}
    written = artifacts.ClusterFile(
        period_id="P1",
        config=echo,
        vocab_sha256=artifacts.vocab_sha256(vocabulary),
        corpus_sha256="c" * 64,
        objective_trace=model.objective_trace,
        clusters=tuple(clusters),
    )
    path = str(tmp_path / "clusters_P1.json")
    artifacts.write_clusters(path, written)
    read = artifacts.read_clusters(
        path, lambda: (vocabulary, written.vocab_sha256), written.corpus_sha256, echo
    )

    assert read == [
        dataclasses.replace(c, top_terms=tuple((t, round(w, 6)) for t, w in c.top_terms))
        for c in clusters
    ]
    assignment = model.assignment.tolist()
    for c in read:  # in row order, which is doc-id order
        assert c.members == [d for d, a in zip(model.doc_ids, assignment) if a == c.id]
        assert c.size == len(c.members) > 0
    assert sorted(d for c in read for d in c.members) == list(matrix.doc_ids)

    before = Path(path).read_bytes()
    artifacts.write_clusters(path, dataclasses.replace(written, clusters=tuple(read)))
    assert Path(path).read_bytes() == before
