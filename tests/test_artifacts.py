"""The JSON artifacts round-trip through their records, typing.NamedTuple
classes that `errors.encode` writes as JSON objects.

A cluster map and a load report, written by `artifacts.write_json`, which
encodes them, and read back by the strict decoder, equal the
originals, and writing what was read gives the same bytes. So does a
linkage whose cosines have the 6 places that its file keeps, and so do a
fitted period's clusters, whose top-term weights `summarize_clusters`
rounds as the file does. A cluster file's read checks its axis terms when
given the vocabulary, and the ledger, provenance.json, reads back what was
written. `top_terms`, the one rule for a cluster's label and top terms,
matches a plain sort. geometry.json reads back what was written, and its
read checks the shapes against k, the finiteness of every product and
each label against its top terms. Every JSON artifact of a `run`, read
with its reader and written again through `write_json`, keeps its bytes.
`encode` reaches a record however deep in tuples its field's type puts it,
and keeps a tuple whose type holds no record as it is.
"""

import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachron import artifacts, pipeline, syngen
from diachron.cli import main
from diachron.cluster import fit_axial_kmeans, summarize_clusters
from diachron.corpus import build_vocabulary, split_periods
from diachron.errors import InputError, decode, encode
from diachron.mapping import ClusterMap
from diachron.pipeline import ClusterConfig, PeriodSpec
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


@st.composite
def linkages(draw):
    cosines = st.floats(-1.0, 1.0).map(lambda s: round(s, 6))
    links = []
    for cluster_id in range(draw(st.integers(0, 8))):
        parents = draw(st.lists(st.tuples(st.integers(0, 50), cosines), max_size=4))
        parents = tuple(sorted(parents, key=lambda p: -p[1]))  # best first
        links.append(
            artifacts.ClusterLink(
                cluster_id=cluster_id,
                label=draw(st.text()),
                status="rooted" if parents else "new",
                parents=parents,
                best_parent=parents[0] if parents else None,
            )
        )
    return artifacts.Linkage(rho=draw(finite), links=tuple(links))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cmap=cluster_maps(), report=st.builds(artifacts.LoadReport), linkage=linkages())
def test_written_artifacts_read_back_equal_and_rewrite_the_same_bytes(cmap, report, linkage):
    with tempfile.TemporaryDirectory() as tmp:
        map_path, report_path = str(Path(tmp, "map_P1.json")), str(Path(tmp, "load_report.json"))
        linkage_path = str(Path(tmp, "linkage.json"))
        artifacts.write_map(map_path, cmap)
        artifacts.write_json(report, report_path)
        artifacts.write_linkage(linkage_path, linkage)
        paths = map_path, report_path, linkage_path
        written = [Path(path).read_bytes() for path in paths]

        map_read = artifacts.read_map(map_path, cmap.period_id)
        report_read = artifacts.read_artifact(report_path, artifacts.LoadReport)
        linkage_read = artifacts.read_linkage(linkage_path, len(linkage.links))
        assert map_read == cmap
        assert report_read == report
        assert linkage_read == linkage

        artifacts.write_map(map_path, map_read)
        artifacts.write_json(report_read, report_path)
        artifacts.write_linkage(linkage_path, linkage_read)
        assert [Path(path).read_bytes() for path in paths] == written


# a few terms and weights, so that ties, zero and negative weights are common
axes = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.one_of(st.sampled_from([0.5, 0.25, 0.0, -0.25, 1e-7, 4e-7]), st.floats(-1.0, 1.0)),
    max_size=8,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(axis=axes, top_m=st.integers(1, 10))
def test_top_terms_are_the_sorted_positive_terms_cut_to_top_m(axis, top_m):
    expected = sorted(((t, w) for t, w in axis.items() if w > 0.0), key=lambda p: (-p[1], p[0]))[:top_m]
    expected = tuple((t, round(w, 6)) for t, w in expected)
    assert artifacts.top_terms(axis, top_m) == (expected[0][0] if expected else "", expected)


def test_fitted_clusters_read_back_equal(tmp_path):
    records, _ = syngen.generate(syngen.preset("three-blocks", seed=3))
    p1, p2, _ = split_periods(records, PeriodSpec((1996, 1998), (2001, 2003)))
    vocabulary = build_vocabulary(p1, p2, 2)
    matrix = build_matrix(p1, vocabulary, "tfidf")
    model = fit_axial_kmeans(matrix, ClusterConfig(k=3, restarts=2, seed=3))
    clusters = summarize_clusters(model, vocabulary)
    written = artifacts.ClusterFile(period_id="P1", objective_trace=model.objective_trace, clusters=tuple(clusters))
    path = str(tmp_path / "clusters_P1.json")
    sha256 = artifacts.write_clusters(path, written)
    assert sha256 == artifacts.sha256_file(path)  # the digest of the bytes as they were written
    read = artifacts.read_clusters(path, "P1", 3, 10, vocabulary.index.keys())

    assert read.clusters == tuple(clusters)
    assert read == written
    assignment = model.assignment.tolist()
    for c in read.clusters:  # in row order, which is doc-id order
        assert c.members == [d for d, a in zip(model.doc_ids, assignment) if a == c.id]
        assert c.size == len(c.members) > 0
    assert sorted(d for c in read.clusters for d in c.members) == list(matrix.doc_ids)

    before = Path(path).read_bytes()
    artifacts.write_clusters(path, read)
    assert Path(path).read_bytes() == before


def _two_cluster_file(tmp_path):
    """A cluster file of two one-term clusters, "a" and "b", and its path."""
    clusters = tuple(
        artifacts.Cluster(
            id=i, label=term, size=1, top_terms=((term, 1.0),), members=[f"d{i}"], axis={term: 1.0}
        )
        for i, term in enumerate(["a", "b"])
    )
    path = str(tmp_path / "clusters_P1.json")
    record = artifacts.ClusterFile("P1", (1.0,), clusters)
    artifacts.write_clusters(path, record)
    return record, path


def test_read_clusters_checks_the_period_k_and_the_axis_terms_it_is_given(tmp_path):
    record, path = _two_cluster_file(tmp_path)
    with pytest.raises(InputError, match="clusters_P1.json: the clusters are not k=3"):
        artifacts.read_clusters(path, "P1", 3, 1)
    with pytest.raises(InputError, match='clusters_P1.json: it was built with period_id "P1", not "P2"'):
        artifacts.read_clusters(path, "P2", 2, 1)
    with pytest.raises(InputError, match="clusters_P1.json: axis term 'b' of cluster 1 is not in"):
        artifacts.read_clusters(path, "P1", 2, 1, {"a"})
    assert artifacts.read_clusters(path, "P1", 2, 1) == record  # map's read, no vocabulary
    assert artifacts.read_clusters(path, "P1", 2, 1, {"a", "b"}) == record


def test_the_ledger_reads_back_what_was_written_in_name_order(tmp_path):
    path = str(tmp_path / "provenance.json")
    ledger = {
        "map_P1.json": artifacts.Provenance("m" * 64, {"clusters_P1.json": "c" * 64}, {"tau": 0.2}),
        "clusters_P1.json": artifacts.Provenance("c" * 64, {}, {"k": 2, "periods": {"p1": [1, 2]}}),
    }
    assert artifacts.write_ledger(path, ledger) == artifacts.sha256_file(path)
    assert list(artifacts.read_json(path)) == ["clusters_P1.json", "map_P1.json"]
    assert artifacts.read_ledger(path, ledger.keys()) == ledger
    with pytest.raises(InputError, match="provenance.json: the record of map_P1.json names an input"):
        artifacts.read_ledger(path, {"map_P1.json"})


def _geometry():
    """The geometry of two P1 clusters, "a" and "b", and three P2 clusters."""
    def period(labels):
        k = len(labels)
        gram = tuple(tuple(1.0 if i == j else 0.25 for j in range(k)) for i in range(k))
        return artifacts.PeriodGeometry(tuple(labels), (2,) * k, tuple((t,) if t else () for t in labels), gram)

    dots = ((0.5, 0.0), (0.0, 1.0), (0.125, 0.125))
    versions = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    return artifacts.Geometry(period(["a", "b"]), period(["a", "", "c"]), dots, versions)


def test_geometry_reads_back_what_was_written(tmp_path):
    path = str(tmp_path / "geometry.json")
    record = _geometry()
    assert artifacts.write_json(record, path) == artifacts.sha256_file(path)
    assert artifacts.read_geometry(path, (2, 3)) == record
    assert artifacts.read_geometry(path, (2, 3), {"a", "c"}) == record  # link's read, with the vocabulary


@pytest.mark.parametrize(
    "edit, ks, terms, message",
    [
        (lambda d: d, (3, 3), None, "P1 is not k=3 clusters"),
        (lambda d: d, (2, 2), None, "P2 is not k=2 clusters"),
        (lambda d: d["p1"]["sizes"].pop(), (2, 3), None, "P1 is not k=2 clusters"),
        (lambda d: d["p2"]["gram"][1].pop(), (2, 3), None, "P2 is not k=3 clusters"),
        (lambda d: d["p2"]["gram"].pop(), (2, 3), None, "P2 is not k=3 clusters"),
        (lambda d: d["p1"]["labels"].reverse(), (2, 3), None, "each labelled by its first top term"),
        (lambda d: d["p2"]["labels"].__setitem__(1, "b"), (2, 3), None, "each labelled by its first top term"),
        (lambda d: d["dot"].pop(), (2, 3), None, "the dot products are not 3 x 2"),
        (lambda d: d["dot"][0].append(0.5), (2, 3), None, "the dot products are not 3 x 2"),
        (lambda d: d["dot"][0].__setitem__(0, "0.5"), (2, 3), None, r"dot\[0\]\[0\] must be of type float"),
        (lambda d: d["p1"]["gram"][0].__setitem__(1, 1e999), (2, 3), None, r"p1.gram\[0\]\[1\] must be a finite"),
        (lambda d: d["p1"]["sizes"].__setitem__(0, True), (2, 3), None, r"p1.sizes\[0\] must be of type int"),
        (lambda d: d.pop("versions"), (2, 3), None, "missing a required field: versions"),
        (lambda d: d, (2, 3), {"a"}, "P2 top term 'c' is not in the vocabulary"),
    ],
    ids=[
        "p1-k", "p2-k", "sizes-short", "gram-row-short", "gram-short", "labels-swapped", "label-not-top-term",
        "dot-short", "dot-row-long", "dot-string", "gram-overflow", "size-boolean", "no-versions",
        "top-term-outside-vocabulary",
    ],
)
def test_read_geometry_checks_shapes_finiteness_and_labels(tmp_path, edit, ks, terms, message):
    path = tmp_path / "geometry.json"
    data = json.loads(json.dumps(encode(_geometry())))
    edit(data)
    path.write_text(json.dumps(data).replace("Infinity", "1e999"), encoding="utf-8")
    with pytest.raises(InputError, match=f"malformed artifact .*geometry.json: .*{message}"):
        artifacts.read_geometry(str(path), ks, terms)


@pytest.fixture(scope="module", params=["three-blocks", "diffusion-mix"])
def preset_run(request, tmp_path_factory):
    """The config and the output directory of a `run` on a preset's corpus."""
    path = tmp_path_factory.mktemp(request.param)
    assert main(["syngen", "--preset", request.param, "--seed", "2", "--out", str(path / "corpus")]) == 0
    config = path / "config.json"
    settings = {"periods": {"p1": [1996, 1998], "p2": [2001, 2003]}, "cluster": {"k": 4, "restarts": 2}}
    config.write_text(json.dumps({"input": str(path / "corpus" / "corpus.jsonl"), **settings}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(path / "out")]) == 0
    return pipeline.load_config(str(config)), path / "out"


def _manifest(path):
    manifest = artifacts.read_json(path)
    return {**manifest, "config": decode(pipeline.RunConfig, manifest["config"])}


# each JSON artifact's reader, given the run's config
READERS = {
    "load_report.json": lambda path, config: artifacts.read_artifact(path, artifacts.LoadReport),
    "clusters_P1.json": lambda path, config: artifacts.read_clusters(path, "P1", 4, config.top_m),
    "clusters_P2.json": lambda path, config: artifacts.read_clusters(path, "P2", 4, config.top_m),
    "geometry.json": lambda path, config: artifacts.read_geometry(path, (4, 4)),
    "map_P1.json": lambda path, config: artifacts.read_map(path, "P1"),
    "map_P2.json": lambda path, config: artifacts.read_map(path, "P2"),
    "linkage.json": lambda path, config: artifacts.read_linkage(path, 4),
    "provenance.json": lambda path, config: artifacts.read_ledger(path, pipeline.Run(config, "").settings.keys()),
    "run_manifest.json": lambda path, config: _manifest(path),
}


@pytest.mark.parametrize("name", READERS)
def test_a_json_artifact_of_a_run_rewrites_its_own_bytes(preset_run, tmp_path, name):
    config, out = preset_run
    record = READERS[name](str(out / name), config)
    if isinstance(record, dict):  # the ledger and the manifest hold records in a dict
        record = {key: encode(value) for key, value in record.items()}
    path = tmp_path / name
    assert artifacts.write_json(encode(record), str(path)) == artifacts.sha256_file(str(out / name))
    assert path.read_bytes() == (out / name).read_bytes()


class _Leaf(NamedTuple):
    name: str
    weight: float


class _Nest(NamedTuple):
    grid: tuple[tuple[_Leaf, ...], ...]
    plain: tuple[tuple[float, ...], ...]
    pair: tuple[int, int]
    maybe: _Leaf | None = None


def test_encode_reaches_a_record_nested_in_a_tuple_of_tuples(tmp_path):
    nest = _Nest(
        grid=((_Leaf("a", 1.0),), (), (_Leaf("b", 0.5), _Leaf("c", -2.0))),
        plain=((1.0, 2.5), (3.0,)),
        pair=(1, 2),
        maybe=_Leaf("d", 0.25),
    )
    data = encode(nest)
    leaf = {"name": "a", "weight": 1.0}
    assert data["grid"] == [[leaf], [], [{"name": "b", "weight": 0.5}, {"name": "c", "weight": -2.0}]]
    assert data["maybe"] == {"name": "d", "weight": 0.25}
    assert data["plain"] is nest.plain and data["pair"] is nest.pair  # json writes them as arrays
    written = json.loads(json.dumps(data))
    assert written["plain"] == [[1.0, 2.5], [3.0]] and written["pair"] == [1, 2]
    assert decode(_Nest, written) == nest
    assert encode(nest._replace(maybe=None))["maybe"] is None
    assert encode((nest, (_Leaf("e", 0.0),))) == [data, [{"name": "e", "weight": 0.0}]]  # untyped tuples: every item
    artifacts.write_json(nest, str(tmp_path / "nest.json"))
    assert artifacts.read_json(str(tmp_path / "nest.json")) == written
