"""The small JSON artifacts round-trip through their dataclasses.

A cluster map and a load report, written as `artifacts.write_json` of
`dataclasses.asdict` and read back by the strict decoder, equal the
originals, and writing what was read gives the same bytes.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from diachron import artifacts
from diachron.mapping import ClusterMap

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
