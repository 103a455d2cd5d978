"""End-to-end tests for the command-line interface and stage pipeline.

Everything runs through ``cli.main`` in-process (plus one subprocess
smoke test for the installed console script), on a small three-block
synthetic corpus so the full pipeline stays fast.
"""

import dataclasses
import errno
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diachron
from diachron import artifacts, pipeline, syngen
from diachron.cli import main
from diachron.corpus import load_corpus, save_corpus
from diachron.errors import ConfigError

CANONICAL_STAGES = ["ingest", "terms", "cluster", "map", "link", "report"]

EXPECTED_FILES = {
    "corpus.jsonl",
    "load_report.json",
    "terms.csv",
    "clusters_P1.json",
    "clusters_P2.json",
    "map_P1.json",
    "map_P2.json",
    "map_P1.svg",
    "map_P2.svg",
    "linkage.json",
    "crosstab.csv",
    "run_manifest.json",
}


def _small_spec(seed: int = 11) -> syngen.PlantSpec:
    return syngen.PlantSpec(
        blocks=(
            syngen.Block(name="alpha", vocab_size=12, docs_p1=30, docs_p2=30, tag="modeling"),
            syngen.Block(name="beta", vocab_size=12, docs_p1=30, docs_p2=30, tag="assay"),
            syngen.Block(name="gamma", vocab_size=12, docs_p1=30, docs_p2=30, tag="imaging"),
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small corpus saved in both formats, shared by the module's tests."""
    path = tmp_path_factory.mktemp("corpus")
    records, _ = syngen.generate(_small_spec())
    save_corpus(records, str(path / "corpus.jsonl"), "jsonl")
    save_corpus(records, str(path / "corpus.csv"), "csv")
    return path


def write_config(directory, corpus_path, **overrides):
    data = {
        "input": str(corpus_path),
        "periods": {"p1": [1996, 1998], "p2": [2001, 2003]},
        "min_df": 2,
        "cluster": {"k": 3, "restarts": 4, "max_iters": 60},
        "seed": 7,
        "top_m": 5,
    }
    data.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def dir_hashes(path):
    return {
        name: artifacts.sha256_file(os.path.join(path, name))
        for name in os.listdir(path)
    }


def _disk_full_after(write, calls_allowed):
    """`write` for its first calls, then the error of a full disk."""
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) >= calls_allowed:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(*args, **kwargs)

    return failing


def _partial_json_dump(obj, fh, **kwargs):
    fh.write(json.dumps(obj, **kwargs)[:40])
    raise OSError(errno.ENOSPC, "No space left on device")


class TestSyngenCommand:
    def test_preset_writes_corpus_and_truth(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["syngen", "--preset", "three-blocks", "--out", str(out), "--seed", "3"]) == 0
        records, report = load_corpus(str(out / "corpus.jsonl"), "jsonl")
        truth = artifacts.read_json(str(out / "truth.json"))
        assert report.records_kept == len(records) == 1200
        assert truth["seed"] == 3
        assert set(truth["doc_block"]) == {r.id for r in records}

    def test_spec_file_matches_library_output(self, tmp_path):
        spec = _small_spec(seed=21)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dataclasses.asdict(spec)), encoding="utf-8")
        out = tmp_path / "generated"
        assert main(["syngen", "--spec", str(spec_path), "--out", str(out)]) == 0

        records, _ = syngen.generate(spec)
        expected = tmp_path / "expected.jsonl"
        save_corpus(records, str(expected), "jsonl")
        assert (out / "corpus.jsonl").read_bytes() == expected.read_bytes()

    def test_seed_flag_overrides_spec_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dataclasses.asdict(_small_spec(seed=21))), encoding="utf-8")
        out = tmp_path / "generated"
        assert main(["syngen", "--spec", str(spec_path), "--out", str(out), "--seed", "9"]) == 0
        assert artifacts.read_json(str(out / "truth.json"))["seed"] == 9

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        rc = main(["syngen", "--preset", "no-such-shape", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_preset_and_spec_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "syngen", "--preset", "three-blocks", "--spec", "spec.json",
                "--out", str(tmp_path / "x"),
            ])
        assert excinfo.value.code == 2


class TestRunCommand:
    def test_run_produces_complete_artifact_directory(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert set(os.listdir(out)) == EXPECTED_FILES

        manifest = artifacts.read_json(str(out / "run_manifest.json"))
        assert manifest["stages"] == CANONICAL_STAGES
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["cluster"]["k"] == 3
        assert manifest["input_sha256"] == artifacts.sha256_file(str(corpus_dir / "corpus.jsonl"))
        assert set(manifest["versions"]) == {"diachron", "python", "numpy", "scipy"}

        report = artifacts.read_json(str(out / "load_report.json"))
        assert report["p1_docs"] == 90
        assert report["p2_docs"] == 90

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert dir_hashes(out_a) == dir_hashes(out_b)

    def test_stagewise_execution_matches_run(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_run, out_stage = tmp_path / "chained", tmp_path / "stepped"
        assert main(["run", "--config", str(config), "--out", str(out_run)]) == 0
        for stage in CANONICAL_STAGES:
            assert main([stage, "--config", str(config), "--out", str(out_stage)]) == 0
        assert dir_hashes(out_run) == dir_hashes(out_stage)

    def test_thread_count_does_not_change_artifacts(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_1, out_4 = tmp_path / "t1", tmp_path / "t4"
        assert main(["run", "--config", str(config), "--out", str(out_1), "--threads", "1"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_4), "--threads", "4"]) == 0
        assert dir_hashes(out_1) == dir_hashes(out_4)

    def test_seed_flag_overrides_config_seed(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a), "--seed", "123"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b), "--seed", "123"]) == 0
        manifest = artifacts.read_json(str(out_a / "run_manifest.json"))
        assert manifest["config"]["seed"] == 123
        assert dir_hashes(out_a) == dir_hashes(out_b)

    def test_format_flag_overrides_config_format(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.csv")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 3  # csv bytes are not parseable as jsonl
        assert main(["run", "--config", str(config), "--out", str(out), "--format", "csv"]) == 0
        assert set(os.listdir(out)) == EXPECTED_FILES

    def test_csv_config_format_matches_jsonl_results(self, corpus_dir, tmp_path):
        config_jsonl = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_jsonl = tmp_path / "from_jsonl"
        assert main(["run", "--config", str(config_jsonl), "--out", str(out_jsonl)]) == 0

        csv_dir = tmp_path / "csvcfg"
        csv_dir.mkdir()
        config_csv = write_config(csv_dir, corpus_dir / "corpus.csv", format="csv")
        out_csv = tmp_path / "from_csv"
        assert main(["run", "--config", str(config_csv), "--out", str(out_csv)]) == 0

        hashes_jsonl, hashes_csv = dir_hashes(out_jsonl), dir_hashes(out_csv)
        # Manifests echo different input paths/hashes; the analysis artifacts agree.
        for name in EXPECTED_FILES - {"run_manifest.json", "load_report.json"}:
            assert hashes_csv[name] == hashes_jsonl[name], name

    def test_gini_cells_clusters_reorders_stages(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        manifest = artifacts.read_json(str(out / "run_manifest.json"))
        assert manifest["stages"] == ["ingest", "cluster", "terms", "map", "link", "report"]
        assert set(os.listdir(out)) == EXPECTED_FILES

    def test_gini_cells_clusters_are_first_period_clusters(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        seen = []
        classify_terms = pipeline.classify_terms

        def recording(*args, assignments=None, **kwargs):
            seen.append(assignments)
            return classify_terms(*args, assignments=assignments, **kwargs)

        monkeypatch.setattr(pipeline, "classify_terms", recording)
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        clusters = artifacts.read_json(str(out / "clusters_P1.json"))["clusters"]
        expected = {doc: f"P1:{c['id']}" for c in clusters for doc in c["members"]}
        assert seen == [expected]

    def test_dump_matrices_adds_matrix_files(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", dump_matrices=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert set(os.listdir(out)) == EXPECTED_FILES | {"matrix_P1.json", "matrix_P2.json"}

    def test_input_hash_tracks_input_bytes(self, corpus_dir, tmp_path):
        records, _ = syngen.generate(_small_spec(seed=99))
        other_corpus = tmp_path / "other.jsonl"
        save_corpus(records, str(other_corpus), "jsonl")

        config_a = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        other_dir = tmp_path / "othercfg"
        other_dir.mkdir()
        config_b = write_config(other_dir, other_corpus)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_a), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_b), "--out", str(out_b)]) == 0
        hash_a = artifacts.read_json(str(out_a / "run_manifest.json"))["input_sha256"]
        hash_b = artifacts.read_json(str(out_b / "run_manifest.json"))["input_sha256"]
        assert hash_a != hash_b


class TestStageSequencing:
    @pytest.mark.parametrize(
        "stage, missing_file, producer",
        [
            ("terms", "corpus.jsonl", "ingest"),
            ("cluster", "corpus.jsonl", "ingest"),
            ("map", "corpus.jsonl", "ingest"),
            ("link", "corpus.jsonl", "ingest"),
            ("report", "map_P1.json", "map"),
        ],
    )
    def test_stage_on_empty_directory_names_missing_artifact(
        self, corpus_dir, tmp_path, capsys, stage, missing_file, producer
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        rc = main([stage, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert missing_file in err
        assert producer in err

    def test_map_after_ingest_requires_cluster_artifacts(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        rc = main(["map", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "clusters_P1.json" in err
        assert "cluster" in err

    def test_link_requires_terms_artifact(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        rc = main(["link", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "terms.csv" in err
        assert "terms" in err

    def test_failed_stage_keeps_prior_artifacts_only(self, corpus_dir, tmp_path, capsys):
        config = write_config(
            tmp_path,
            corpus_dir / "corpus.jsonl",
            cluster={"k": 200, "restarts": 4, "max_iters": 60},
        )
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        before = set(os.listdir(out))
        rc = main(["cluster", "--config", str(config), "--out", str(out)])
        assert rc == 4
        assert "numeric error" in capsys.readouterr().err
        assert set(os.listdir(out)) == before == {"corpus.jsonl", "load_report.json"}

    def test_failed_run_removes_partial_outputs(self, corpus_dir, tmp_path):
        config = write_config(
            tmp_path,
            corpus_dir / "corpus.jsonl",
            cluster={"k": 200, "restarts": 4, "max_iters": 60},
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 4
        assert os.listdir(out) == []

    def test_truncated_cluster_artifact_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        target = out / "clusters_P1.json"
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        before = set(os.listdir(out))
        rc = main(["map", "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert "clusters_P1.json" in capsys.readouterr().err
        assert set(os.listdir(out)) == before

    @pytest.mark.parametrize(
        "stage, target, key",
        [("map", "clusters_P1.json", "clusters"), ("report", "map_P1.json", "labels")],
    )
    def test_artifact_missing_a_key_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys, stage, target, key
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        data = json.loads((out / target).read_text(encoding="utf-8"))
        del data[key]
        (out / target).write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert target in capsys.readouterr().err
        assert dir_hashes(out) == before

    def test_terms_csv_missing_a_column_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "terms.csv").read_text(encoding="utf-8").splitlines()
        (out / "terms.csv").write_text(
            "".join(row.rsplit(",", 1)[0] + "\n" for row in rows), encoding="utf-8"
        )
        before = dir_hashes(out)
        assert main(["link", "--config", str(config), "--out", str(out)]) == 3
        assert "terms.csv" in capsys.readouterr().err
        assert dir_hashes(out) == before

    def test_terms_csv_unknown_category_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        header, first, *rest = (out / "terms.csv").read_text(encoding="utf-8").splitlines()
        first = first.rsplit(",", 1)[0] + ",establishd"
        (out / "terms.csv").write_text(
            "".join(row + "\n" for row in (header, first, *rest)), encoding="utf-8"
        )
        before = dir_hashes(out)
        assert main(["link", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "terms.csv" in err and "establishd" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "stage, target, name, failing",
        [
            # save_corpus streams one json.dumps line per record
            ("ingest", "corpus.jsonl", "dumps", lambda: _disk_full_after(json.dumps, 3)),
            ("map", "map_P1.json", "dump", lambda: _partial_json_dump),
        ],
        ids=["ingest", "map"],
    )
    def test_writer_failing_midway_leaves_prior_artifact_intact(
        self, corpus_dir, tmp_path, monkeypatch, stage, target, name, failing
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        before = dir_hashes(out)
        monkeypatch.setattr(json, name, failing())
        rc = main([stage, "--config", str(config), "--out", str(out)])
        monkeypatch.undo()
        assert rc == 5
        # the old bytes stay in place and no temporary file is left behind
        assert target in before
        assert dir_hashes(out) == before

    def test_report_rerenders_svg_from_map_json(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        original = dir_hashes(out)
        (out / "map_P1.svg").write_text("scribbled over\n", encoding="utf-8")
        (out / "map_P2.svg").unlink()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert dir_hashes(out) == original


class TestErrorExits:
    def test_reversed_periods_exit_2_with_no_artifacts(self, corpus_dir, tmp_path, capsys):
        config = write_config(
            tmp_path,
            corpus_dir / "corpus.jsonl",
            periods={"p1": [2001, 2003], "p2": [1996, 1998]},
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json", encoding="utf-8")
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_config_missing_required_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": "corpus.jsonl"}), encoding="utf-8")
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "missing a required field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides", [{"cluster": 5}, {"thresholds": [1]}, {"input": 5}], ids=repr
    )
    def test_malformed_config_shape_exits_2(self, corpus_dir, tmp_path, capsys, overrides):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", **overrides)
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file_exits_5(self, tmp_path, capsys):
        rc = main([
            "run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"),
        ])
        assert rc == 5
        assert "i/o error" in capsys.readouterr().err

    def test_missing_input_corpus_exits_5(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "absent.jsonl")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 5

    def test_malformed_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "year": "not-a-number", "keywords": ["x"]}\n', encoding="utf-8")
        config = write_config(tmp_path, corpus)
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    def test_zero_threads_exit_2(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "0"])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err

    def test_out_of_range_seed_flag_exits_2(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        rc = main([
            "run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--seed", str(2**64),
        ])
        assert rc == 2

    def test_unknown_format_flag_is_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--config", "c.json", "--out", str(tmp_path / "out"),
                "--format", "xml",
            ])
        assert excinfo.value.code == 2

    def test_invalid_log_level_exits_2(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("DIACHRON_LOG", "silly")
        rc = main(["syngen", "--preset", "three-blocks", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "DIACHRON_LOG" in capsys.readouterr().err

    def test_log_level_is_case_insensitive(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DIACHRON_LOG", "DEBUG")
        out = tmp_path / "corpus"
        assert main(["syngen", "--preset", "three-blocks", "--out", str(out)]) == 0

    @pytest.mark.parametrize("level", ["DEBUG", "INFO", "WARNING", "ERROR"])
    def test_readme_log_levels_are_accepted(self, monkeypatch, tmp_path, level):
        monkeypatch.setenv("DIACHRON_LOG", level)
        out = tmp_path / "corpus"
        assert main(["syngen", "--preset", "three-blocks", "--out", str(out)]) == 0


def _json_paths(value, prefix=()):
    """Every key path into a decoded JSON value, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, child in items:
        paths += [prefix + (key,), *_json_paths(child, prefix + (key,))]
    return paths


def _put(data, path, value):
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


FULL_CONFIG = {
    "input": "corpus.jsonl",
    "periods": {"p1": [1996, 1998], "p2": [2001, 2003]},
    "format": "jsonl",
    "min_df": 2,
    "weighting": "tfidf",
    "thresholds": {"df_high_quantile": 0.75, "gini_low_quantile": 0.25, "novelty_share": 0.8},
    "cluster": {"k": 4, "k_p1": 3, "k_p2": None, "max_iters": 100, "tol": 1e-9, "restarts": 2},
    "seed": 0,
    "tau": 0.2,
    "rho": 0.3,
    "top_m": 10,
    "gini_cells": "categories",
    "dump_matrices": False,
}
FULL_SPEC = json.loads(json.dumps(dataclasses.asdict(syngen.PlantSpec(
    blocks=(
        syngen.Block("alpha", vocab_size=12, docs_p1=3, docs_p2=3, tag="modeling"),
        syngen.Block("beta", vocab_size=12, docs_p1=3, docs_p2=3),
    ),
    shared_terms=2,
    novel_block=syngen.Block("delta", vocab_size=10, docs_p2=3),
    noise_rate=0.1,
    bridges=(syngen.BridgeSpec("hub", members=("alpha", "beta"), vocab_size=4),),
))))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestStrictDecoding:
    @pytest.mark.parametrize(
        "command, key, text, path",
        [
            ("run", "periods", '{"p1": [1996, "abc"], "p2": [2001, 2003]}', "periods.p1[1]"),
            ("run", "cluster", '{"k": 1e400}', "cluster.k"),
            ("run", "cluster", '{"k": 2.7}', "cluster.k"),
            ("run", "dump_matrices", '"false"', "dump_matrices"),
            ("run", "cluster", '{"k": 3, "tol": NaN}', "cluster.tol"),
            ("syngen", "bridges", '[{"name": "h", "vocab_size": 4}]', "bridges[0].members"),
        ],
    )
    def test_bad_value_exits_2_naming_its_key_path(
        self, corpus_dir, tmp_path, capsys, command, key, text, path
    ):
        if command == "run":
            base = {
                "input": str(corpus_dir / "corpus.jsonl"),
                "periods": {"p1": [1996, 1998], "p2": [2001, 2003]},
            }
            flag = "--config"
        else:
            base = {"blocks": [{"name": "a", "vocab_size": 8, "docs_p1": 2, "docs_p2": 2}]}
            flag = "--spec"
        source = tmp_path / "input.json"
        source.write_text(json.dumps({**base, key: "@"}).replace('"@"', text), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, flag, str(source), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f" {path}" in err
        assert not out.exists()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(value=json_values)
    def test_any_value_at_any_config_path_decodes_or_is_a_config_error(self, value):
        for path in _json_paths(FULL_CONFIG):
            try:
                pipeline.config_from_dict(_put(FULL_CONFIG, path, value))
            except ConfigError:
                pass

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(value=json_values)
    def test_any_value_at_any_spec_path_decodes_or_is_a_config_error(self, value):
        for path in _json_paths(FULL_SPEC):
            try:
                syngen.spec_from_dict(_put(FULL_SPEC, path, value))
            except ConfigError:
                pass

    def test_readme_config_block_is_all_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        required = {"input": block["input"], "periods": block["periods"]}
        assert pipeline.config_from_dict(block) == pipeline.config_from_dict(required)

    def test_comment_keys_are_ignored(self):
        commented = _put(FULL_CONFIG, ("_comment",), "top level")
        commented = _put(commented, ("cluster", "_comment"), "k per period")
        commented = _put(commented, ("thresholds", "_comment_2"), ["quantiles"])
        assert pipeline.config_from_dict(commented) == pipeline.config_from_dict(FULL_CONFIG)


class TestPackageImport:
    def test_import_diachron_leaves_scipy_sparse_unloaded(self):
        src = str(Path(diachron.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, diachron; print('scipy.sparse' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestConsoleScript:
    def test_installed_entry_point_runs_pipeline(self, corpus_dir, tmp_path):
        exe = shutil.which("diachron")
        assert exe is not None, "console script 'diachron' is not on PATH"
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        proc = subprocess.run(
            [exe, "run", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert set(os.listdir(out)) == EXPECTED_FILES
