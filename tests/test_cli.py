"""End-to-end tests for the command-line interface and stage pipeline.

Almost everything runs through ``cli.main`` in-process, on a small
three-block synthetic corpus so the full pipeline stays fast; a few
subprocess tests run ``python -m diachron.cli`` and the installed console
script.
"""

import ast
import contextlib
import csv
import errno
import io
import itertools
import json
import logging
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import diachron
from diachron import artifacts, diffusion, pipeline, syngen
from diachron.cli import main
from diachron.corpus import Record, load_corpus, save_corpus
from diachron.errors import ConfigError, InputError, decode, encode

from oracles import cluster_map_from_axes, cross_table_from_clusters, link_periods_from_axes

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
    "provenance.json",
    "geometry.json",
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
    save_corpus(records, str(path / "corpus.jsonl"))
    with open(path / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "year", "keywords", "categories", "title"])
        for r in records:
            writer.writerow([r.id, r.year, ";".join(r.keywords), ";".join(r.categories), ""])
    return path


@pytest.fixture(scope="module")
def run_dir(corpus_dir, tmp_path_factory):
    """The config and the output directory of one `run` on the shared corpus;
    a test that changes an artifact works on a copy."""
    path = tmp_path_factory.mktemp("run")
    config = write_config(path, corpus_dir / "corpus.jsonl")
    assert main(["run", "--config", str(config), "--out", str(path / "out")]) == 0
    return config, path / "out"


@pytest.fixture(scope="module")
def clusters_run_dir(corpus_dir, tmp_path_factory):
    """As run_dir, under `gini_cells: clusters`, where terms parses clusters_P1.json."""
    path = tmp_path_factory.mktemp("clusters-run")
    config = write_config(path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
    assert main(["run", "--config", str(config), "--out", str(path / "out")]) == 0
    return config, path / "out"


# what map and link say of a cluster file whose bytes changed: they hash it unparsed
EDITED = "stale artifact {}: its bytes are not the ones provenance.json records"


GOOD_JSONL = b"".join(
    b'{"id": "%s", "year": %d, "keywords": ["x", "y"]}\n' % (rec_id, year)
    for rec_id, year in ((b"a", 1997), (b"b", 2002))
)
GOOD_CSV = b"id,year,keywords\na,1997,x;y\nb,2002,x;y\n"


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


# A syngen spec whose corpus draws from every pool.
EVERY_POOL_SPEC = {
    "blocks": [
        {"name": "alpha", "vocab_size": 12, "docs_p1": 30, "docs_p2": 30, "tag": "modeling"},
        {"name": "beta", "vocab_size": 12, "docs_p1": 30, "docs_p2": 30, "tag": "assay"},
        {"name": "gamma", "vocab_size": 12, "docs_p1": 30, "docs_p2": 30},
    ],
    "shared_terms": 4,
    "novel_block": {"name": "delta", "vocab_size": 10, "docs_p2": 30, "tag": "fresh"},
    "noise_rate": 0.2,
    "bridges": [{"name": "hub", "members": ["alpha", "beta"], "vocab_size": 8}],
    "seed": 11,
}

# The sha256 of what `syngen` writes, pinned across commits like the run
# artifacts in test_acceptance.PINNED_SHA256.
SYNGEN_SHA256 = {
    "three-blocks": {
        "corpus.jsonl": "8128ae784c9dbd12179f3e223a4817c31d9829ec7274f2b6cb46f3eab8eab50e",
        "truth.json": "6212908caee1c08e8cc2c4949ae84bee80e540aa12a6df009343a2356b94fc7b",
    },
    "diffusion-mix": {
        "corpus.jsonl": "5d4128befc4bc707992facc63fe57e7cef6dfa7313ed8bb63e77015b77076b04",
        "truth.json": "a1246fd22c5a0d5a398e035d6d1944d7d77622fee1cfeb86b90f6b7bcc230ac9",
    },
    "fresh-block": {
        "corpus.jsonl": "6d08aea3fc1f0b3e61165242a47dde535048d46af9a54e7ba9ec4a0f8c565c5f",
        "truth.json": "3461bea646f0896a6fcf1a4ad3ae7b713e2d5295bbe49f33c4b2938e3546bf86",
    },
    "two-networks": {
        "corpus.jsonl": "48910ee3438c3b7e22e93d4e7d274bd9dcf6f6c9debae595a8cbacc594a8fa5d",
        "truth.json": "b81d1a8522790422e477b4c592b0144bc709ab06f786213245d07d8dbbacd85a",
    },
    "large-scale": {
        "corpus.jsonl": "981b0c8770bef2d83c9640ce88853591e7d4e3dac7c16198021b760e8a5d879b",
        "truth.json": "6a107830cb5059dec57ef3a4ed6aba34b4131e94b1f46fd54400735d3a42fba8",
    },
    "spec": {
        "corpus.jsonl": "fec97a738b6ac8b3b1994ae38eec58d83524ded2b4085bd47ad3383e4c428f8d",
        "truth.json": "eab9f830722fafca1489c19c3d9acd503908ff4b9689c91da0d0312a8ec813ac",
    },
}


def _ingest_changed_corpus(corpus_dir, tmp_path, out, change, **overrides):
    """Ingest into `out` the shared corpus with one change; returns its config."""
    records, _ = load_corpus(str(corpus_dir / "corpus.jsonl"), "jsonl")
    if change == "new-vocabulary":
        records += [Record(f"zz{i}", 2002, ("brand new",)) for i in range(2)]
    else:  # the same vocabulary from other bytes
        records[0] = records[0]._replace(title="a changed title")
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    save_corpus(records, str(other_dir / "corpus.jsonl"))
    config = write_config(other_dir, other_dir / "corpus.jsonl", **overrides)
    assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
    return config


def _with_field(row, back, value):
    """The terms.csv `row` with its field `back` places from the end (2 is
    gini, 3 tfidf) set to `value`."""
    fields = row.rsplit(",", back)
    fields[1] = value
    return ",".join(fields)


def _disk_full_after(write, calls_allowed):
    """`write` for its first calls, then the error of a full disk."""
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) >= calls_allowed:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(*args, **kwargs)

    return failing


def _partial_write(sink, data):
    """The bytes written past the text layer, cut short by a full disk."""
    sink.raw.write(data[:40])
    raise OSError(errno.ENOSPC, "No space left on device")


class TestSyngenCommand:
    def test_preset_writes_corpus_and_truth(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["syngen", "--preset", "three-blocks", "--out", str(out), "--seed", "3"]) == 0
        records, _ = load_corpus(str(out / "corpus.jsonl"), "jsonl")
        truth = artifacts.read_json(str(out / "truth.json"))
        assert len(records) == 1200
        assert truth["seed"] == 3
        assert set(truth["doc_block"]) == {r.id for r in records}

    def test_spec_file_matches_library_output(self, tmp_path):
        spec = _small_spec(seed=21)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(encode(spec)), encoding="utf-8")
        out = tmp_path / "generated"
        assert main(["syngen", "--spec", str(spec_path), "--out", str(out)]) == 0

        records, _ = syngen.generate(spec)
        expected = tmp_path / "expected.jsonl"
        save_corpus(records, str(expected))
        assert (out / "corpus.jsonl").read_bytes() == expected.read_bytes()

    def test_seed_flag_overrides_spec_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(encode(_small_spec(seed=21))), encoding="utf-8")
        out = tmp_path / "generated"
        assert main(["syngen", "--spec", str(spec_path), "--out", str(out), "--seed", "9"]) == 0
        assert artifacts.read_json(str(out / "truth.json"))["seed"] == 9

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        rc = main(["syngen", "--preset", "no-such-shape", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_exits_2_without_output(self, tmp_path, capsys):
        # random.Random(-3) is random.Random(3): a negative seed would copy seed 3's corpus
        spec = encode(_small_spec(seed=21))
        (tmp_path / "good.json").write_text(json.dumps(spec), encoding="utf-8")
        (tmp_path / "bad.json").write_text(json.dumps(spec | {"seed": -3}), encoding="utf-8")
        for argv in (
            ["--preset", "three-blocks", "--seed", "-3"],
            ["--spec", str(tmp_path / "bad.json")],
            ["--spec", str(tmp_path / "good.json"), "--seed", "-3"],
        ):
            out = tmp_path / "x"
            assert main(["syngen", *argv, "--out", str(out)]) == 2, argv
            assert "seed" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("source", list(SYNGEN_SHA256))
    def test_output_bytes_are_pinned(self, tmp_path, source):
        # every preset at seed 3, and a spec drawing from every pool: the
        # regular blocks, a novel block, shared terms, a bridge and noise
        if source == "spec":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(EVERY_POOL_SPEC), encoding="utf-8")
            argv = ["--spec", str(spec_path)]
        else:
            argv = ["--preset", source, "--seed", "3"]
        out = tmp_path / "generated"
        assert main(["syngen", *argv, "--out", str(out)]) == 0
        assert dir_hashes(out) == SYNGEN_SHA256[source], f"{source}: syngen bytes moved"
        if source == "spec":  # the novel block's noise pool is drawn from too
            records, _ = load_corpus(str(out / "corpus.jsonl"), "jsonl")
            novel = [r for r in records if "-delta-" in r.id]
            assert any(kw.startswith(("alpha", "beta", "gamma")) for r in novel for kw in r.keywords)

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
        assert manifest["versions"]["numpy"] == numpy.__version__
        assert manifest["versions"]["scipy"] == scipy.__version__

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

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        """The (period, threads) of every fit, recorded as they are made."""
        from diachron import cluster

        fit, calls = cluster.fit_axial_kmeans, []

        def recording_fit(matrix, config, threads=1):
            calls.append((matrix.period_id, threads))
            return fit(matrix, config, threads=threads)

        monkeypatch.setattr(cluster, "fit_axial_kmeans", recording_fit)
        return calls

    def test_threads_flag_reaches_the_fit(self, corpus_dir, tmp_path, fit_calls):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(config), "--out", out, "--threads", "2"]) == 0
        assert fit_calls == [("P1", 2), ("P2", 2)]

    @pytest.mark.parametrize("flag, want", [([], 3), (["--threads", "1"], 1)], ids=["default", "one"])
    def test_threads_default_to_the_usable_cpus(
        self, corpus_dir, tmp_path, monkeypatch, fit_calls, flag, want
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), *flag]) == 0
        assert fit_calls == [("P1", want), ("P2", want)]

    def test_seed_flag_overrides_config_seed(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a), "--seed", "123"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b), "--seed", "123"]) == 0
        manifest = artifacts.read_json(str(out_a / "run_manifest.json"))
        assert manifest["config"]["seed"] == 123
        assert dir_hashes(out_a) == dir_hashes(out_b)

    def test_manifest_echoes_the_config_file_with_overrides(self, corpus_dir, tmp_path):
        data = {
            "input": str(corpus_dir / "corpus.csv"),
            "periods": {"p1": [1995, 1998], "p2": [2000, 2003]},
            "format": "jsonl",
            "min_df": 3,
            "weighting": "binary",
            "thresholds": {"df_high_quantile": 0.7, "gini_low_quantile": 0.3, "novelty_share": 0.75},
            "cluster": {"k": 4, "k_p1": 3, "k_p2": None, "max_iters": 50, "tol": 0, "restarts": 2},
            "tau": 0.25,
            "rho": 0.35,
            "top_m": 6,
            "gini_cells": "clusters",
            "seed": 7,
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--config", str(config), "--out", str(out), "--seed", "5", "--format", "csv"]
        assert main(argv) == 0
        echo = artifacts.read_json(str(out / "run_manifest.json"))["config"]
        assert list(echo) == list(data)
        assert list(echo["cluster"]) == list(data["cluster"])
        expected = pipeline.load_config(str(config))._replace(seed=5, format="csv")
        assert pipeline.config_from_dict(echo) == expected

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
        # Manifests echo different input paths/hashes, and provenance.json records
        # load_report.json's hash; the analysis artifacts agree.
        for name in EXPECTED_FILES - {"run_manifest.json", "load_report.json", "provenance.json"}:
            assert hashes_csv[name] == hashes_jsonl[name], name

    def test_shuffled_input_lines_give_identical_artifacts(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines), encoding="utf-8")
        assert shuffled.read_bytes() != (corpus_dir / "corpus.jsonl").read_bytes()
        hashes = []
        for name, corpus in (("sorted", corpus_dir / "corpus.jsonl"), ("shuffled", shuffled)):
            directory = tmp_path / name
            directory.mkdir()
            config = write_config(directory, corpus)
            assert main(["run", "--config", str(config), "--out", str(directory / "out")]) == 0
            hashes.append(dir_hashes(directory / "out"))
        # only the two files that hash the input differ, and the ledger that records one's hash
        differing = {name for name in EXPECTED_FILES if hashes[0][name] != hashes[1][name]}
        assert differing == {"load_report.json", "run_manifest.json", "provenance.json"}

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
        classify_terms = diffusion.classify_terms

        def recording(vocabulary, slices, thresholds=None, cells=None):
            seen.append(cells)
            return classify_terms(vocabulary, slices, thresholds, cells)

        monkeypatch.setattr(diffusion, "classify_terms", recording)
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        clusters = artifacts.read_json(str(out / "clusters_P1.json"))["clusters"]
        expected = {doc: (f"P1:{c['id']}",) for c in clusters for doc in c["members"]}
        assert seen == [expected]

    def test_repeated_categories_count_once_in_terms_csv(self, tmp_path):
        def terms_csv(tagged_a):
            rows = [
                {"id": "a", "year": 1997, "keywords": ["x", "y"], "categories": tagged_a},
                {"id": "b", "year": 1997, "keywords": ["x", "z"], "categories": ["chem"]},
                {"id": "c", "year": 2002, "keywords": ["x", "y", "z"], "categories": ["bio"]},
            ]
            directory = tmp_path / "-".join(tagged_a)
            directory.mkdir()
            corpus = directory / "corpus.jsonl"
            corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            config = write_config(directory, corpus)
            for command in ("ingest", "terms"):
                assert main([command, "--config", str(config), "--out", str(directory / "out")]) == 0
            return (directory / "out" / "terms.csv").read_bytes()

        assert terms_csv(["Bio", "bio", "chem"]) == terms_csv(["bio", "chem"])

    def test_removed_dump_matrices_key_is_ignored(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", dump_matrices=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert set(os.listdir(out)) == EXPECTED_FILES

    def test_input_hash_tracks_input_bytes(self, corpus_dir, tmp_path):
        records, _ = syngen.generate(_small_spec(seed=99))
        other_corpus = tmp_path / "other.jsonl"
        save_corpus(records, str(other_corpus))

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


@pytest.fixture
def no_reads(monkeypatch):
    """Every artifact reader of a stage raises: a stage gets only what an
    earlier stage of the same invocation handed on."""

    def reader(name):
        def read(*args, **kwargs):
            raise AssertionError(f"artifacts.{name} read back a file this invocation wrote")

        return read

    for name in ("read_clusters", "read_geometry", "read_map", "read_linkage", "read_artifact"):
        monkeypatch.setattr(artifacts, name, reader(name))
    return monkeypatch


class TestHandOff:
    @pytest.mark.parametrize("gini_cells", ["categories", "clusters"])
    def test_run_reads_back_none_of_its_artifacts(self, corpus_dir, tmp_path, no_reads, gini_cells):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells=gini_cells)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("gini_cells", ["categories", "clusters"])
    def test_handed_on_records_equal_their_files_read_back(
        self, corpus_dir, tmp_path, no_reads, gini_cells
    ):
        path = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells=gini_cells)
        config, out = pipeline.load_config(str(path)), str(tmp_path / "out")
        os.makedirs(out)
        chained = pipeline.Run(config, out)
        for name in config.stage_order():
            pipeline.STAGES[name](chained)

        def records(run):
            return (
                [run.read_clusters(p) for p in pipeline.PERIOD_IDS],
                run.geometry(),
                [run.read_map(p) for p in pipeline.PERIOD_IDS],
                run.read_linkage(),
                run.load_report(),
            )

        handed_on = records(chained)
        no_reads.undo()
        assert handed_on == records(pipeline.Run(config, out))  # a Run that made none reads each

    @pytest.mark.parametrize("gini_cells", ["categories", "clusters"])
    def test_run_hashes_only_its_input_and_a_stage_the_corpus_it_reads(
        self, corpus_dir, tmp_path, monkeypatch, gini_cells
    ):
        hashed, sha256_file = [], artifacts.sha256_file

        def spy(path):
            hashed.append(os.path.realpath(path))
            return sha256_file(path)

        monkeypatch.setattr(artifacts, "sha256_file", spy)
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells=gini_cells)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert hashed == [os.path.realpath(corpus_dir / "corpus.jsonl")]
        before = dir_hashes(out)
        hashed.clear()
        # a stand-alone cluster stage hashes the corpus.jsonl it reads; the cluster files it
        # writes are the run's, so the digest ingest handed on was the file's
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        assert hashed == [os.path.realpath(out / "corpus.jsonl")]
        assert dir_hashes(out) == before


class TestStageSequencing:
    @pytest.mark.parametrize(
        "stage, missing_file, producer",
        [
            ("terms", "corpus.jsonl", "ingest"),
            ("cluster", "corpus.jsonl", "ingest"),
            ("map", "clusters_P1.json", "cluster"),
            ("link", "terms.csv", "terms"),
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

    def test_map_runs_without_terms_artifact_and_link_names_it(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        assert main(["map", "--config", str(config), "--out", str(out)]) == 0  # reads no terms.csv
        before = dir_hashes(out)
        rc = main(["link", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "terms.csv" in err
        assert "'terms' stage" in err
        assert dir_hashes(out) == before

    def test_an_edited_cluster_file_fails_its_content_checks_before_its_hash(
        self, run_dir, tmp_path, monkeypatch
    ):
        parsed, read_json = [], artifacts.read_json

        def spy(path):
            parsed.append(os.path.basename(path))
            return read_json(path)

        monkeypatch.setattr(artifacts, "read_json", spy)
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / "clusters_P1.json").read_text(encoding="utf-8"))
        first = data["clusters"][0]
        first["axis"]["not in terms.csv"] = first["top_terms"][-1][1] / 2  # below its top terms
        (out / "clusters_P1.json").write_text(json.dumps(data), encoding="utf-8")
        runs = [pipeline.Run(pipeline.load_config(str(config)), str(out)) for _ in range(2)]
        terms = {s.term for s in runs[0].terms()}
        with pytest.raises(InputError, match="axis term 'not in terms.csv' of cluster 0 is not in"):
            runs[0].read_clusters("P1", terms)  # as link reads it
        stale = "stale artifact clusters_P1.json: its bytes are not the ones provenance.json records"
        with pytest.raises(InputError, match=stale):
            runs[1].read_clusters("P1")  # as map reads it: every other check passes
        assert parsed.count("clusters_P1.json") == 2  # once per read

    def test_map_reads_only_the_cluster_files(self, corpus_dir, tmp_path, capsys):
        # and geometry.json, which the cluster stage writes with them; the cluster files it only hashes
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(full)]) == 0
        shutil.copytree(full, out)
        maps = [f"map_{p}.{ext}" for p in pipeline.PERIOD_IDS for ext in ("json", "svg")]
        for name in ("terms.csv", "load_report.json", *maps):
            (out / name).unlink()
        assert main(["map", "--config", str(config), "--out", str(out)]) == 0
        ran, written = dir_hashes(full), dir_hashes(out)
        assert {n: written[n] for n in maps} == {n: ran[n] for n in maps}
        assert main(["link", "--config", str(config), "--out", str(out)]) == 3
        assert "missing terms.csv artifact" in capsys.readouterr().err
        assert dir_hashes(out) == written

    @pytest.mark.parametrize("stage", ["map", "link"])
    @pytest.mark.parametrize("change", ["new-vocabulary", "new-title"])
    def test_reingest_of_another_corpus_makes_cluster_files_stale(
        self, corpus_dir, tmp_path, capsys, stage, change
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        other_config = _ingest_changed_corpus(corpus_dir, tmp_path, out, change)
        fresh = tmp_path / "fresh"
        for command in ("ingest", "terms"):
            assert main([command, "--config", str(other_config), "--out", str(fresh)]) == 0
        same_terms = (fresh / "terms.csv").read_bytes() == (out / "terms.csv").read_bytes()
        assert same_terms == (change == "new-title")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(other_config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        # the new ingest, of another corpus.jsonl, started a new ledger; link reads
        # terms.csv, stale too, first
        stale = "terms.csv" if stage == "link" else "clusters_P1.json"
        assert f"stale artifact {stale}: provenance.json holds no record of it" in err
        assert dir_hashes(out) == before

    def test_terms_in_clusters_mode_checks_the_corpus_hash(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        other_config = _ingest_changed_corpus(
            corpus_dir, tmp_path, out, "new-title", gini_cells="clusters"
        )
        before = dir_hashes(out)
        rc = main(["terms", "--config", str(other_config), "--out", str(out)])
        assert rc == 3
        assert "stale artifact clusters_P1.json" in capsys.readouterr().err
        assert dir_hashes(out) == before

    def test_terms_in_clusters_mode_checks_axis_terms_against_the_vocabulary(
        self, corpus_dir, tmp_path, capsys
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", gini_cells="clusters")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        data = json.loads((out / "clusters_P1.json").read_text(encoding="utf-8"))
        first = data["clusters"][0]
        first["axis"]["not in terms.csv"] = first["top_terms"][-1][1] / 2  # below its top terms
        (out / "clusters_P1.json").write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        assert main(["terms", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "clusters_P1.json" in err and "not in the vocabulary" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("stage", ["map", "link"])
    @pytest.mark.parametrize(
        "setting, key",
        [
            ({"min_df": 3}, "min_df"),
            ({"periods": {"p1": [1996, 1997], "p2": [2001, 2003]}}, "periods"),
            ({"cluster": {"k": 5, "restarts": 4, "max_iters": 60}}, "k"),
            ({"weighting": "binary"}, "weighting"),
            ({"top_m": 3}, "top_m"),
            ({"seed": 8}, "seed"),
        ],
        ids=["min_df", "periods", "cluster.k", "weighting", "top_m", "seed"],
    )
    def test_changed_vocabulary_setting_makes_cluster_files_stale(
        self, corpus_dir, tmp_path, capsys, stage, setting, key
    ):
        # corpus.jsonl and terms.csv stay as they were; only the config moves
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        before = dir_hashes(out)
        changed = write_config(tmp_path, corpus_dir / "corpus.jsonl", **setting)
        rc = main([stage, "--config", str(changed), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        # link reads terms.csv first, which records the vocabulary settings too
        stale = "terms.csv" if stage == "link" and key in ("min_df", "periods") else "clusters_P1.json"
        assert f"stale artifact {stale}: it was built with {key} " in err
        assert dir_hashes(out) == before

    def test_changed_tau_and_rho_reuse_cluster_files(self, corpus_dir, tmp_path):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        # the fit's artifacts: tau and rho shape none of them
        clusters = {n: h for n, h in dir_hashes(out).items() if n.startswith("clusters_") or n == "geometry.json"}
        changed = write_config(tmp_path, corpus_dir / "corpus.jsonl", tau=0.5, rho=0.5)
        for stage in ("map", "link", "report"):
            assert main([stage, "--config", str(changed), "--out", str(out)]) == 0
        assert artifacts.read_json(str(out / "map_P1.json"))["tau"] == 0.5
        assert artifacts.read_json(str(out / "linkage.json"))["rho"] == 0.5
        assert {n: h for n, h in dir_hashes(out).items() if n in clusters} == clusters

    def test_clustering_a_reingested_corpus_makes_terms_csv_stale(
        self, corpus_dir, tmp_path, capsys
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        other_config = _ingest_changed_corpus(corpus_dir, tmp_path, out, "new-vocabulary")
        assert main(["cluster", "--config", str(other_config), "--out", str(out)]) == 0
        before = dir_hashes(out)
        rc = main(["link", "--config", str(other_config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "stale artifact terms.csv: provenance.json holds no record of it" in err
        assert "(re-run the terms stage)" in err
        assert dir_hashes(out) == before
        for command in ("terms", "link"):
            assert main([command, "--config", str(other_config), "--out", str(out)]) == 0

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
        assert set(os.listdir(out)) == before == {"corpus.jsonl", "load_report.json", "provenance.json"}

    def test_failed_run_removes_partial_outputs(self, corpus_dir, tmp_path):
        config = write_config(
            tmp_path,
            corpus_dir / "corpus.jsonl",
            cluster={"k": 200, "restarts": 4, "max_iters": 60},
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 4
        assert not out.exists()  # the run created it, so it goes too
        out.mkdir()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 4
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

    def test_deeply_nested_artifact_exits_3_and_names_it(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        (out / "map_P1.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        before = dir_hashes(out)
        rc = main(["report", "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert f"input error: cannot decode {out / 'map_P1.json'}" in capsys.readouterr().err
        assert dir_hashes(out) == before

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

    @pytest.mark.parametrize("stage", ["map", "link", "terms"])
    @pytest.mark.parametrize("ids", [[-1, 1, 2], [0, 0, 2], [1, 0, 2]], ids=repr)
    def test_foreign_cluster_ids_exit_3_and_name_the_file(
        self, run_dir, clusters_run_dir, tmp_path, capsys, stage, ids
    ):
        # terms parses clusters_P1.json under gini_cells: clusters; map and link hash the files
        config, source = clusters_run_dir if stage == "terms" else run_dir
        target = "clusters_P1.json" if stage == "terms" else "clusters_P2.json"
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / target).read_text(encoding="utf-8"))
        for entry, cluster_id in zip(data["clusters"], ids):
            entry["id"] = cluster_id
        (out / target).write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        if stage == "terms":
            assert f"malformed artifact {out / target}: the clusters are not k=3 with ids 0 to 2 in order" in err
        else:
            assert EDITED.format(target) in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "fault, stage",
        [
            (fault, stage)
            for fault in (
                "size", "size-overflow", "member-in-two-clusters", "weight-nan", "weight-overflow",
                "objective-infinite", "term-outside-vocabulary", "weight-above-one",
                "label-not-string", "top-term-not-string", "size-float", "size-string", "id-string",
                "weight-string", "weight-boolean", "member-not-string", "top-term-outside-axis",
                "label-not-first-top-term", "top-term-weight-edited", "top-term-weight-negative",
                "top-terms-out-of-weight-order", "top-terms-over-top_m", "top-terms-cut-short",
                "top-term-skipped",
            )
            for stage in ("map", "link", "terms")
        ],
    )
    def test_cluster_file_with_foreign_members_exits_3_and_names_it(
        self, run_dir, clusters_run_dir, tmp_path, capsys, stage, fault
    ):
        # terms parses clusters_P1.json under gini_cells: clusters, so it gives each fault's own
        # message; map and link hash the file unparsed
        config, source = clusters_run_dir if stage == "terms" else run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / "clusters_P1.json").read_text(encoding="utf-8"))
        first, second = data["clusters"][:2]
        if fault == "size":
            second["size"] += 7
        elif fault == "size-overflow":  # json.dumps cannot write it, so it goes in as text
            second["size"] = "1e999"
        elif fault == "member-in-two-clusters":
            second["members"].append(first["members"][0])
        elif fault == "weight-nan":
            first["axis"][next(iter(first["axis"]))] = float("nan")
        elif fault == "weight-overflow":  # json.dumps cannot write it, so it goes in as text
            first["axis"][next(iter(first["axis"]))] = "1e999"
        elif fault == "term-outside-vocabulary":  # no term of terms.csv holds a space
            first["axis"]["not in terms.csv"] = first["top_terms"][-1][1] / 2  # below its top terms
        elif fault == "weight-above-one":  # an axis is a unit vector; 1e200 squared overflows
            first["axis"][next(iter(first["axis"]))] = 1e200
        elif fault == "label-not-string":
            first["label"] = 5
        elif fault == "top-term-not-string":
            first["top_terms"][0][0] = ["x"]
        elif fault == "size-float":  # the size it had, written as 253.0, say
            second["size"] = float(second["size"])
        elif fault == "size-string":
            second["size"] = str(second["size"])
        elif fault == "id-string":
            first["id"] = "0"
        elif fault == "weight-string":
            first["axis"][next(iter(first["axis"]))] = "0.5"
        elif fault == "weight-boolean":
            first["axis"][next(iter(first["axis"]))] = True
        elif fault == "member-not-string":
            first["members"][0] = 7
        elif fault == "top-term-outside-axis":  # the label is still the first top term
            first["top_terms"][-1][0] = "zzz-foreign"
        elif fault == "label-not-first-top-term":  # a top term, but the second
            first["label"] = first["top_terms"][1][0]
        elif fault == "top-term-weight-edited":
            first["top_terms"][0][1] = 0.999
        elif fault == "top-term-weight-negative":  # in weight order, and its axis weight to 6 places
            term, weight = first["top_terms"][-1]
            first["axis"][term] = -first["axis"][term]
            first["top_terms"][-1][1] = -weight
        elif fault == "top-terms-out-of-weight-order":  # the last two swapped
            first["top_terms"][-2:] = first["top_terms"][:-3:-1]
            assert first["top_terms"][-2][1] < first["top_terms"][-1][1]
        elif fault == "top-terms-over-top_m":  # the next positive axis term, in weight order
            listed = {term for term, _ in first["top_terms"]}
            rest = sorted((-w, t) for t, w in first["axis"].items() if w > 0.0 and t not in listed)
            first["top_terms"].append([rest[0][1], round(-rest[0][0], 6)])
            assert len(first["top_terms"]) == 6  # top_m is 5
        elif fault == "top-terms-cut-short":  # the label is still the first top term
            del first["top_terms"][2:]
            assert sum(w > 0.0 for w in first["axis"].values()) > 2
        elif fault == "top-term-skipped":  # a heavier term gone from the middle, the rest in order
            assert len(first["top_terms"]) == 5  # top_m is 5
            del first["top_terms"][1]
        else:
            data["objective_trace"][-1] = float("-inf")
        text = json.dumps(data).replace('"1e999"', "1e999")
        (out / "clusters_P1.json").write_text(text, encoding="utf-8")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        if stage == "terms":
            assert f"malformed artifact {out / 'clusters_P1.json'}: " in err
        else:
            assert EDITED.format("clusters_P1.json") in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("stage", ["map", "link"])
    @pytest.mark.parametrize("target", ["clusters_P1.json", "clusters_P2.json"])
    @pytest.mark.parametrize("keep", [1, 2])
    def test_cluster_file_short_of_its_k_exits_3_and_names_it(
        self, run_dir, tmp_path, capsys, stage, target, keep
    ):
        config, source = run_dir  # k is 3
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / target).read_text(encoding="utf-8"))
        data["clusters"] = data["clusters"][:keep]
        (out / target).write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert EDITED.format(target) in capsys.readouterr().err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("keep", [1, 2])
    def test_cluster_file_short_of_its_k_stops_terms_naming_it(self, clusters_run_dir, tmp_path, capsys, keep):
        config, source = clusters_run_dir  # k is 3
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / "clusters_P1.json").read_text(encoding="utf-8"))
        data["clusters"] = data["clusters"][:keep]
        (out / "clusters_P1.json").write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        assert main(["terms", "--config", str(config), "--out", str(out)]) == 3
        message = "clusters_P1.json: the clusters are not k=3 with ids 0 to 2 in order"
        assert message in capsys.readouterr().err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("stage", ["map", "link", "terms"])
    def test_cluster_file_of_another_period_exits_3_and_names_it(
        self, run_dir, clusters_run_dir, tmp_path, capsys, stage
    ):
        # terms parses clusters_P1.json under gini_cells: clusters; map and link hash the files
        config, source = clusters_run_dir if stage == "terms" else run_dir
        target, other = ("clusters_P1.json", "P2") if stage == "terms" else ("clusters_P2.json", "P1")
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / target).read_text(encoding="utf-8"))
        data["period_id"] = other
        (out / target).write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        if stage == "terms":
            message = 'stale artifact clusters_P1.json: it was built with period_id "P2", not "P1"'
        else:
            message = EDITED.format(target)
        assert message in capsys.readouterr().err
        assert dir_hashes(out) == before

    # the order README gives: a stage needs provenance.json once it has found its first input
    INPUTS = {
        "terms": ["corpus.jsonl", "provenance.json"],
        "cluster": ["corpus.jsonl", "provenance.json"],
        "map": ["clusters_P1.json", "provenance.json", "clusters_P2.json", "geometry.json"],
        "link": ["terms.csv", "provenance.json", "clusters_P1.json", "clusters_P2.json", "geometry.json"],
        "report": [
            "map_P1.json", "provenance.json", "map_P2.json", "linkage.json", "load_report.json",
            "clusters_P1.json", "clusters_P2.json", "geometry.json",
        ],
    }

    @pytest.mark.parametrize(
        "stage, first_missing", [(stage, name) for stage, names in INPUTS.items() for name in names]
    )
    def test_the_first_missing_input_is_named_in_readme_order(
        self, run_dir, tmp_path, capsys, stage, first_missing
    ):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        inputs = self.INPUTS[stage]
        for name in inputs[inputs.index(first_missing):]:  # it and every later one
            (out / name).unlink()
        before = dir_hashes(out)
        rc = main([stage, "--config", str(config), "--out", str(out)])
        assert rc == 3
        assert f"missing {first_missing} artifact" in capsys.readouterr().err
        assert dir_hashes(out) == before

    # each artifact a stage reads, with a stage that reads it
    READS = [
        ("corpus.jsonl", "cluster"),
        ("clusters_P1.json", "map"),
        ("clusters_P2.json", "map"),
        ("clusters_P1.json", "link"),
        ("clusters_P2.json", "link"),
        ("terms.csv", "link"),
        ("geometry.json", "map"),
        ("geometry.json", "link"),
        ("geometry.json", "report"),
        ("map_P1.json", "report"),
        ("map_P2.json", "report"),
        ("linkage.json", "report"),
        ("load_report.json", "report"),
        ("provenance.json", "report"),
    ]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_a_stage_on_a_truncated_input_exits_3_and_names_it(self, run_dir, data):
        config, source = run_dir
        name, stage = data.draw(st.sampled_from(self.READS))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            shutil.copytree(source, out)
            whole = (out / name).read_bytes()
            cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
            (out / name).write_bytes(whole[:cut])
            before = dir_hashes(out)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main([stage, "--config", str(config), "--out", str(out)])
            assert dir_hashes(out) == before
        if name == "provenance.json" and not whole[cut:].strip():
            assert rc == 0  # only the closing newline was cut: the ledger reads the same
        else:  # a file whose content still passes differs from the bytes its record holds
            assert rc == 3
            assert name in err.getvalue()

    @pytest.mark.parametrize(
        "updates, message",
        [
            ({"edges": [[0, 99, 0.5]]}, "an edge ends outside range(3)"),
            ({"edges": [[-1, 0, 0.5]]}, "an edge ends outside range(3)"),
            (
                {"coords": [], "labels": [], "sizes": [], "edges": [], "components": []},
                "coords, labels and sizes must be non-empty and of one length",
            ),
            ({"labels": ["only"]}, "coords, labels and sizes must be non-empty and of one length"),
            ({"sizes": [1]}, "coords, labels and sizes must be non-empty and of one length"),
            ({"labels": [5, 6, 7]}, "labels[0] must be of type str, got 5"),
            ({"sizes": [-5, 1, 1]}, "a cluster size is negative"),
            ({"eigenvalues": [float("nan"), 0.0]}, "NaN is not a finite number"),
            ({"coords": [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0]]}, "Infinity is not a finite number"),
            (
                {"coords": [["1e999", 0.0], [0.0, 0.0], [0.0, 0.0]]},
                "coords[0][0] must be a finite number, got inf",
            ),
            ({"sizes": ["1e999", 1, 1]}, "sizes[0] must be of type int, got inf"),
            ({"sizes": [1.5, 1, 1]}, "sizes[0] must be of type int, got 1.5"),
            ({"sizes": [True, 1, 1]}, "sizes[0] must be of type int, got True"),
            ({"coords": None}, "missing a required field: coords"),
        ],
        ids=[
            "edge-past-end", "edge-negative", "no-clusters", "labels-short", "sizes-short",
            "labels-not-strings", "size-negative", "eigenvalue-nan", "coordinate-infinite",
            "coordinate-overflow", "size-overflow", "size-fractional", "size-boolean", "no-coords",
        ],
    )
    def test_foreign_map_json_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys, updates, message
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        data = json.loads((out / "map_P1.json").read_text(encoding="utf-8"))
        # an update to None deletes the key
        data = {key: value for key, value in {**data, **updates}.items() if value is not None}
        # json.dumps cannot write an overflowing literal, so "1e999" goes in as a string
        text = json.dumps(data).replace('"1e999"', "1e999")
        (out / "map_P1.json").write_text(text, encoding="utf-8")
        before = dir_hashes(out)
        rc = main(["report", "--config", str(config), "--out", str(out)])
        assert rc == 3
        # the decoder's own words, without an exception's class name
        want = f"diachron: input error: malformed artifact {out / 'map_P1.json'}: {message}\n"
        assert capsys.readouterr().err == want
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "updates", [{"input_sha256": 5}, {"p1_docs": True}, {"records_read": 1.5}], ids=repr
    )
    def test_foreign_load_report_exits_3_and_names_it(self, run_dir, tmp_path, capsys, updates):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / "load_report.json").read_text(encoding="utf-8"))
        (out / "load_report.json").write_text(json.dumps({**data, **updates}), encoding="utf-8")
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "load_report.json" in err
        assert dir_hashes(out) == before

    def test_report_under_another_rho_exits_3_and_names_the_linkage(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")  # the default rho, 0.3
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", rho=0.9)
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        assert (
            "stale artifact linkage.json: it was built with rho 0.3, not 0.9 (re-run the link stage)"
            in capsys.readouterr().err
        )
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            '{"links": []}',
            '{"rho": 0.3}',
            '{"rho": 0.3, "links": "not a list"}',
            '{"rho": 0.3, "links": [{"cluster_id": 0, "label": "a", "status": "maybe",'
            ' "parents": [], "best_parent": null}]}',
            '{"rho": 0.3, "links": [{"cluster_id": 0, "label": "a", "status": "rooted",'
            ' "parents": [[0, "0.9"]], "best_parent": [0, "0.9"]}]}',
        ],
        ids=["array", "empty", "no-rho", "no-links", "links-not-a-list", "status-maybe", "cosine-string"],
    )
    def test_foreign_linkage_json_exits_3_and_names_it(self, run_dir, tmp_path, capsys, text):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        (out / "linkage.json").write_text(text, encoding="utf-8")
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "linkage.json" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "fault",
        [
            "no-links", "a-link-short", "links-out-of-order", "new-with-a-best-parent",
            "new-with-parents", "rooted-without-parents", "best-parent-not-first",
            "parents-out-of-cosine-order",
        ],
    )
    def test_inconsistent_linkage_json_exits_3_and_names_it(
        self, run_dir, tmp_path, capsys, fault
    ):
        config, source = run_dir  # k is 3
        out = tmp_path / "out"
        shutil.copytree(source, out)
        data = json.loads((out / "linkage.json").read_text(encoding="utf-8"))
        links, rooted = data["links"], {"status": "rooted", "parents": [[0, 0.9], [1, 0.5]]}
        if fault == "no-links":
            links.clear()
        elif fault == "a-link-short":
            links.pop()
        elif fault == "links-out-of-order":
            links[0], links[1] = links[1], links[0]
        elif fault == "new-with-a-best-parent":
            links[0].update(status="new", parents=[], best_parent=[7, 0.1])
        elif fault == "new-with-parents":
            links[0].update(rooted, status="new", best_parent=[0, 0.9])
        elif fault == "rooted-without-parents":
            links[0].update(status="rooted", parents=[], best_parent=None)
        elif fault == "best-parent-not-first":
            links[0].update(rooted, best_parent=[1, 0.5])
        else:
            links[0].update(status="rooted", parents=[[1, 0.5], [0, 0.9]], best_parent=[1, 0.5])
        (out / "linkage.json").write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "linkage.json" in err
        assert dir_hashes(out) == before

    def test_report_on_swapped_maps_exits_3_and_names_the_first(self, run_dir, tmp_path, capsys):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        os.replace(out / "map_P1.json", out / "swap.json")
        os.replace(out / "map_P2.json", out / "map_P1.json")
        os.replace(out / "swap.json", out / "map_P2.json")
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        assert (
            'stale artifact map_P1.json: it was built with period_id "P2", not "P1"'
            in capsys.readouterr().err
        )
        assert dir_hashes(out) == before

    def test_report_under_another_tau_exits_3_and_names_the_map(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")  # the default tau, 0.2
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", tau=0.9)
        before = dir_hashes(out)
        assert main(["report", "--config", str(config), "--out", str(out)]) == 3
        assert (
            "stale artifact map_P1.json: it was built with tau 0.2, not 0.9 (re-run the map stage)"
            in capsys.readouterr().err
        )
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("stage", ["link"])  # the first stage whose output depends on terms.csv
    @pytest.mark.parametrize(
        "edit",
        [
            lambda header, rows: [row.rsplit(",", 1)[0] for row in (header, *rows)],
            # every row still parses: only the header shows tfidf and gini swapped
            lambda header, rows: [header.replace("tfidf,gini", "gini,tfidf"), *rows],
            lambda header, rows: [header + ",extra", *(row + ",x" for row in rows)],
            lambda header, rows: [header, rows[0].rsplit(",", 1)[0], *rows[1:]],
            # the csv module reads a field of at most 131,072 characters
            lambda header, rows: [header, "k" * 140_000 + rows[0][rows[0].index(","):], *rows[1:]],
            lambda header, rows: [header, _with_field(rows[0], 2, "nan"), *rows[1:]],
            lambda header, rows: [header, _with_field(rows[0], 3, "inf"), *rows[1:]],
        ],
        ids=[
            "missing-column", "reordered-header", "extra-column", "short-row", "field-over-limit",
            "gini-nan", "tfidf-inf",
        ],
    )
    def test_terms_csv_missing_a_column_exits_3_and_names_it(
        self, corpus_dir, tmp_path, capsys, stage, edit
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        header, *rows = (out / "terms.csv").read_text(encoding="utf-8").splitlines()
        (out / "terms.csv").write_text(
            "".join(row + "\n" for row in edit(header, rows)), encoding="utf-8"
        )
        before = dir_hashes(out)
        assert main([stage, "--config", str(config), "--out", str(out)]) == 3
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
        "stage, target, owner, name, failing",
        [
            # save_corpus encodes one line per record
            (
                "ingest", "corpus.jsonl", json.JSONEncoder, "encode",
                lambda: _disk_full_after(json.JSONEncoder.encode, 3),
            ),
            # write_json writes its bytes past the text layer in one call
            ("map", "map_P1.json", artifacts._Sha256Writer, "write", lambda: _partial_write),
        ],
        ids=["ingest", "map"],
    )
    def test_writer_failing_midway_leaves_prior_artifact_intact(
        self, corpus_dir, tmp_path, monkeypatch, stage, target, owner, name, failing
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        before = dir_hashes(out)
        monkeypatch.setattr(owner, name, failing())
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


class TestProvenance:
    """Each reading stage checks the ledger record of every file it reads, and
    recursively of the files that one was built from, against the config."""

    # run_dir's cluster section
    CLUSTER = {"k": 3, "restarts": 4, "max_iters": 60}
    # a recorded setting, edited: the key the message names, and the artifact it names per
    # reading stage (a stage that reads nothing the setting shapes is left out)
    EDITS = {
        "k": ({"cluster": {**CLUSTER, "k": 4}}, "k", dict.fromkeys(["map", "link", "report"], "clusters_P1.json")),
        "k_p2": ({"cluster": {**CLUSTER, "k_p2": 4}}, "k", dict.fromkeys(["map", "link", "report"], "clusters_P2.json")),
        "max_iters": (
            {"cluster": {**CLUSTER, "max_iters": 61}}, "max_iters",
            dict.fromkeys(["map", "link", "report"], "clusters_P1.json"),
        ),
        "tol": ({"cluster": {**CLUSTER, "tol": 1e-6}}, "tol", dict.fromkeys(["map", "link", "report"], "clusters_P1.json")),
        "restarts": (
            {"cluster": {**CLUSTER, "restarts": 5}}, "restarts",
            dict.fromkeys(["map", "link", "report"], "clusters_P1.json"),
        ),
        "seed": ({"seed": 8}, "seed", dict.fromkeys(["map", "link", "report"], "clusters_P1.json")),
        "weighting": ({"weighting": "binary"}, "weighting", dict.fromkeys(["map", "link", "report"], "clusters_P1.json")),
        "top_m": ({"top_m": 3}, "top_m", dict.fromkeys(["map", "link", "report"], "clusters_P1.json")),
        # link reads terms.csv first, which records these two as well
        "periods": (
            {"periods": {"p1": [1996, 1997], "p2": [2001, 2003]}}, "periods",
            {"map": "clusters_P1.json", "link": "terms.csv", "report": "clusters_P1.json"},
        ),
        "min_df": ({"min_df": 3}, "min_df", {"map": "clusters_P1.json", "link": "terms.csv", "report": "clusters_P1.json"}),
        "thresholds": ({"thresholds": {"novelty_share": 0.5}}, "thresholds", dict.fromkeys(["link", "report"], "terms.csv")),
        "gini_cells": ({"gini_cells": "clusters"}, "gini_cells", dict.fromkeys(["link", "report"], "terms.csv")),
        "tau": ({"tau": 0.5}, "tau", {"report": "map_P1.json"}),
        "rho": ({"rho": 0.5}, "rho", {"report": "linkage.json"}),
    }

    @pytest.mark.parametrize(
        "edit, stage", [(edit, stage) for edit, (_, _, named) in EDITS.items() for stage in named]
    )
    def test_an_edited_setting_makes_the_artifact_it_shapes_stale(self, run_dir, tmp_path, capsys, edit, stage):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        overrides, key, named = self.EDITS[edit]
        data = {**json.loads(config.read_text(encoding="utf-8")), **overrides}
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(data), encoding="utf-8")
        before = dir_hashes(out)
        assert main([stage, "--config", str(changed), "--out", str(out)]) == 3
        assert f"stale artifact {named[stage]}: it was built with {key} " in capsys.readouterr().err
        assert dir_hashes(out) == before

    @pytest.fixture(scope="class")
    def three_blocks(self, tmp_path_factory):
        """A `run` on three-blocks seed 3 under k 3, tau 0.2 and rho 0.3: a
        function writing its config with overrides, and its output."""
        path = tmp_path_factory.mktemp("three-blocks")
        assert main(["syngen", "--preset", "three-blocks", "--seed", "3", "--out", str(path / "corpus")]) == 0

        def config(directory, **overrides):
            settings = {"cluster": {"k": 3}, "seed": 0, "top_m": 10, "tau": 0.2, "rho": 0.3, **overrides}
            return write_config(directory, path / "corpus" / "corpus.jsonl", **settings)

        assert main(["run", "--config", str(config(path)), "--out", str(path / "out")]) == 0
        return config, path / "out"

    def test_a_reingest_of_the_same_input_keeps_the_ledger(self, run_dir, tmp_path):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        before = dir_hashes(out)
        for stage in ("ingest", "map", "link", "report"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
        assert dir_hashes(out) == before  # the same bytes, provenance.json's too

    @pytest.mark.parametrize("damage", ["truncated", "foreign-input"])
    def test_a_run_over_a_damaged_ledger_starts_it_anew(self, run_dir, tmp_path, damage):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        ledger = out / "provenance.json"
        if damage == "truncated":
            ledger.write_bytes(ledger.read_bytes()[:100])
        else:  # a record naming an input that no stage writes
            data = json.loads(ledger.read_text(encoding="utf-8"))
            data["terms.csv"]["inputs"]["notes.txt"] = "0" * 64
            ledger.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert dir_hashes(out) == dir_hashes(source)
        assert main(["map", "--config", str(config), "--out", str(out)]) == 0

    @pytest.mark.parametrize("stage", ["link", "report"])
    def test_edited_term_thresholds_make_terms_csv_stale(self, three_blocks, tmp_path, capsys, stage):
        config, source = three_blocks
        out = tmp_path / "out"
        shutil.copytree(source, out)
        thresholds = {"df_high_quantile": 0.2, "gini_low_quantile": 0.9, "novelty_share": 0.3}
        edited = config(tmp_path, thresholds=thresholds)
        before = dir_hashes(out)
        assert main([stage, "--config", str(edited), "--out", str(out)]) == 3
        assert "stale artifact terms.csv: it was built with thresholds " in capsys.readouterr().err
        assert dir_hashes(out) == before

    def test_refitted_clusters_make_the_maps_stale(self, three_blocks, tmp_path, capsys):
        config, source = three_blocks
        out = tmp_path / "out"
        shutil.copytree(source, out)
        seed_0, seed_7 = tmp_path / "0", tmp_path / "7"
        seed_0.mkdir()
        seed_7.mkdir()
        seed_0, seed_7 = config(seed_0), config(seed_7, seed=7)
        assert main(["cluster", "--config", str(seed_7), "--out", str(out)]) == 0
        before = dir_hashes(out)
        assert main(["report", "--config", str(seed_7), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "stale artifact map_P1.json: it was built from another clusters_P1.json (re-run the map stage)" in err
        assert main(["report", "--config", str(seed_0), "--out", str(out)]) == 3
        assert "stale artifact clusters_P1.json: it was built with seed " in capsys.readouterr().err
        assert dir_hashes(out) == before


class TestGeometry:
    """cluster records in geometry.json what no tau or rho changes, so map, link
    and report read it instead of the cluster files, which they only hash."""

    @pytest.mark.parametrize("stage", ["map", "link", "report"])
    def test_a_rerun_stage_parses_no_cluster_file(self, run_dir, tmp_path, monkeypatch, stage):
        parsed, read_json = [], artifacts.read_json

        def spy(path):
            parsed.append(os.path.basename(path))
            return read_json(path)

        monkeypatch.setattr(artifacts, "read_json", spy)
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert "geometry.json" in parsed
        assert not [name for name in parsed if name.startswith("clusters_")]

    @pytest.mark.parametrize("stage", ["map", "link"])
    @pytest.mark.parametrize("target", ["clusters_P1.json", "clusters_P2.json"])
    @pytest.mark.parametrize("change", ["edited", "truncated"])
    def test_an_edited_or_truncated_cluster_file_stops_map_and_link(
        self, run_dir, tmp_path, capsys, stage, target, change
    ):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        whole = (out / target).read_bytes()
        if change == "edited":  # the same content, which a parse would accept, in other bytes
            (out / target).write_text(json.dumps(json.loads(whole)), encoding="utf-8")
        else:
            (out / target).write_bytes(whole[: len(whole) // 2])
        before = dir_hashes(out)
        assert main([stage, "--config", str(config), "--out", str(out)]) == 3
        assert EDITED.format(target) in capsys.readouterr().err
        assert dir_hashes(out) == before

    def test_the_manifest_records_the_versions_the_fit_ran_under(self, run_dir, tmp_path, monkeypatch):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        fit = {"python": "3.0.1", "numpy": "0.9.8", "scipy": "0.7.6"}
        monkeypatch.setattr(sys, "version", f"{fit['python']} (the fit's interpreter)")
        monkeypatch.setattr(numpy, "__version__", fit["numpy"])
        monkeypatch.setattr(scipy, "__version__", fit["scipy"])
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        monkeypatch.undo()
        assert artifacts.read_json(str(out / "geometry.json"))["versions"] == fit
        for stage in ("map", "link", "report"):
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        manifest = artifacts.read_json(str(out / artifacts.MANIFEST))
        assert manifest["versions"] == {"diachron": diachron.__version__, **fit}
        assert (numpy.__version__, scipy.__version__) != (fit["numpy"], fit["scipy"])  # report's own
        ran = dir_hashes(source)
        assert {n: h for n, h in dir_hashes(out).items() if n.startswith("clusters_")} == {
            n: h for n, h in ran.items() if n.startswith("clusters_")
        }

    @staticmethod
    def _from_axes(out, config):
        """The maps, linkage and crosstab.csv bytes computed from the cluster files' axes."""
        clusters = [
            artifacts.read_clusters(str(out / artifacts.clusters_file(p)), p, config.cluster_config(p).k, config.top_m)
            for p in pipeline.PERIOD_IDS
        ]
        maps = [
            cluster_map_from_axes(
                p, [c.axis for c in cf.clusters], config.tau, [c.label for c in cf.clusters],
                [c.size for c in cf.clusters],
            )
            for p, cf in zip(pipeline.PERIOD_IDS, clusters)
        ]
        (p1, p2) = (cf.clusters for cf in clusters)
        linkage = link_periods_from_axes(
            [c.axis for c in p1], [c.axis for c in p2], [c.label for c in p2], config.rho
        )
        stats = diffusion.read_terms_csv(str(out / "terms.csv"))
        crosstab = out.parent / "oracle_crosstab.csv"
        artifacts.write_crosstab(str(crosstab), cross_table_from_clusters(linkage, p2, stats))
        return maps, linkage, crosstab.read_bytes()

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_maps_linkage_and_crosstab_from_geometry_equal_those_from_the_axes(self, data):
        n_blocks = data.draw(st.integers(2, 3), label="blocks")
        docs = st.integers(8, 20)
        spec = syngen.PlantSpec(
            blocks=tuple(
                syngen.Block(name=f"b{i}", vocab_size=data.draw(st.integers(8, 12)), docs_p1=data.draw(docs),
                             docs_p2=data.draw(docs), tag=f"tag{i}")
                for i in range(n_blocks)
            ),
            shared_terms=data.draw(st.integers(0, 3), label="shared_terms"),
            noise_rate=data.draw(st.sampled_from([0.0, 0.1, 0.2]), label="noise_rate"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        records, _ = syngen.generate(spec)
        thresholds = st.floats(0.01, 1.0)
        points = [(data.draw(thresholds, label="tau"), data.draw(thresholds, label="rho")) for _ in range(2)]
        settings_ = {
            "cluster": {"k": data.draw(st.integers(2, 4)), "k_p2": data.draw(st.integers(2, 4)), "restarts": 2,
                        "max_iters": 20},
            "top_m": data.draw(st.integers(1, 6), label="top_m"),
            "min_df": data.draw(st.integers(1, 2), label="min_df"),
        }
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_corpus(records, str(root / "corpus.jsonl"))
            out = root / "out"
            for i, (tau, rho) in enumerate(points):  # a run, then map and link under new thresholds
                path = write_config(root, root / "corpus.jsonl", tau=tau, rho=rho, **settings_)
                for command in ["run"] if i == 0 else ["map", "link"]:
                    assert main([command, "--config", str(path), "--out", str(out)]) == 0
                maps, linkage, crosstab = self._from_axes(out, pipeline.load_config(str(path)))
                assert [artifacts.read_map(str(out / f"map_{p}.json"), p) for p in pipeline.PERIOD_IDS] == maps
                assert artifacts.read_linkage(str(out / "linkage.json"), len(linkage.links)) == linkage
                assert (out / "crosstab.csv").read_bytes() == crosstab


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

    @pytest.mark.parametrize(
        "section",
        [{"restarts": 0}, {"max_iters": 0}, {"tol": -1}, {"k": 1}, {"k_p1": 1}],
        ids=repr,
    )
    def test_bad_cluster_value_exits_2_before_any_stage(
        self, corpus_dir, tmp_path, capsys, section
    ):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", cluster={"k": 3, **section})
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 2
        (key,) = section
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "name, data, where",
        [
            ("corpus.jsonl", GOOD_JSONL + b'{"id": "c\xff", "year": 1997, "keywords": ["x"]}\n', ": not UTF-8"),
            ("corpus.csv", GOOD_CSV + b"c\xff,1997,x\n", ": not UTF-8"),
            ("corpus.jsonl", GOOD_JSONL + b'{"id": "c", "year": ' + b"1" * 4301 + b"}\n", ":3:"),
            ("corpus.jsonl", GOOD_JSONL + b"[" * 100_000 + b"]" * 100_000 + b"\n", ":3:"),
            ("corpus.csv", GOOD_CSV + b"c,1997," + b"x" * 131_073 + b"\n", ":4:"),
            # int() takes both as 1997
            ("corpus.csv", GOOD_CSV + b"c,1_997,x\n", ":4: 'year' must be an integer, got '1_997'"),
            ("corpus.csv", GOOD_CSV + "c, ١٩٩٧ ,x\n".encode(), ":4: 'year' must be an integer, got '١٩٩٧'"),
            ("corpus.csv", GOOD_CSV + b"c," + b"1" * 4301 + b",x\n", ":4: 'year' must be an integer, got '111"),
            # in two of six records, so that the keyword reaches min_df and terms.csv
            ("corpus.jsonl", GOOD_JSONL + b"".join(
                b'{"id": "%s", "year": %d, "keywords": ["x", "%s"]}\n' % (rec_id, year, keyword)
                for rec_id, year, keyword in (
                    (b"c", 1997, b"k" * 140_000), (b"d", 2002, b"k" * 140_000),
                    (b"e", 1997, b"z"), (b"f", 2002, b"z"),
                )
            ), ":3: a keyword is longer than 131072 characters"),
            ("corpus.jsonl", GOOD_JSONL + b'{"id": "c\\ud800", "year": 1997, "keywords": ["x"]}\n',
             ": a record holds a lone surrogate"),
            ("corpus.jsonl", GOOD_JSONL + b'\xef\xbb\xbf{"id": "c", "year": 1997, "keywords": ["x"]}\n',
             ":3: malformed JSON line"),
        ],
        ids=[
            "jsonl-not-utf8", "csv-not-utf8", "integer-over-4300-digits",
            "nested-100000-deep", "csv-field-over-limit", "csv-year-with-underscore",
            "csv-year-in-arabic-indic-digits", "csv-year-over-4300-digits", "jsonl-keyword-over-limit",
            "lone-surrogate", "jsonl-line-after-a-bom",
        ],
    )
    def test_unparsable_corpus_exits_3_naming_file_and_line(self, tmp_path, capsys, name, data, where):
        corpus = tmp_path / name
        corpus.write_bytes(data)
        config = write_config(tmp_path, corpus, format=name.split(".")[1])
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"input error: {corpus}{where}" in capsys.readouterr().err

    def test_failed_ingest_removes_only_the_out_it_created(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(GOOD_JSONL + b'{"id": "c\\ud800", "year": 1997, "keywords": ["x"]}\n')
        config = write_config(tmp_path, corpus)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 3
        assert not out.exists()
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 3
        assert os.listdir(out) == ["notes.txt"]
        nested = tmp_path / "empty" / "out"
        nested.parent.mkdir()
        assert main(["ingest", "--config", str(config), "--out", str(nested)]) == 3
        assert os.listdir(tmp_path / "empty") == []
        assert "lone surrogate" in capsys.readouterr().err

    def test_zero_threads_exit_2(self, corpus_dir, tmp_path, capsys):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl")
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "0"])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["run", "map"])
    def test_out_of_range_seed_flag_exits_2(self, run_dir, tmp_path, capsys, command, seed):
        config, source = run_dir
        out = tmp_path / "out"
        shutil.copytree(source, out)
        before = dir_hashes(out)
        assert main([command, "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 2
        assert f"seed must be an unsigned 64-bit integer, got {seed}" in capsys.readouterr().err
        assert dir_hashes(out) == before

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

    def test_log_level_is_read_on_every_call(self, run_dir, monkeypatch, caplog, tmp_path):
        config, out = run_dir
        out = shutil.copytree(out, tmp_path / "out")
        argv = ["map", "--config", str(config), "--out", str(out)]
        stage_lines = []
        for level in ("error", "info", "warn"):
            monkeypatch.setenv("DIACHRON_LOG", level)
            caplog.clear()
            assert main(argv) == 0
            stage_lines.append([r.getMessage() for r in caplog.records if r.levelno == logging.INFO])
        # the records reach the handler pytest installed, which main leaves in place
        assert stage_lines[0] == stage_lines[2] == []
        assert any(line.startswith("stage map finished") for line in stage_lines[1])


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
}
FULL_SPEC = json.loads(json.dumps(encode(syngen.PlantSpec(
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


class _Pair(NamedTuple):
    pair: tuple[int, float]


class TestStrictDecoding:
    @pytest.mark.parametrize(
        "command, key, text, path",
        [
            ("run", "periods", '{"p1": [1996, "abc"], "p2": [2001, 2003]}', "periods.p1[1]"),
            ("run", "periods", '{"p1": [1996], "p2": [2001, 2003]}', "periods.p1"),
            ("run", "cluster", '{"k": 1e400}', "cluster.k"),
            ("run", "cluster", '{"k": 2.7}', "cluster.k"),
            ("run", "cluster", '{"k": 3, "tol": NaN}', "cluster.tol"),
            ("run", "input", '"corpus\\u0000.jsonl"', "input"),
            ("run", "format", '"xml"', "format"),
            ("run", "format", "1", "format"),
            ("run", "weighting", '"bm25"', "weighting"),
            ("run", "gini_cells", '"periods"', "gini_cells"),
            ("run", "tau", "0", "tau"),
            ("run", "tau", "1.5", "tau"),
            ("run", "rho", "0", "rho"),
            ("run", "rho", "1.5", "rho"),
            ("run", "min_df", "0", "min_df"),
            ("run", "top_m", "0", "top_m"),
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

    @pytest.mark.parametrize(
        "command, flag, kind", [("run", "--config", "config"), ("syngen", "--spec", "spec")]
    )
    @pytest.mark.parametrize(
        "text, problem",
        [
            ("{not json", "is not valid JSON"),
            pytest.param("[" * 100_000 + "]" * 100_000, "is not valid JSON", id="nested-100000-deep"),
            ("[1, 2]", "must hold a JSON object"),
        ],
    )
    def test_unreadable_file_exits_2_naming_it(
        self, tmp_path, capsys, command, flag, kind, text, problem
    ):
        source = tmp_path / "input.json"
        source.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, flag, str(source), "--out", str(out)]) == 2
        assert f"config error: {kind} file {source} {problem}" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(value=json_values)
    def test_any_value_at_any_config_path_decodes_or_is_a_config_error(self, value):
        for path in _json_paths(FULL_CONFIG):
            try:
                pipeline.config_from_dict(_put(FULL_CONFIG, path, value))
            except ConfigError:
                pass

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(value=json_values)
    def test_any_value_at_any_config_path_gives_main_an_exit_code(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "corpus.jsonl").write_bytes(GOOD_JSONL)
            config, out = Path(tmp, "config.json"), Path(tmp, "out")
            for path in _json_paths(FULL_CONFIG):
                config.write_text(json.dumps(_put(FULL_CONFIG, path, value)), encoding="utf-8")
                assert main(["ingest", "--config", str(config), "--out", str(out)]) in (0, 2, 3, 5)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(value=json_values)
    def test_any_value_at_any_spec_path_decodes_or_is_a_config_error(self, value):
        for path in _json_paths(FULL_SPEC):
            try:
                decode(syngen.PlantSpec, _put(FULL_SPEC, path, value))
            except ConfigError:
                pass

    def test_fixed_length_tuple_decodes_each_item_with_its_own_type(self):
        assert decode(_Pair, {"pair": [1, 0.5]}) == _Pair((1, 0.5))
        with pytest.raises(ConfigError, match=r"^pair\[0\] must be of type int, got 1\.5$"):
            decode(_Pair, {"pair": [1.5, 0.5]})

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

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"thresholds": {"gini_low": 0.2}}, "thresholds.gini_low"),
            ({"cluster": {"k": 3, "restart": 4}}, "cluster.restart"),
            ({"sed": 7}, "sed"),
        ],
        ids=["nested", "nested-beside-a-known-key", "top-level"],
    )
    def test_unknown_key_exits_2_naming_its_path(self, corpus_dir, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path, corpus_dir / "corpus.jsonl", **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert f"config error: unknown key {key}\n" in capsys.readouterr().err
        assert not out.exists()


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

    def test_cli_import_defaults_openblas_to_one_thread_before_numpy(self):
        src = str(Path(diachron.__file__).parents[1])
        code = (
            "import os, sys, diachron.cli\n"
            "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        # this process may have imported diachron.cli already, which sets it
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        for preset, want in ((None, "False 1"), ("2", "False 2")):
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**env, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == want

    def test_rerun_stages_load_only_what_they_use(self, corpus_dir, tmp_path):
        src = str(Path(diachron.__file__).parents[1])
        probed = (
            "numpy", "scipy", "concurrent.futures", "diachron.syngen",
            "diachron.cluster", "diachron.diachrony", "diachron.vectorize",
            "diachron.corpus", "diachron.diffusion", "platform", "html",
            "importlib.metadata", "email", "hashlib", "dataclasses", "inspect",
        )
        code = (
            "import sys\n"
            "from diachron.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            f"print(sorted(m for m in {probed!r} if m in sys.modules))\n"
            "sys.exit(rc)\n"
        )
        # terms counts term x cell pairs in numpy (reading the cluster files when
        # they are its cells) but builds no sparse matrix, so it loads no scipy;
        # map and link do their arithmetic on geometry.json's products in Python
        # floats, and report takes the numpy and scipy versions the fit recorded
        # there, so none of the three loads numpy, scipy or a module of the fit
        # or the vectorizer; no stage loads `platform` or `html` itself (numpy's
        # own import loads `platform` and `inspect`), and none loads
        # importlib.metadata or `email`, which scipy imports. map, link and
        # report parse no corpus, and map and report read no terms.csv, so they
        # load neither corpus nor diffusion. Every stage checks the sha256 of
        # what it reads or writes, so every stage loads hashlib. The records are
        # NamedTuples, so no stage loads `dataclasses` itself: only cluster and
        # run do, through scipy.sparse. A re-ingest of the same input keeps
        # every artifact's bytes
        terms = ["diachron.corpus", "diachron.diffusion", "diachron.vectorize", "hashlib", "inspect", "numpy", "platform"]
        fit = [
            "concurrent.futures", "dataclasses", "diachron.cluster", "diachron.corpus", "diachron.vectorize",
            "email", "hashlib", "importlib.metadata", "inspect", "numpy", "platform", "scipy",
        ]
        for gini_cells, stages in (
            ("categories", (
                ("ingest", ["diachron.corpus", "hashlib"]),
                ("terms", terms),
                ("cluster", fit),
                ("map", ["hashlib"]),
                ("link", ["diachron.diachrony", "diachron.diffusion", "hashlib"]),
                ("report", ["hashlib"]),
                ("run", sorted([*fit, "diachron.diachrony", "diachron.diffusion"])),
            )),
            ("clusters", (("terms", terms),)),
        ):
            directory = tmp_path / gini_cells
            directory.mkdir()
            config = write_config(directory, corpus_dir / "corpus.jsonl", gini_cells=gini_cells)
            out = directory / "out"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            before = dir_hashes(out)
            for stage, loaded in stages:
                proc = subprocess.run(
                    [sys.executable, "-c", code, stage, "--config", str(config), "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "PYTHONPATH": src},
                )
                assert proc.returncode == 0, proc.stderr
                assert proc.stdout.strip() == repr(loaded), (gini_cells, stage)
            assert dir_hashes(out) == before


class TestModuleEntry:
    """`python -m diachron.cli`, the path the benchmark times, in a fresh process."""

    @staticmethod
    def cli(*argv, **env):
        src = str(Path(diachron.__file__).parents[1])
        return subprocess.run(
            [sys.executable, "-m", "diachron.cli", *map(str, argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, **env},
        )

    def test_run_and_error_exits(self, tmp_path):
        proc = self.cli("syngen", "--preset", "three-blocks", "--out", tmp_path / "corpus", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        config = write_config(tmp_path, tmp_path / "corpus" / "corpus.jsonl", seed=3)
        out = tmp_path / "out"
        proc = self.cli("run", "--config", config, "--out", out, DIACHRON_LOG="info")
        assert proc.returncode == 0, proc.stderr
        assert set(os.listdir(out)) == EXPECTED_FILES
        for stage in CANONICAL_STAGES:
            assert f"INFO diachron: stage {stage} finished" in proc.stderr
        manifest = json.loads((out / artifacts.MANIFEST).read_text(encoding="utf-8"))
        assert manifest["versions"]["python"] == platform.python_version()

        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = self.cli("run", "--config", bad, "--out", tmp_path / "bad-out")
        assert proc.returncode == 2
        assert "diachron: config error:" in proc.stderr
        proc = self.cli("report", "--config", config, "--out", tmp_path / "empty")
        assert proc.returncode == 3
        assert "diachron: input error:" in proc.stderr and "map_P1.json" in proc.stderr

    def test_console_script_runs_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(diachron.__file__).parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["diachron"]
        module, _, function = target.partition(":")
        assert module == "diachron.cli"
        tree = ast.parse(Path(diachron.cli.__file__).read_text(encoding="utf-8"))
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]


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
