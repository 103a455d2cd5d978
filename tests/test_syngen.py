import json
from dataclasses import asdict

import pytest

from diachron.errors import ConfigError
from diachron.syngen import (
    CATEGORY_UNPLANTED,
    MAX_KEYWORDS,
    MIN_KEYWORDS,
    Block,
    BridgeSpec,
    PlantSpec,
    generate,
    preset,
    spec_from_dict,
)


def _two_block_spec(**overrides):
    kwargs = dict(
        blocks=(
            Block("alpha", vocab_size=12, docs_p1=30, docs_p2=30, tag="modeling"),
            Block("beta", vocab_size=12, docs_p1=30, docs_p2=30, tag="assay"),
        ),
        seed=7,
    )
    kwargs.update(overrides)
    return PlantSpec(**kwargs)


def _records_json(records):
    return json.dumps(
        [
            {"id": r.id, "year": r.year, "keywords": list(r.keywords), "categories": list(r.categories)}
            for r in records
        ],
        sort_keys=True,
    )


class TestValidation:
    def test_no_blocks_rejected(self):
        with pytest.raises(ConfigError):
            PlantSpec(blocks=())

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ConfigError):
            PlantSpec(
                blocks=(
                    Block("alpha", vocab_size=12, docs_p1=1, docs_p2=1),
                    Block("alpha", vocab_size=12, docs_p1=1, docs_p2=1),
                )
            )

    def test_novel_block_name_collision_rejected(self):
        with pytest.raises(ConfigError):
            _two_block_spec(
                novel_block=Block("alpha", vocab_size=12, docs_p1=0, docs_p2=5)
            )

    def test_novel_block_with_first_period_docs_rejected(self):
        with pytest.raises(ConfigError):
            _two_block_spec(
                novel_block=Block("delta", vocab_size=12, docs_p1=3, docs_p2=5)
            )

    def test_noise_rate_range(self):
        with pytest.raises(ConfigError):
            _two_block_spec(noise_rate=0.25)
        with pytest.raises(ConfigError):
            _two_block_spec(noise_rate=-0.01)
        _two_block_spec(noise_rate=0.2)

    def test_vocab_must_cover_max_keyword_draw(self):
        with pytest.raises(ConfigError):
            Block("tiny", vocab_size=MAX_KEYWORDS - 1, docs_p1=1, docs_p2=1)

    def test_negative_doc_counts_rejected(self):
        with pytest.raises(ConfigError):
            Block("alpha", vocab_size=12, docs_p1=-1, docs_p2=1)

    def test_negative_shared_terms_rejected(self):
        with pytest.raises(ConfigError):
            _two_block_spec(shared_terms=-1)

    def test_bridge_validation(self):
        with pytest.raises(ConfigError):
            BridgeSpec("b", members=("alpha",), vocab_size=8)
        with pytest.raises(ConfigError):
            BridgeSpec("b", members=("alpha", "beta"), vocab_size=1, draws_per_doc=2)
        with pytest.raises(ConfigError):
            _two_block_spec(
                bridges=(BridgeSpec("b", members=("alpha", "ghost"), vocab_size=8),)
            )


class TestGenerate:
    def test_same_seed_is_byte_identical(self):
        spec = _two_block_spec()
        records_a, truth_a = generate(spec)
        records_b, truth_b = generate(spec)
        assert records_a == records_b
        assert _records_json(records_a) == _records_json(records_b)
        assert truth_a == truth_b

    def test_different_seeds_differ(self):
        a, _ = generate(_two_block_spec(seed=1))
        b, _ = generate(_two_block_spec(seed=2))
        assert _records_json(a) != _records_json(b)

    def test_keywords_stay_inside_own_block(self):
        records, truth = generate(_two_block_spec())
        vocab = {
            "alpha": {f"alpha-t{j:03d}" for j in range(12)},
            "beta": {f"beta-t{j:03d}" for j in range(12)},
        }
        for rec in records:
            block = truth["doc_block"][rec.id]
            assert set(rec.keywords) <= vocab[block]

    def test_keyword_counts_in_declared_range(self):
        records, _ = generate(_two_block_spec())
        for rec in records:
            assert MIN_KEYWORDS <= len(rec.keywords) <= MAX_KEYWORDS

    def test_doc_counts_periods_and_order(self):
        spec = _two_block_spec()
        records, _ = generate(spec)
        assert len(records) == 120
        p1 = [r for r in records if r.id.startswith("P1-")]
        p2 = [r for r in records if r.id.startswith("P2-")]
        assert len(p1) == 60 and len(p2) == 60
        assert all(r.year == spec.p1_year for r in p1)
        assert all(r.year == spec.p2_year for r in p2)
        # emission order: P1 blocks, then P2 blocks
        assert [r.id for r in records[:60]] == sorted(r.id for r in p1)

    def test_block_tag_becomes_record_category(self):
        records, truth = generate(_two_block_spec())
        for rec in records:
            expected = "modeling" if truth["doc_block"][rec.id] == "alpha" else "assay"
            assert rec.categories == (expected,)

    def test_untagged_block_has_no_categories(self):
        spec = PlantSpec(
            blocks=(Block("alpha", vocab_size=12, docs_p1=5, docs_p2=5),), seed=1
        )
        records, _ = generate(spec)
        assert all(r.categories == () for r in records)

    def test_novel_terms_absent_from_first_period(self):
        spec = _two_block_spec(
            novel_block=Block("delta", vocab_size=10, docs_p1=0, docs_p2=20, tag="fresh")
        )
        records, truth = generate(spec)
        novel_terms = {t for t, b in truth["term_block"].items() if b == "delta"}
        assert len(novel_terms) == 10
        for rec in records:
            if rec.id.startswith("P1-"):
                assert not (set(rec.keywords) & novel_terms)
        novel_docs = [r for r in records if truth["doc_block"][r.id] == "delta"]
        assert len(novel_docs) == 20
        for rec in novel_docs:
            assert set(rec.keywords) - {t for t in rec.keywords if t in novel_terms} <= set(
                truth["shared_terms"]
            )

    def test_shared_terms_injected_into_every_doc(self):
        spec = _two_block_spec(shared_terms=5)
        records, truth = generate(spec)
        shared = set(truth["shared_terms"])
        assert len(shared) == 5
        for rec in records:
            assert len(set(rec.keywords) & shared) == 1

    def test_bridge_terms_drawn_only_by_member_blocks(self):
        spec = PlantSpec(
            blocks=(
                Block("alpha", vocab_size=12, docs_p1=20, docs_p2=20),
                Block("beta", vocab_size=12, docs_p1=20, docs_p2=20),
                Block("gamma", vocab_size=12, docs_p1=20, docs_p2=20),
            ),
            bridges=(BridgeSpec("hub", members=("alpha", "beta"), vocab_size=8, draws_per_doc=2),),
            seed=3,
        )
        records, truth = generate(spec)
        bridge_terms = {t for t, b in truth["term_block"].items() if b == "hub"}
        assert len(bridge_terms) == 8
        for rec in records:
            block = truth["doc_block"][rec.id]
            hits = set(rec.keywords) & bridge_terms
            if block in ("alpha", "beta"):
                assert len(hits) == 2
            else:
                assert hits == set()

    def test_noise_draws_come_from_other_regular_blocks(self):
        spec = _two_block_spec(
            noise_rate=0.2,
            novel_block=Block("delta", vocab_size=10, docs_p1=0, docs_p2=20),
            seed=11,
        )
        records, truth = generate(spec)
        vocab = {
            name: {t for t, b in truth["term_block"].items() if b == name}
            for name in ("alpha", "beta", "delta")
        }
        noisy = 0
        for rec in records:
            block = truth["doc_block"][rec.id]
            if block == "delta":
                continue
            other = "beta" if block == "alpha" else "alpha"
            stray = set(rec.keywords) & vocab[other]
            assert len(stray) <= 1
            noisy += bool(stray)
            # noise never draws from the novel block
            assert not (set(rec.keywords) & vocab["delta"])
        assert noisy > 0

    def test_truth_category_planting(self):
        spec = _two_block_spec(
            shared_terms=4,
            novel_block=Block("delta", vocab_size=10, docs_p1=0, docs_p2=20),
            bridges=(BridgeSpec("hub", members=("alpha", "beta"), vocab_size=8),),
        )
        _, truth = generate(spec)
        cats = truth["term_category"]
        # vocab 12 -> core 4 established, tail 8 unplanted
        assert sum(1 for t, c in cats.items() if t.startswith("alpha-") and c == "established") == 4
        assert sum(1 for t, c in cats.items() if t.startswith("alpha-") and c == CATEGORY_UNPLANTED) == 8
        assert all(cats[t] == "unusual" for t in cats if t.startswith("delta-"))
        assert all(cats[t] == "cross_section" for t in cats if t.startswith("shared-"))
        assert all(cats[t] == CATEGORY_UNPLANTED for t in cats if t.startswith("hub-"))
        assert truth["novel_block"] == "delta"
        assert truth["blocks"] == ["alpha", "beta"]
        assert truth["bridge_groups"] == [{"name": "hub", "members": ["alpha", "beta"]}]
        assert truth["seed"] == 7


class TestSpecDictRoundTrip:
    def test_round_trip_identity(self):
        spec = _two_block_spec(
            shared_terms=4,
            noise_rate=0.1,
            novel_block=Block("delta", vocab_size=10, docs_p1=0, docs_p2=20, tag="fresh"),
            bridges=(BridgeSpec("hub", members=("alpha", "beta"), vocab_size=8),),
        )
        assert spec_from_dict(asdict(spec)) == spec

    def test_round_trip_survives_json(self):
        spec = _two_block_spec()
        data = json.loads(json.dumps(asdict(spec)))
        assert spec_from_dict(data) == spec

    def test_malformed_block_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"blocks": [{"vocab_size": 12}]})

    def test_spec_novel_block_with_first_period_docs_rejected(self):
        data = asdict(_two_block_spec())
        data["novel_block"] = {"name": "delta", "vocab_size": 10, "docs_p1": 5, "docs_p2": 20}
        with pytest.raises(ConfigError, match="first-period docs"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "name", ["three-blocks", "diffusion-mix", "fresh-block", "two-networks", "large-scale"]
    )
    def test_presets_round_trip_through_json(self, name):
        spec = preset(name, seed=7)
        assert spec_from_dict(json.loads(json.dumps(asdict(spec)))) == spec


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["three-blocks", "diffusion-mix", "fresh-block", "two-networks", "large-scale"]
    )
    def test_presets_generate(self, name):
        spec = preset(name, seed=5)
        assert spec.seed == 5
        records, truth = generate(spec)
        assert records
        assert set(truth["doc_block"]) == {r.id for r in records}

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("unknown-preset")

    def test_three_blocks_shape(self):
        records, truth = generate(preset("three-blocks", seed=0))
        assert len(records) == 1200
        assert truth["blocks"] == ["alpha", "beta", "gamma"]
        assert truth["novel_block"] is None
