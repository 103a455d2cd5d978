"""Synthetic corpora with planted block structure and known term categories.

Each block owns a disjoint vocabulary split into a high-frequency core
(every doc draws about half its keywords there, so core terms end up with
high pooled document frequency in both periods) and a low-frequency tail.
On top of the block draws a doc may get: one term from a shared pool drawn
uniformly by all documents (evenly spread, hence low dispersion), terms
from bridge pools that couple the axes of member blocks without merging
their vocabularies, and one off-block noise keyword. An optional novel
block exists only in the second period, so its terms have zero
first-period document frequency by construction.

Planted ground truth: core terms -> established, novel-block terms ->
unusual, shared terms -> cross_section; tail and bridge terms are
"unplanted" (they shape the frequency and dispersion quantiles but carry
no category claim). Generation is a single sequential seeded stream, so
one seed fixes the corpus byte for byte.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .corpus import Record
from .diffusion import (
    CATEGORY_CROSS_SECTION,
    CATEGORY_ESTABLISHED,
    CATEGORY_UNUSUAL,
)
from .errors import ConfigError, checked

CATEGORY_UNPLANTED = "unplanted"

MIN_KEYWORDS = 4
MAX_KEYWORDS = 8


@checked
class Block(NamedTuple):
    name: str
    vocab_size: int
    docs_p1: int = 0
    docs_p2: int = 0
    tag: str = ""

    def check(self) -> None:
        if not self.name:
            raise ConfigError("block name must be non-empty")
        if self.vocab_size < MAX_KEYWORDS:
            raise ConfigError(
                f"block {self.name!r} vocabulary must hold at least "
                f"{MAX_KEYWORDS} terms, got {self.vocab_size}"
            )
        if self.docs_p1 < 0 or self.docs_p2 < 0:
            raise ConfigError(f"block {self.name!r} has negative doc counts")


@checked
class BridgeSpec(NamedTuple):
    name: str
    members: tuple[str, ...]
    vocab_size: int
    draws_per_doc: int = 2

    def check(self) -> None:
        if len(self.members) < 2:
            raise ConfigError(f"bridge {self.name!r} needs at least 2 member blocks")
        if self.vocab_size < self.draws_per_doc:
            raise ConfigError(
                f"bridge {self.name!r} pool ({self.vocab_size}) smaller than "
                f"draws per doc ({self.draws_per_doc})"
            )
        if self.draws_per_doc < 1:
            raise ConfigError(f"bridge {self.name!r} draws_per_doc must be >= 1")


@checked
class PlantSpec(NamedTuple):
    blocks: tuple[Block, ...]
    shared_terms: int = 0
    novel_block: Block | None = None
    noise_rate: float = 0.0
    seed: int = 0
    p1_year: int = 1996
    p2_year: int = 2001
    bridges: tuple[BridgeSpec, ...] = ()

    def check(self) -> None:
        if not self.blocks:
            raise ConfigError("need at least one block")
        names = [b.name for b in self.blocks]
        if self.novel_block is not None:
            if self.novel_block.docs_p1 != 0:
                raise ConfigError("the novel block cannot have first-period docs")
            names.append(self.novel_block.name)
        if len(set(names)) != len(names):
            raise ConfigError("block names must be unique")
        if not 0.0 <= self.noise_rate <= 0.2:
            raise ConfigError(f"noise_rate must be in [0, 0.2], got {self.noise_rate}")
        if self.shared_terms < 0:
            raise ConfigError(f"shared_terms must be >= 0, got {self.shared_terms}")
        if self.seed < 0:  # random.Random(-s) would replay seed s's corpus
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        regular = {b.name for b in self.blocks}
        for bridge in self.bridges:
            for member in bridge.members:
                if member not in regular:
                    raise ConfigError(
                        f"bridge {bridge.name!r} references unknown block {member!r}"
                    )
        bridge_names = [b.name for b in self.bridges]
        if len(set(bridge_names)) != len(bridge_names):
            raise ConfigError("bridge names must be unique")


def generate(spec: PlantSpec) -> tuple[list[Record], dict]:
    """Build the corpus and its ground truth from one seeded stream."""
    rng = random.Random(spec.seed)
    novel = (spec.novel_block,) if spec.novel_block is not None else ()

    term_block: dict[str, str] = {}
    term_category: dict[str, str] = {}

    def plant(pool: list[str], owner: str, category: str) -> list[str]:
        term_block.update(dict.fromkeys(pool, owner))
        term_category.update(dict.fromkeys(pool, category))
        return pool

    core: dict[str, list[str]] = {}
    tail: dict[str, list[str]] = {}
    for block in spec.blocks:
        terms = [f"{block.name}-t{j:03d}" for j in range(block.vocab_size)]
        c = max(4, block.vocab_size // 4)  # the high-frequency core
        core[block.name] = plant(terms[:c], block.name, CATEGORY_ESTABLISHED)
        tail[block.name] = plant(terms[c:], block.name, CATEGORY_UNPLANTED)
    novel_terms = []
    for block in novel:
        novel_terms = plant([f"{block.name}-n{j:03d}" for j in range(block.vocab_size)],
                            block.name, CATEGORY_UNUSUAL)
    shared_pool = plant([f"shared-s{j:03d}" for j in range(spec.shared_terms)],
                        "shared", CATEGORY_CROSS_SECTION)
    bridge_pool = {
        bridge.name: plant([f"{bridge.name}-b{j:03d}" for j in range(bridge.vocab_size)],
                           bridge.name, CATEGORY_UNPLANTED)
        for bridge in spec.bridges
    }

    # off-block noise draws come from the other regular blocks' vocabularies
    # (never the novel block, so its zero first-period frequency is exact)
    noise_pool = {
        block.name: sorted(
            t for other in spec.blocks if other.name != block.name
            for t in core[other.name] + tail[other.name]
        )
        for block in spec.blocks + novel
    }

    records: list[Record] = []
    doc_block: dict[str, str] = {}

    def emit(block: Block, period: str, year: int, count: int) -> None:
        for i in range(count):
            doc_id = f"{period}-{block.name}-{i:05d}"
            L = rng.randint(MIN_KEYWORDS, MAX_KEYWORDS)
            if block is spec.novel_block:
                kws = rng.sample(novel_terms, min(L, len(novel_terms)))
            else:
                n_core = min(math.ceil(L / 2), len(core[block.name]))
                n_tail = min(L - n_core, len(tail[block.name]))
                kws = rng.sample(core[block.name], n_core)
                kws += rng.sample(tail[block.name], n_tail)
            if shared_pool:
                kws.append(rng.choice(shared_pool))
            for bridge in spec.bridges:  # members are regular blocks only
                if block.name in bridge.members:
                    kws += rng.sample(bridge_pool[bridge.name], bridge.draws_per_doc)
            if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
                pool = noise_pool[block.name]
                if pool:
                    kws.append(rng.choice(pool))
            records.append(
                Record(
                    id=doc_id,
                    year=year,
                    keywords=tuple(sorted(set(kws))),
                    categories=(block.tag,) if block.tag else (),
                )
            )
            doc_block[doc_id] = block.name

    for block in spec.blocks:
        emit(block, "P1", spec.p1_year, block.docs_p1)
    for block in spec.blocks + novel:
        emit(block, "P2", spec.p2_year, block.docs_p2)

    truth = {
        "doc_block": doc_block,
        "term_block": term_block,
        "term_category": term_category,
        "blocks": [b.name for b in spec.blocks],
        "novel_block": spec.novel_block.name if spec.novel_block else None,
        "bridge_groups": [
            {"name": b.name, "members": list(b.members)} for b in spec.bridges
        ],
        "shared_terms": shared_pool,
        "seed": spec.seed,
    }
    return records, truth


def preset(name: str, seed: int = 0) -> PlantSpec:
    """Named corpus shapes used by the CLI and the verification suite."""
    tags = ["modeling", "instruments", "sequencing", "imaging", "assay",
            "genomics", "proteomics", "kinetics", "membranes", "signaling",
            "folding", "transport", "repair", "motility", "synthesis",
            "regulation", "binding", "expression", "structure", "dynamics"]
    # three blocks of vocab_size terms each, shared_terms, and optionally the novel block
    shapes = {"three-blocks": (30, 0, False), "diffusion-mix": (40, 12, True),
              "fresh-block": (30, 12, True)}
    if name in shapes:
        vocab_size, shared_terms, has_novel = shapes[name]
        return PlantSpec(
            blocks=tuple(
                Block(n, vocab_size=vocab_size, docs_p1=200, docs_p2=200, tag=t)
                for n, t in zip(("alpha", "beta", "gamma"), tags)
            ),
            shared_terms=shared_terms,
            novel_block=Block("delta", vocab_size=30, docs_p2=200, tag=tags[3]) if has_novel else None,
            seed=seed,
        )
    if name == "two-networks":
        # Tight blocks (every doc draws from just 8 block terms) keep each
        # block's cluster crisp, while heavy bridge draws push hub-sibling
        # axis cosines well above the default edge threshold.
        blocks = tuple(
            Block(f"block{i:02d}", vocab_size=8, docs_p1=120, docs_p2=120, tag=tags[i])
            for i in range(12)
        )
        bridges = (
            BridgeSpec("hub-a", members=tuple(f"block{i:02d}" for i in range(4)),
                       vocab_size=48, draws_per_doc=12),
            BridgeSpec("hub-b", members=tuple(f"block{i:02d}" for i in range(4, 8)),
                       vocab_size=48, draws_per_doc=12),
        )
        return PlantSpec(blocks=blocks, bridges=bridges, seed=seed)
    if name == "large-scale":
        return PlantSpec(
            blocks=tuple(
                Block(f"block{i:02d}", vocab_size=250, docs_p1=250, docs_p2=250,
                      tag=tags[i])
                for i in range(20)
            ),
            noise_rate=0.05,
            seed=seed,
        )
    raise ConfigError(f"unknown corpus preset {name!r}")
