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
from dataclasses import dataclass

from .corpus import Record
from .diffusion import (
    CATEGORY_CROSS_SECTION,
    CATEGORY_ESTABLISHED,
    CATEGORY_UNUSUAL,
)
from .errors import ConfigError, decode

CATEGORY_UNPLANTED = "unplanted"

MIN_KEYWORDS = 4
MAX_KEYWORDS = 8


@dataclass(frozen=True)
class Block:
    name: str
    vocab_size: int
    docs_p1: int = 0
    docs_p2: int = 0
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("block name must be non-empty")
        if self.vocab_size < MAX_KEYWORDS:
            raise ConfigError(
                f"block {self.name!r} vocabulary must hold at least "
                f"{MAX_KEYWORDS} terms, got {self.vocab_size}"
            )
        if self.docs_p1 < 0 or self.docs_p2 < 0:
            raise ConfigError(f"block {self.name!r} has negative doc counts")


@dataclass(frozen=True)
class BridgeSpec:
    name: str
    members: tuple[str, ...]
    vocab_size: int
    draws_per_doc: int = 2

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ConfigError(f"bridge {self.name!r} needs at least 2 member blocks")
        if self.vocab_size < self.draws_per_doc:
            raise ConfigError(
                f"bridge {self.name!r} pool ({self.vocab_size}) smaller than "
                f"draws per doc ({self.draws_per_doc})"
            )
        if self.draws_per_doc < 1:
            raise ConfigError(f"bridge {self.name!r} draws_per_doc must be >= 1")


@dataclass(frozen=True)
class PlantSpec:
    blocks: tuple[Block, ...]
    shared_terms: int = 0
    novel_block: Block | None = None
    noise_rate: float = 0.0
    seed: int = 0
    p1_year: int = 1996
    p2_year: int = 2001
    bridges: tuple[BridgeSpec, ...] = ()

    def __post_init__(self) -> None:
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


def _core_size(vocab_size: int) -> int:
    return max(4, vocab_size // 4)


def _block_terms(block: Block) -> list[str]:
    return [f"{block.name}-t{j:03d}" for j in range(block.vocab_size)]


def generate(spec: PlantSpec) -> tuple[list[Record], dict]:
    """Build the corpus and its ground truth from one seeded stream."""
    rng = random.Random(spec.seed)

    term_block: dict[str, str] = {}
    term_category: dict[str, str] = {}
    core: dict[str, list[str]] = {}
    tail: dict[str, list[str]] = {}
    for block in spec.blocks:
        terms = _block_terms(block)
        c = _core_size(block.vocab_size)
        core[block.name] = terms[:c]
        tail[block.name] = terms[c:]
        for t in terms[:c]:
            term_block[t] = block.name
            term_category[t] = CATEGORY_ESTABLISHED
        for t in terms[c:]:
            term_block[t] = block.name
            term_category[t] = CATEGORY_UNPLANTED

    novel_terms: list[str] = []
    if spec.novel_block is not None:
        novel_terms = [
            f"{spec.novel_block.name}-n{j:03d}"
            for j in range(spec.novel_block.vocab_size)
        ]
        for t in novel_terms:
            term_block[t] = spec.novel_block.name
            term_category[t] = CATEGORY_UNUSUAL

    shared_pool = [f"shared-s{j:03d}" for j in range(spec.shared_terms)]
    for t in shared_pool:
        term_block[t] = "shared"
        term_category[t] = CATEGORY_CROSS_SECTION

    bridge_pool: dict[str, list[str]] = {}
    bridges_of: dict[str, list[BridgeSpec]] = {b.name: [] for b in spec.blocks}
    for bridge in spec.bridges:
        pool = [f"{bridge.name}-b{j:03d}" for j in range(bridge.vocab_size)]
        bridge_pool[bridge.name] = pool
        for t in pool:
            term_block[t] = bridge.name
            term_category[t] = CATEGORY_UNPLANTED
        for member in bridge.members:
            bridges_of[member].append(bridge)

    # off-block noise draws come from the other regular blocks' vocabularies
    # (never the novel block, so its zero first-period frequency is exact)
    block_vocab = {b.name: _block_terms(b) for b in spec.blocks}
    noise_pool: dict[str, list[str]] = {}
    all_names = [b.name for b in spec.blocks]
    for name in all_names:
        noise_pool[name] = sorted(
            t for other in all_names if other != name for t in block_vocab[other]
        )
    if spec.novel_block is not None:
        noise_pool[spec.novel_block.name] = sorted(
            t for other in all_names for t in block_vocab[other]
        )

    records: list[Record] = []
    doc_block: dict[str, str] = {}

    def emit(block: Block, period: str, year: int, count: int, novel: bool) -> None:
        for i in range(count):
            doc_id = f"{period}-{block.name}-{i:05d}"
            L = rng.randint(MIN_KEYWORDS, MAX_KEYWORDS)
            if novel:
                kws = rng.sample(novel_terms, min(L, len(novel_terms)))
            else:
                n_core = min(math.ceil(L / 2), len(core[block.name]))
                n_tail = min(L - n_core, len(tail[block.name]))
                kws = rng.sample(core[block.name], n_core)
                kws += rng.sample(tail[block.name], n_tail)
            if shared_pool:
                kws.append(rng.choice(shared_pool))
            if not novel:
                for bridge in bridges_of[block.name]:
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
        emit(block, "P1", spec.p1_year, block.docs_p1, novel=False)
    for block in spec.blocks:
        emit(block, "P2", spec.p2_year, block.docs_p2, novel=False)
    if spec.novel_block is not None:
        emit(
            spec.novel_block,
            "P2",
            spec.p2_year,
            spec.novel_block.docs_p2,
            novel=True,
        )

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


def spec_from_dict(data: dict) -> PlantSpec:
    """Decode a PlantSpec from a JSON-shaped dict (CLI spec files)."""
    return decode(PlantSpec, data)


def preset(name: str, seed: int = 0) -> PlantSpec:
    """Named corpus shapes used by the CLI and the verification suite."""
    tags = ["modeling", "instruments", "sequencing", "imaging", "assay",
            "genomics", "proteomics", "kinetics", "membranes", "signaling",
            "folding", "transport", "repair", "motility", "synthesis",
            "regulation", "binding", "expression", "structure", "dynamics"]
    if name == "three-blocks":
        return PlantSpec(
            blocks=tuple(
                Block(n, vocab_size=30, docs_p1=200, docs_p2=200, tag=t)
                for n, t in (("alpha", tags[0]), ("beta", tags[1]), ("gamma", tags[2]))
            ),
            seed=seed,
        )
    if name == "diffusion-mix":
        return PlantSpec(
            blocks=tuple(
                Block(n, vocab_size=40, docs_p1=200, docs_p2=200, tag=t)
                for n, t in (("alpha", tags[0]), ("beta", tags[1]), ("gamma", tags[2]))
            ),
            shared_terms=12,
            novel_block=Block("delta", vocab_size=30, docs_p1=0, docs_p2=200, tag=tags[3]),
            seed=seed,
        )
    if name == "fresh-block":
        return PlantSpec(
            blocks=tuple(
                Block(n, vocab_size=30, docs_p1=200, docs_p2=200, tag=t)
                for n, t in (("alpha", tags[0]), ("beta", tags[1]), ("gamma", tags[2]))
            ),
            shared_terms=12,
            novel_block=Block("delta", vocab_size=30, docs_p1=0, docs_p2=200, tag=tags[3]),
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
