import math

import numpy as np
import pytest

from diachron.artifacts import ClusterLink, Linkage
from diachron.diachrony import STATUS_NEW, STATUS_ROOTED, cross_table
from diachron.diffusion import CATEGORIES, TermStats

from oracles import link_products, sparse_rows


def _stats(term, category):
    return TermStats(
        term=term,
        df_p1=1,
        df_p2=1,
        tfidf=1.0,
        gini=0.1,
        category=category,
    )


def _link(p1, p2, rho):
    """link_periods over the products of the dense rows p1 and p2, passed as sparse axes."""
    return link_products(sparse_rows(p1), sparse_rows(p2), [f"c{c}" for c in range(len(p2))], rho)


class TestLinkPeriods:
    def test_identity_linkage_roots_every_cluster_onto_its_twin(self):
        axes = np.eye(3)
        linkage = _link(axes, axes, rho=0.3)
        assert [link.status for link in linkage.links] == [STATUS_ROOTED] * 3
        assert [link.label for link in linkage.links] == ["c0", "c1", "c2"]
        for c, link in enumerate(linkage.links):
            assert link.best_parent == (c, 1.0)

    def test_disjoint_support_is_new(self):
        p1 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        p2 = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        linkage = _link(p1, p2, rho=0.3)
        assert [link.status for link in linkage.links] == [STATUS_NEW, STATUS_NEW]
        assert all(link.best_parent is None for link in linkage.links)
        assert all(link.parents == () for link in linkage.links)

    def test_parents_sorted_by_similarity_then_id(self):
        s = 1.0 / math.sqrt(2.0)
        p1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [s, s, 0.0]])
        p2 = np.array([[s, s, 0.0]])
        linkage = _link(p1, p2, rho=0.5)
        (link,) = linkage.links
        assert link.status == STATUS_ROOTED
        # parent 2 is identical (sim 1.0); parents 0 and 1 tie at 0.7071
        # and must appear in id order, each cosine to 6 places
        assert [pid for pid, _ in link.parents] == [2, 0, 1]
        assert link.parents[0][1] == 1.0
        assert link.parents[1][1] == round(s, 6)
        assert link.parents[2][1] == round(s, 6)
        assert link.best_parent == link.parents[0]

    def test_rho_one_requires_identical_axes(self):
        s = 1.0 / math.sqrt(2.0)
        p1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        p2 = np.array([[1.0, 0.0], [s, s]])
        linkage = _link(p1, p2, rho=1.0)
        assert linkage.links[0].status == STATUS_ROOTED
        assert linkage.links[0].parents == ((0, 1.0),)
        assert linkage.links[1].status == STATUS_NEW

    def test_tiny_rho_roots_any_overlap(self):
        p1 = np.array([[1.0, 0.0, 0.0]])
        overlap = np.array([[0.999, 0.0447, 0.0]])
        overlap /= np.linalg.norm(overlap)
        p2 = np.vstack([overlap, [[0.0, 0.0, 1.0]]])
        linkage = _link(p1, p2, rho=1e-9)
        assert linkage.links[0].status == STATUS_ROOTED
        assert linkage.links[1].status == STATUS_NEW  # exactly zero overlap

    def test_similarities_capped_at_one(self):
        axes = np.array([[0.6, 0.8], [0.6, 0.8]])
        linkage = _link(axes, axes, rho=0.2)
        for link in linkage.links:
            for _, sim in link.parents:
                assert sim <= 1.0

    def test_relabeling_p1_clusters_permutes_parent_ids(self):
        rng = np.random.default_rng(21)
        a1 = rng.random((4, 5))
        a2 = rng.random((3, 5))
        base = _link(a1, a2, rho=0.3)
        perm = [2, 0, 3, 1]  # new position of old cluster i is perm.index(i)
        permuted = _link(a1[perm], a2, rho=0.3)
        for before, after in zip(base.links, permuted.links):
            assert before.status == after.status
            mapped = sorted(
                ((perm.index(pid), sim) for pid, sim in before.parents),
                key=lambda p: (-p[1], p[0]),
            )
            assert [pid for pid, _ in after.parents] == [pid for pid, _ in mapped]
            for (_, sim_a), (_, sim_b) in zip(after.parents, mapped):
                assert sim_a == pytest.approx(sim_b, abs=1e-12)



def _linkage(statuses, rho=0.3):
    links = tuple(
        ClusterLink(
            cluster_id=c,
            label=f"c{c}",
            status=status,
            parents=((0, 0.9),) if status == STATUS_ROOTED else (),
            best_parent=(0, 0.9) if status == STATUS_ROOTED else None,
        )
        for c, status in enumerate(statuses)
    )
    return Linkage(rho=rho, links=links)


class TestCrossTable:
    def test_all_rooted_all_established(self):
        linkage = _linkage([STATUS_ROOTED, STATUS_ROOTED])
        top_terms = [["a", "b"], ["c"]]
        stats = [_stats(t, "established") for t in "abc"]
        tab = cross_table(linkage, top_terms, stats)
        assert tab.shares[STATUS_ROOTED] == {
            "established": 1.0,
            "unusual": 0.0,
            "cross_section": 0.0,
            "unclassified": 0.0,
        }
        assert tab.shares[STATUS_NEW] is None
        assert tab.n_terms == {STATUS_ROOTED: 3, STATUS_NEW: 0}

    def test_shares_split_by_status(self):
        linkage = _linkage([STATUS_ROOTED, STATUS_NEW])
        top_terms = [["a", "b"], ["c", "d"]]
        stats = [
            _stats("a", "established"),
            _stats("b", "cross_section"),
            _stats("c", "unusual"),
            _stats("d", "unusual"),
        ]
        tab = cross_table(linkage, top_terms, stats)
        assert tab.shares[STATUS_ROOTED]["established"] == 0.5
        assert tab.shares[STATUS_ROOTED]["cross_section"] == 0.5
        assert tab.shares[STATUS_ROOTED]["unusual"] == 0.0
        assert tab.shares[STATUS_NEW]["unusual"] == 1.0
        assert tab.n_terms == {STATUS_ROOTED: 2, STATUS_NEW: 2}

    def test_pooling_is_a_multiset(self):
        linkage = _linkage([STATUS_ROOTED, STATUS_ROOTED])
        top_terms = [["a", "b"], ["a", "c"]]
        stats = [
            _stats("a", "established"),
            _stats("b", "unusual"),
            _stats("c", "unusual"),
        ]
        tab = cross_table(linkage, top_terms, stats)
        assert tab.n_terms[STATUS_ROOTED] == 4
        assert tab.shares[STATUS_ROOTED]["established"] == 0.5

    def test_rows_sum_to_one_when_non_empty(self):
        linkage = _linkage([STATUS_ROOTED, STATUS_NEW])
        top_terms = [["a", "b", "c"], ["d", "e"]]
        categories = ["established", "unusual", "cross_section", "unclassified", "unusual"]
        stats = [_stats(t, c) for t, c in zip("abcde", categories)]
        tab = cross_table(linkage, top_terms, stats)
        for status in (STATUS_ROOTED, STATUS_NEW):
            row = tab.shares[status]
            assert row is not None
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
            assert set(row) == set(CATEGORIES)
            assert all(0.0 <= v <= 1.0 for v in row.values())

