"""Tests for the overlay graph and tracker candidate ranking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.topology import OverlayGraph, rank_candidate_columns


def rank(table, joiner_position, candidates, **kwargs):
    """Rank ``candidates`` at the positions ``table`` gives (``None``: a seed)."""
    ids = np.array(candidates, dtype=np.int64)
    positions = np.array([table.get(p) for p in candidates], dtype=float)
    return rank_candidate_columns(ids, positions, joiner_position, **kwargs)


class TestRankCandidates:
    def test_orders_by_distance(self):
        table = {1: 100.0, 2: 50.0, 3: 75.0}
        ranked = rank(table, 60.0, [1, 2, 3])
        assert ranked == [2, 3, 1]

    def test_seeds_first_by_default(self):
        table = {1: 61.0, 2: None}  # peer 2 is a seed
        ranked = rank(table, 60.0, [1, 2])
        assert ranked[0] == 2

    def test_seed_rank_random_can_demote_seeds(self):
        table = {i: 60.0 + i for i in range(1, 8)}
        table[99] = None  # one seed among watchers
        positions = [
            rank(
                table,
                60.0,
                list(table),
                rng=np.random.default_rng(s),
                seed_rank="random",
            ).index(99)
            for s in range(20)
        ]
        assert len(set(positions)) > 1  # rank varies
        assert max(positions) > 0  # sometimes not first

    def test_unknown_seed_rank_rejected(self):
        with pytest.raises(ValueError):
            rank({1: None}, 0.0, [1], seed_rank="bogus")

    def test_deterministic_without_rng(self):
        table = {1: 10.0, 2: 10.0, 3: 30.0}
        a = rank(table, 10.0, [3, 2, 1])
        b = rank(table, 10.0, [1, 2, 3])
        assert a == b


class TestOverlayGraph:
    def test_connect_and_neighbors(self):
        g = OverlayGraph(degree_target=5)
        g.connect(1, 2)
        assert g.neighbors(1) == {2}
        assert g.neighbors(2) == {1}
        assert g.edge_count() == 1

    def test_self_link_rejected(self):
        g = OverlayGraph()
        with pytest.raises(ValueError):
            g.connect(1, 1)

    def test_connect_idempotent(self):
        g = OverlayGraph()
        g.connect(1, 2)
        g.connect(1, 2)
        assert g.degree(1) == 1

    def test_disconnect(self):
        g = OverlayGraph()
        g.connect(1, 2)
        g.disconnect(1, 2)
        assert g.neighbors(1) == set()

    def test_remove_node_severs_links(self):
        g = OverlayGraph()
        g.connect(1, 2)
        g.connect(1, 3)
        lost = g.remove_node(1)
        assert lost == {2, 3}
        assert 1 not in g
        assert g.neighbors(2) == set()

    def test_bootstrap_respects_target(self):
        g = OverlayGraph(degree_target=3)
        connected = g.bootstrap(1, [10, 11, 12, 13, 14])
        assert connected == [10, 11, 12]
        assert g.degree(1) == 3

    def test_bootstrap_skips_self_and_existing(self):
        g = OverlayGraph(degree_target=4)
        g.connect(1, 10)
        connected = g.bootstrap(1, [1, 10, 11])
        assert connected == [11]

    def test_wants_more_and_deficit(self):
        g = OverlayGraph(degree_target=2)
        g.add_node(1)
        assert g.wants_more(1)
        assert g.deficit(1) == 2
        g.connect(1, 2)
        g.connect(1, 3)
        assert not g.wants_more(1)
        assert g.deficit(1) == 0

    def test_degree_can_exceed_target_via_peers(self):
        """Accepting inbound links may push a node over target (soft cap)."""
        g = OverlayGraph(degree_target=1)
        g.bootstrap(1, [99])
        g.bootstrap(2, [99])
        assert g.degree(99) == 2

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            OverlayGraph(degree_target=0)

    def test_nodes_and_len(self):
        g = OverlayGraph()
        g.add_node(1)
        g.add_node(2)
        assert g.nodes() == {1, 2}
        assert len(g) == 2
