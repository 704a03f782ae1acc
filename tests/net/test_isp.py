"""Tests for ISP membership tracking: the id-indexed ISP column."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.isp import ISPTopology


def placed_ids(topo: ISPTopology) -> list:
    """The ids the column holds an ISP for, ascending."""
    return np.flatnonzero(topo.column() >= 0).tolist()


class TestMembership:
    def test_explicit_assignment(self):
        topo = ISPTopology(3)
        assert topo.add_peer(1, isp=2) == 2
        assert topo.isp_of(1) == 2
        assert topo.column()[1] == 2

    def test_auto_assignment_balances(self):
        topo = ISPTopology(3)
        for peer in range(9):
            topo.add_peer(peer)
        assert topo.sizes() == [3, 3, 3]

    def test_auto_assignment_fills_least_populated(self):
        topo = ISPTopology(2)
        topo.add_peer(1, isp=0)
        topo.add_peer(2, isp=0)
        assert topo.add_peer(3) == 1  # ISP 1 is emptier

    def test_ties_go_to_the_lowest_index(self):
        topo = ISPTopology(4)
        topo.add_peer(10, isp=0)
        topo.add_peer(11, isp=2)
        # ISPs 1 and 3 tie at zero: the lower index wins, then 3.
        assert topo.add_peer(12) == 1
        assert topo.add_peer(13) == 3
        # Every ISP holds one peer: back to ISP 0.
        assert topo.add_peer(14) == 0
        topo.remove_peer(11)
        assert topo.add_peer(15) == 2

    def test_duplicate_peer_rejected(self):
        topo = ISPTopology(2)
        topo.add_peer(1)
        with pytest.raises(ValueError):
            topo.add_peer(1)
        assert topo.sizes() == [1, 0]

    def test_negative_id_rejected(self):
        topo = ISPTopology(2)
        with pytest.raises(ValueError):
            topo.add_peer(-1)
        assert topo.sizes() == [0, 0]

    def test_bad_isp_index_rejected(self):
        topo = ISPTopology(2)
        with pytest.raises(ValueError):
            topo.add_peer(1, isp=5)
        with pytest.raises(ValueError):
            topo.add_peer(1, isp=-1)
        assert placed_ids(topo) == []

    def test_needs_at_least_one_isp(self):
        with pytest.raises(ValueError):
            ISPTopology(0)

    def test_remove_peer(self):
        topo = ISPTopology(2)
        topo.add_peer(1, isp=0)
        topo.remove_peer(1)
        assert topo.column()[1] == -1
        assert topo.sizes() == [0, 0]
        assert topo.add_peer(1, isp=1) == 1  # a removed id may be placed again

    def test_remove_unknown_peer_raises(self):
        with pytest.raises(KeyError):
            ISPTopology(2).remove_peer(42)

    def test_placed_ids(self):
        topo = ISPTopology(2)
        topo.add_peer(2)
        topo.add_peer(1)
        assert placed_ids(topo) == [1, 2]
        assert sum(topo.sizes()) == 2

    def test_entries_survive_growth(self):
        topo = ISPTopology(5)
        for peer in range(0, 60, 3):
            topo.add_peer(peer)
        before = topo.isps_of(np.arange(0, 60, 3))
        topo.add_peer(64)  # one past the initial 64 ids
        topo.add_peer(1000)  # past double that
        assert len(topo.column()) > 1000
        assert topo.isps_of(np.arange(0, 60, 3)).tolist() == before.tolist()
        assert placed_ids(topo) == list(range(0, 60, 3)) + [64, 1000]
        assert topo.sizes() == np.bincount(
            topo.column()[placed_ids(topo)], minlength=5
        ).tolist()


def unplaced_topology() -> ISPTopology:
    """Peers 0-3 placed, then peer 2 removed."""
    topo = ISPTopology(2)
    for peer in range(4):
        topo.add_peer(peer)
    topo.remove_peer(2)
    return topo


#: Ids that are not placed: negative, past the column's end, removed.
UNPLACED = [-1, 64, 10**6, 2]


class TestQueries:
    def test_same_isp(self):
        topo = ISPTopology(2)
        topo.add_peer(1, isp=0)
        topo.add_peer(2, isp=0)
        topo.add_peer(3, isp=1)
        assert topo.isps_of(np.array([1, 2, 3])).tolist() == [0, 0, 1]
        assert topo.isp_of(1) == topo.isp_of(2) != topo.isp_of(3)

    def test_column_is_read_only(self):
        topo = ISPTopology(2)
        topo.add_peer(1, isp=0)
        column = topo.column()
        with pytest.raises(ValueError):
            column[1] = 1
        assert topo.isp_of(1) == 0
        topo.remove_peer(1)
        assert column[1] == -1  # a view: it follows the topology's writes

    def test_all_peers(self):
        topo = ISPTopology(3)
        topo.add_peer(5, isp=1)
        topo.add_peer(6, isp=2)
        assert placed_ids(topo) == [5, 6]
        assert topo.column()[[5, 6]].tolist() == [1, 2]

    def test_isp_of_unknown_raises(self):
        with pytest.raises(KeyError):
            ISPTopology(2).isp_of(1)

    def test_isps_of_empty(self):
        isps = ISPTopology(2).isps_of(np.empty(0, dtype=np.int64))
        assert isps.dtype == np.int64 and len(isps) == 0

    @pytest.mark.parametrize("peer", UNPLACED)
    def test_isp_of_unplaced_raises(self, peer):
        with pytest.raises(KeyError):
            unplaced_topology().isp_of(peer)

    @pytest.mark.parametrize("peer", UNPLACED)
    def test_isps_of_unplaced_raises(self, peer):
        with pytest.raises(KeyError, match=f"peer {peer} "):
            unplaced_topology().isps_of(np.array([0, peer, 1]))

    @pytest.mark.parametrize("peer", UNPLACED)
    def test_remove_unplaced_raises(self, peer):
        topo = unplaced_topology()
        with pytest.raises(KeyError):
            topo.remove_peer(peer)
        assert topo.sizes() == [1, 2]
