"""Network assembly and state projection."""
import pytest

from aodvcheck.awn import ModelError, NodeS, SubnetS
from aodvcheck.network import (GlobalView, Node, Par, build_net, closed_net,
                               net_data, node_states, proc_state,
                               queue_contents, tree_addresses, tree_nodes,
                               tree_of, well_formed)
from aodvcheck.protocol import BASE, aodv_init, build_table


def single_init(auto):
    (s,) = auto.init
    return s


class TestTrees:
    def test_tree_of_right_nests(self):
        t = tree_of([(1, [2]), (2, [1, 3]), (3, [2])])
        assert isinstance(t, Par)
        assert isinstance(t.left, Node) and t.left.ip == 1
        assert isinstance(t.right, Par)
        assert t.right.left.ip == 2
        assert t.right.right.ip == 3

    def test_addresses_in_tree_order(self):
        t = tree_of([(4, []), (2, []), (9, [])])
        assert tree_addresses(t) == (4, 2, 9)

    def test_tree_nodes_keeps_neighbour_sets(self):
        t = tree_of([(1, [2]), (2, [1])])
        assert tree_nodes(t) == ((1, frozenset([2])), (2, frozenset([1])))

    def test_single_node_tree(self):
        t = tree_of([(7, [])])
        assert isinstance(t, Node)
        assert tree_addresses(t) == (7,)

    def test_empty_tree_rejected(self):
        with pytest.raises(ModelError):
            tree_of([])

    def test_well_formedness(self):
        good = tree_of([(1, []), (2, [])])
        bad = Par(Node(1, frozenset()), Node(1, frozenset()))
        assert well_formed(good)
        assert not well_formed(bad)

    def test_build_rejects_duplicate_address(self):
        bad = Par(Node(1, frozenset()), Node(1, frozenset()))
        with pytest.raises(ModelError):
            build_net(bad)


class TestAssembly:
    def test_closed_net_has_unique_initial_state(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1])]))
        assert len(auto.init) == 1

    def test_initial_state_shape(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1, 3]), (3, [2])]))
        s = single_init(auto)
        assert isinstance(s, SubnetS)
        leaves = node_states(s)
        assert sorted(leaves) == [1, 2, 3]
        assert all(isinstance(n, NodeS) for n in leaves.values())
        assert leaves[2].nbrs == frozenset([1, 3])

    def test_nodes_start_fresh_with_empty_queues(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1])]))
        s = single_init(auto)
        for ip, node in node_states(s).items():
            assert proc_state(node).data == aodv_init(ip)
            assert queue_contents(node) == ()

    def test_single_node_network(self):
        auto = closed_net(tree_of([(5, [])]))
        s = single_init(auto)
        assert isinstance(s, NodeS)
        assert node_states(s) == {5: s}

    def test_builds_over_one_table_have_equal_initial_states(self):
        # queue states compare their control terms by identity, so two
        # builds must share one queue table for their states to be equal
        tree = tree_of([(1, [2]), (2, [1, 3]), (3, [2])])
        table = build_table(BASE)
        a, b = closed_net(tree, BASE, table), closed_net(tree, BASE, table)
        assert a.init == b.init

    def test_addresses_exported(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1, 3]), (3, [2])]))
        assert auto.addresses == frozenset([1, 2, 3])


class TestProjection:
    def test_net_data_by_address(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1])]))
        s = single_init(auto)
        data = net_data(s)
        assert sorted(data) == [1, 2]
        assert data[1].ip == 1
        assert data[2].ip == 2

    def test_net_data_is_cached_per_state(self):
        auto = closed_net(tree_of([(1, [2]), (2, [1])]))
        s = single_init(auto)
        assert net_data(s) is net_data(s)

    def test_global_view_defaults_unknown_addresses(self):
        view = GlobalView({1: aodv_init(1)})
        assert view[1].ip == 1
        assert view[9] == aodv_init(9)
        assert view.addresses() == (1,)
