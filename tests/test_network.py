"""Network assembly and state projection."""
import pytest

from aodvcheck.awn import (ModelError, NodeAutomaton, NodeS, SubnetAutomaton,
                          SubnetS)
from aodvcheck.network import (GlobalView, build_net, closed_net, net_data,
                               node_states, proc_state, queue_contents)
from aodvcheck.protocol import BASE, aodv_init, build_table


def single_init(auto):
    (s,) = auto.init
    return s


def leaf_ips(net):
    """The node addresses of a built network, left to right."""
    if isinstance(net, SubnetAutomaton):
        return leaf_ips(net.left) + leaf_ips(net.right)
    return (net.ip,)


class TestTrees:
    def test_tree_of_right_nests(self):
        net = build_net([(1, [2]), (2, [1, 3]), (3, [2])])
        assert isinstance(net, SubnetAutomaton)
        assert isinstance(net.left, NodeAutomaton) and net.left.ip == 1
        assert isinstance(net.right, SubnetAutomaton)
        assert isinstance(net.right.left, NodeAutomaton)
        assert (net.right.left.ip, net.right.right.ip) == (2, 3)

    def test_addresses_in_tree_order(self):
        net = build_net([(4, []), (2, []), (9, [])])
        assert leaf_ips(net) == (4, 2, 9)

    def test_tree_nodes_keeps_neighbour_sets(self):
        leaves = node_states(single_init(build_net([(1, [2]), (2, [1])])))
        assert {ip: n.nbrs for ip, n in leaves.items()} == {
            1: frozenset([2]), 2: frozenset([1])}

    def test_single_node_tree(self):
        net = build_net([(7, [])])
        assert isinstance(net, NodeAutomaton) and net.ip == 7
        assert net.addresses == frozenset([7])

    def test_empty_tree_rejected(self):
        with pytest.raises(ModelError):
            build_net([])

    def test_well_formedness(self):
        # a build succeeds over distinct addresses and fails over a reused one
        assert build_net([(1, []), (2, [])]).addresses == frozenset([1, 2])
        with pytest.raises(ModelError):
            build_net([(1, []), (2, []), (1, [])])

    def test_build_rejects_duplicate_address(self):
        with pytest.raises(ModelError):
            build_net([(1, []), (1, [])])


class TestAssembly:
    def test_closed_net_has_unique_initial_state(self):
        auto = closed_net([(1, [2]), (2, [1])])
        assert len(auto.init) == 1

    def test_initial_state_shape(self):
        auto = closed_net([(1, [2]), (2, [1, 3]), (3, [2])])
        s = single_init(auto)
        assert isinstance(s, SubnetS)
        leaves = node_states(s)
        assert sorted(leaves) == [1, 2, 3]
        assert all(isinstance(n, NodeS) for n in leaves.values())
        assert leaves[2].nbrs == frozenset([1, 3])

    def test_nodes_start_fresh_with_empty_queues(self):
        auto = closed_net([(1, [2]), (2, [1])])
        s = single_init(auto)
        for ip, node in node_states(s).items():
            assert proc_state(node).data == aodv_init(ip)
            assert queue_contents(node) == ()

    def test_single_node_network(self):
        auto = closed_net([(5, [])])
        s = single_init(auto)
        assert isinstance(s, NodeS)
        assert node_states(s) == {5: s}

    def test_builds_over_one_table_have_equal_initial_states(self):
        # queue states compare their control terms by identity, so two
        # builds must share one queue table for their states to be equal
        nodes = [(1, [2]), (2, [1, 3]), (3, [2])]
        table = build_table(BASE)
        a, b = closed_net(nodes, BASE, table), closed_net(nodes, BASE, table)
        assert a.init == b.init

    def test_addresses_exported(self):
        auto = closed_net([(1, [2]), (2, [1, 3]), (3, [2])])
        assert auto.addresses == frozenset([1, 2, 3])


class TestProjection:
    def test_net_data_by_address(self):
        auto = closed_net([(1, [2]), (2, [1])])
        s = single_init(auto)
        data = net_data(s)
        assert sorted(data) == [1, 2]
        assert data[1].ip == 1
        assert data[2].ip == 2

    def test_global_view_defaults_unknown_addresses(self):
        view = GlobalView({1: aodv_init(1)})
        assert view[1].ip == 1
        assert view[9] == aodv_init(9)
        assert view.addresses() == (1,)
