"""Term construction and control-state labelling."""
import pytest

from aodvcheck.awn import (Assign, Broadcast, Call, Choice, Deliver, Guard,
                           Label, ModelError, ProcessTable, ProcState,
                           Receive, Send, Unicast, choice, label_process, seq)


def _asgn():
    return Assign(lambda xi: xi)


def _dlv():
    return Deliver(lambda xi: "out")


def offsets(term, table=None):
    t = ProcessTable({"p": term}) if table is None else table
    return sorted(l.offset for l in t.all_labels())


class TestSeq:
    def test_chains_prefixes_in_order(self):
        t = seq(_asgn(), _dlv(), Call("p"))
        assert isinstance(t, Assign)
        assert isinstance(t.cont, Deliver)
        assert isinstance(t.cont.cont, Call)

    def test_rejects_choice_in_the_middle(self):
        with pytest.raises(ModelError):
            seq(choice(_asgn(), _dlv()), Call("p"))

    def test_rejects_call_in_the_middle(self):
        with pytest.raises(ModelError):
            seq(Call("p"), Call("q"))

    def test_rejects_already_chained_prefix(self):
        inner = Assign(lambda xi: xi, cont=Call("p"))
        with pytest.raises(ModelError):
            seq(inner, Call("q"))


class TestLabelling:
    def test_linear_body_gets_contiguous_offsets(self):
        body = label_process("p", seq(_asgn(), _asgn(), _dlv(), Call("p")))
        assert offsets(body) == [0, 1, 2]
        assert body.label == Label("p", 0)
        assert body.cont.label == Label("p", 1)
        assert body.cont.cont.label == Label("p", 2)

    def test_choice_branches_share_the_entry_label(self):
        body = label_process("p", choice(
            seq(_asgn(), _asgn(), Call("p")),
            seq(_dlv(), Call("p")),
        ))
        assert body.left.label == Label("p", 0)
        assert body.right.label == Label("p", 0)
        assert body.left.cont.label == Label("p", 1)
        assert offsets(body) == [0, 1]

    def test_unicast_labels_both_branches(self):
        body = label_process("p", Unicast(
            lambda xi: 2, lambda xi: "m",
            ok=seq(_dlv(), Call("p")),
            fail=seq(_asgn(), _dlv(), Call("p")),
        ))
        assert body.label == Label("p", 0)
        assert body.ok.label == Label("p", 1)
        assert body.fail.label == Label("p", 2)
        assert body.fail.cont.label == Label("p", 3)
        assert offsets(body) == [0, 1, 2, 3]

    def test_call_consumes_no_label(self):
        body = label_process("p", seq(_asgn(), Call("p")))
        assert offsets(body) == [0]

    def test_nested_choice_heads_collapse(self):
        body = label_process("p", choice(
            seq(_asgn(), Call("p")),
            seq(_dlv(), Call("p")),
            seq(Assign(lambda xi: xi + 1), Call("p")),
        ))
        table = ProcessTable({"p": body})
        heads = table.labels(body)
        assert heads == frozenset([Label("p", 0)])

    def test_label_str_is_readable(self):
        assert str(Label("rreq", 7)) == "rreq-:7"


class TestTableValidation:
    def test_incomplete_prefix_is_rejected(self):
        with pytest.raises(ModelError):
            ProcessTable({"p": label_process("p", Assign(lambda xi: xi))})

    def test_unknown_call_target_is_rejected(self):
        with pytest.raises(ModelError):
            ProcessTable({"p": label_process("p", seq(_asgn(), Call("q")))})

    def test_unicast_needs_both_branches(self):
        with pytest.raises(ModelError):
            ProcessTable({"p": label_process("p", Unicast(
                lambda xi: 2, lambda xi: "m", ok=Call("p")))})


class TestLabelSets:
    def test_labels_of_call_are_the_callees(self):
        p = label_process("p", seq(_asgn(), Call("q")))
        q = label_process("q", seq(_dlv(), Call("p")))
        table = ProcessTable({"p": p, "q": q})
        assert table.labels(Call("q")) == frozenset([Label("q", 0)])

    def test_labels_cut_call_cycles(self):
        p = label_process("p", choice(seq(_asgn(), Call("p")), Call("p")))
        table = ProcessTable({"p": p})
        # the left head carries the label; the bare-call branch adds the
        # same set again, the cycle contributing nothing new
        assert table.labels(p) == frozenset([Label("p", 0)])

    def test_all_labels_spans_processes(self):
        p = label_process("p", seq(_asgn(), Call("q")))
        q = label_process("q", seq(_dlv(), _dlv(), Call("p")))
        table = ProcessTable({"q": q, "p": p})
        assert sorted((l.pname, l.offset) for l in table.all_labels()) == [
            ("p", 0), ("q", 0), ("q", 1)]


class TestCallEquality:
    # Every call of a process stands for its entry location, so calls
    # compare by the name they call; other terms compare by identity.
    def test_calls_of_one_name_are_equal(self):
        a, b = Call("x"), Call("x")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert Call("x") != Call("y")

    def test_process_states_at_equal_calls_are_equal(self):
        table = ProcessTable({"x": label_process("x", seq(_asgn(), Call("x")))})
        a = ProcState(("d", 1), Call("x"), table)
        b = ProcState(("d", 1), Call("x"), table)
        assert a.term is not b.term
        assert a == b and hash(a) == hash(b)
        assert a != ProcState(("d", 2), Call("x"), table)

    def test_other_terms_compare_by_identity(self):
        a, b = _asgn(), _asgn()
        assert a != b
