import signal

import pytest

from htforge.aig import (
    AigBuilder,
    aig_simulate,
    cone_tt,
    enumerate_cuts,
    export_aiger,
    from_aig,
    lit,
    strash,
    strip_unreachable,
    to_aig,
    tt_var,
)
from htforge.netlist import Gate, Netlist, parse_netlist, simulate
from htforge.restructure import _Work

from conftest import (all_stimuli, exhaustive_signatures, po_signatures,
                      random_netlist, truth_signature)


def _netlist(src):
    return parse_netlist(src)


def test_to_aig_not_is_pure_complement():
    n = _netlist("module m(a,y); input a; output y; not g(y,a); endmodule")
    g = to_aig(n)
    assert g.n_ands == 0
    (name, l) = g.pos[0]
    assert name == "y" and (l & 1) == 1 and (l >> 1) == 1  # PI node, inverted


def test_to_aig_or_is_one_and():
    n = _netlist("module m(a,b,y); input a,b; output y; or g(y,a,b); endmodule")
    g = to_aig(n)
    assert g.n_ands == 1
    assert (g.pos[0][1] & 1) == 1  # DeMorgan: inverted AND of inverted PIs


def test_to_aig_xor_three_ands_equivalent():
    n = _netlist("module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    g = to_aig(n)
    assert g.n_ands == 3
    sig = po_signatures(g, exhaustive_signatures(g), 4)[0]
    assert sig == 0b0110  # rows (a,b) = 00,01,10,11


def test_to_aig_kinput_gate_node_count():
    for k in (2, 3, 5, 8):
        ins = ", ".join(f"i{j}" for j in range(k))
        for kind in ("and", "or"):
            n = _netlist(f"module m({ins}, y); input {ins}; output y; "
                         f"{kind} g(y, {ins}); endmodule")
            assert to_aig(n).n_ands == k - 1


def test_strash_merges_duplicates():
    n = _netlist("module m(a,b,x,y); input a,b; output x,y;"
                 " and g1(x,a,b); and g2(y,a,b); endmodule")
    g = to_aig(n)
    assert g.n_ands == 2
    s = strash(g)
    assert s.n_ands == 1
    assert s.pos[0][1] == s.pos[1][1]


def test_strash_merges_commuted_fanins():
    n = _netlist("module m(a,b,x,y); input a,b; output x,y;"
                 " and g1(x,a,b); and g2(y,b,a); endmodule")
    assert strash(to_aig(n)).n_ands == 1


def test_strash_idempotent_node_for_node():
    for seed in (1, 5, 9):
        g = strash(to_aig(random_netlist(seed)))
        g2 = strash(g)
        assert g.fan0 == g2.fan0 and g.fan1 == g2.fan1
        assert g.pos == g2.pos


def test_strash_constant_propagation():
    n = _netlist("module m(a,y); input a; output y;"
                 " and g(y, a, 1'b0); endmodule")
    s = strash(to_aig(n))
    assert s.n_ands == 0
    assert s.pos[0][1] == 1  # constant false literal


def test_levels_definition_and_strash_invariance():
    for seed in (2, 4):
        g = strash(to_aig(random_netlist(seed)))
        for j in range(g.n_ands):
            node = 1 + g.n_pis + j
            f0, f1 = g.fanins(node)
            assert g.levels[node] == 1 + max(g.levels[f0 >> 1],
                                             g.levels[f1 >> 1])
        assert strash(g).max_level == g.max_level


def test_from_aig_groups_and_chain():
    gates = []
    prev = "i0"
    for k in (1, 2, 3):
        out = f"w{k}"
        gates.append(Gate("AND", out, (prev, f"i{k}"), f"g{k}"))
        prev = out
    n = Netlist("chain", ("i0", "i1", "i2", "i3"), (prev,), tuple(gates))
    g = strash(to_aig(n))
    grouped = from_aig(g, group_multi_input_and=True)
    ands = [x for x in grouped.gates if x.kind == "AND"]
    assert len(ands) == 1 and len(ands[0].inputs) == 4
    flat = from_aig(g, group_multi_input_and=False)
    assert len([x for x in flat.gates if x.kind == "AND"]) == 3


def test_from_aig_xor_cone_equivalent():
    n = _netlist("module m(a,b,c,y); input a,b,c; output y;"
                 " xor g(y,a,b,c); endmodule")
    back = from_aig(strash(to_aig(n)))
    assert truth_signature(back) == truth_signature(n)
    assert all(x.kind in ("AND", "NOT", "BUF") for x in back.gates)


def test_aig_round_trip_exhaustive():
    for seed in range(15):
        n = random_netlist(seed * 3 + 2)
        if len(n.inputs) > 10:
            continue
        back = from_aig(strash(to_aig(n)))
        assert back.inputs == n.inputs and back.outputs == n.outputs
        assert truth_signature(back) == truth_signature(n)
        grouped = from_aig(strash(to_aig(n)), group_multi_input_and=True)
        assert truth_signature(grouped) == truth_signature(n)


def test_aig_simulate_bitwise_examples():
    b = AigBuilder(["a", "b"])
    out = b.and2(b.pi(0), b.pi(1))
    b.add_po("y", out)
    g = b.build()
    sigs = aig_simulate(g, [0b1100, 0b1010], 4)
    assert sigs[3] == 0b1000
    comp = po_signatures(g, sigs, 4)
    assert comp[0] == 0b1000
    # complemented edge of a
    b2 = AigBuilder(["a"])
    b2.add_po("y", b2.pi(0) ^ 1)
    assert po_signatures(b2.build(), aig_simulate(b2.build(), [0b1100], 4), 4)[0] == 0b0011


def test_aig_simulate_matches_scalar_oracle():
    n = random_netlist(77, n_pis=8, n_gates=30)
    g = to_aig(n)
    sigs = exhaustive_signatures(g)
    pos = po_signatures(g, sigs, 256)
    for row, stim in enumerate(all_stimuli(n)):
        vals = simulate(n, stim)
        for k, po in enumerate(n.outputs):
            assert (pos[k] >> row) & 1 == vals[po]


def test_aig_simulate_width_checks():
    b = AigBuilder(["a", "b"])
    b.add_po("y", b.and2(b.pi(0), b.pi(1)))
    g = b.build()
    with pytest.raises(ValueError):
        aig_simulate(g, [0b11], 4)
    with pytest.raises(ValueError):
        aig_simulate(g, [0b111110, 0b1], 4)


def _cut_oracle_value(g, root, leaves, assignment):
    """Independent recursive evaluation with the leaves pinned."""
    def val(node):
        if node == 0:
            return 1
        if node in assignment:
            return assignment[node]
        f0, f1 = g.fanins(node)
        a = val(f0 >> 1) ^ (f0 & 1)
        b = val(f1 >> 1) ^ (f1 & 1)
        return a & b
    return val(root)


def test_cut_truth_tables_match_cone_oracle():
    n = random_netlist(13, n_pis=6, n_gates=25)
    g = strash(to_aig(n))
    cuts = enumerate_cuts(g, k=4, max_cuts=6)
    w = _Work(g)
    checked = 0
    for node in range(1 + g.n_pis, g.n_nodes):
        for leaves in cuts[node]:
            tt = w.cone_tt(node, leaves)
            assert tt is not None
            for row in range(1 << len(leaves)):
                assignment = {leaf: (row >> j) & 1
                              for j, leaf in enumerate(leaves)}
                expect = _cut_oracle_value(g, node, leaves, assignment)
                assert (tt >> row) & 1 == expect
                checked += 1
    assert checked > 100


def test_cut_leaf_bound_respected():
    g = strash(to_aig(random_netlist(21, n_pis=8, n_gates=40)))
    cuts = enumerate_cuts(g, k=4, max_cuts=8)
    assert cuts[0] == ()
    for node in range(1, 1 + g.n_pis):
        assert cuts[node] == ((node,),)
    for node in range(1 + g.n_pis, g.n_nodes):
        assert 1 <= len(cuts[node]) <= 8
        assert all(len(c) <= 4 and list(c) == sorted(c) for c in cuts[node])
        assert cuts[node][-1] == (node,)


def test_fanins_rejects_pi_and_constant():
    # a PI or constant node used to index fan0/fan1 from the end and
    # return some later node's fanins
    g = strash(to_aig(random_netlist(3, n_pis=6, n_gates=20)))
    for node in range(1 + g.n_pis):
        with pytest.raises(ValueError):
            g.fanins(node)
    assert g.fanins(1 + g.n_pis) == (g.fan0[0], g.fan1[0])


def test_cone_walk_returns_none_when_leaves_miss_a_pi():
    # with the wrong fanins of a PI the cone walk never reached the
    # missing leaf and ran without bound
    def hang(signum, frame):
        raise TimeoutError("cone walk did not terminate")

    g = strash(to_aig(random_netlist(3, n_pis=6, n_gates=20)))
    w = _Work(g)
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        for _, l in g.pos:
            root = l >> 1
            if not g.is_and(root):
                continue
            pis = tuple(1 + k for k in range(g.n_pis)
                        if w.support(root) >> k & 1)
            walk = (w.fan0, w.fan1, w.first_and, w.dead, root)
            assert cone_tt(*walk, pis) is not None
            for drop in pis:
                leaves = tuple(p for p in pis if p != drop)
                assert cone_tt(*walk, leaves) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_strip_unreachable_drops_dangling():
    n = _netlist("module m(a,b,y); input a,b; output y; wire d;"
                 " and g1(y,a,b); or g2(d,a,b); endmodule")
    g = to_aig(n)
    assert g.n_ands == 2
    s = strip_unreachable(g)
    assert s.n_ands == 1
    assert truth_signature(from_aig(s)) == truth_signature(
        _netlist("module m(a,b,y); input a,b; output y; and g1(y,a,b); endmodule"))


def test_tt_var_patterns():
    assert tt_var(0, 2) == 0b1010
    assert tt_var(1, 2) == 0b1100
    assert tt_var(2, 3) == 0b11110000


def test_export_aiger_format():
    n = _netlist("module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    g = to_aig(n)
    text = export_aiger(g)
    lines = text.strip().splitlines()
    assert lines[0] == "aag 3 2 0 1 1"
    assert lines[1] == "2" and lines[2] == "4"
    assert lines[3] == "6"
    lhs, r0, r1 = map(int, lines[4].split())
    assert lhs == 6 and lhs > r0 >= r1
    assert "i0 a" in text and "o0 y" in text


def test_export_aiger_constant_mapping():
    b = AigBuilder(["a"])
    b.add_po("t", 0)   # internal TRUE literal
    b.add_po("f", 1)   # internal FALSE literal
    text = export_aiger(b.build())
    lines = text.strip().splitlines()
    assert lines[2] == "1" and lines[3] == "0"  # AIGER: 1 is TRUE, 0 FALSE
