import gc
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import htforge
from htforge.aig import (
    lit,
    lit_not,
    strash,
    to_aig,
)
from htforge import equiv
from htforge.analysis import exact_signal_prob
from htforge.equiv import CheckConfig, check_equivalence
from htforge.netlist import Gate, Netlist, parse_netlist, stimuli
from htforge.restructure import RECIPES, _Work, apply_recipe
from htforge.trojan import TrojanRecord, _cone_netlist, find_trigger_witness

from conftest import (exhaustive_signatures, po_signatures, random_netlist,
                      rarity_netlist, truth_signature)


@pytest.mark.parametrize("chunk_bits", [12, 14, 16])
def test_equivalence_check_spans_multiple_chunks(chunk_bits, monkeypatch):
    # PI k is bit k of the assignment index at every exhaustive chunk
    # width, so the first counterexample, at i3 and i16, and the first
    # trigger activation, both outside the first chunk of 2^12, do not
    # depend on the width; the netlists are built after the width is set,
    # so their programs split prologue from rest at that width
    monkeypatch.setattr(htforge.netlist, "CHUNK_VARS", chunk_bits)
    n = random_netlist(61, n_pis=18, n_gates=60)
    assert [w for _, w in stimuli(n.inputs)] == (
        [1 << chunk_bits] * (1 << 18 - chunk_bits))
    cfg = CheckConfig(exhaustive_bound=18)
    verdict = check_equivalence(n, n, cfg)
    assert verdict.mode == "exhaustive"
    assert verdict.result == "equivalent"
    other = _xor_into_po(n, ("i3",), ("i16", "i17"))
    cex = check_equivalence(n, other, cfg).counterexample
    assert cex == {p: int(p in ("i3", "i16")) for p in n.inputs}

    rec = TrojanRecord(trigger=(("t", 1), ("w42", 0), ("w55", 1)),
                       trigger_net="t", victim=n.outputs[0], victim_pre="pre",
                       payload_gate="gp", witness=None, added_gates=())
    assert len(_cone_netlist(other, ["t", "w42", "w55"]).inputs) == 16
    want = find_trigger_witness(other, rec)
    assert {p for p, bit in want.items() if bit} == {"i0", "i3", "i15", "i17"}


def _xor_into_po(n, ands, ors):
    """``n`` with its first PO xored with t = AND(ands..., OR(ors...))."""
    po = n.outputs[0]
    gates = [Gate(g.kind, "pre" if g.output == po else g.output, g.inputs,
                  g.name) for g in n.gates]
    gates += [Gate("OR", "u", ors, "gu"),
              Gate("AND", "t", (*ands, "u"), "gt"),
              Gate("XOR", po, ("pre", "t"), "gp")]
    return Netlist(n.name, n.inputs, n.outputs, tuple(gates))


def _reachable(root):
    """Every object reachable from ``root`` through gc.get_referents, not
    descending into types, modules or functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType,
                                               types.BuiltinFunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_no_chunk_wide_value_outlives_a_sweep(monkeypatch):
    # an exhaustive sweep keeps its registers in the generator, which they
    # leave with, also when its caller stops at a counterexample; the
    # netlist keeps only its lowered programs, which hold no value.  The
    # checks sweep every vector, as checks at or below the crossover do
    monkeypatch.setattr(equiv, "SWEEP_CHUNKS", 1 << 30)
    n = rarity_netlist(7)
    other = Netlist(n.name, n.inputs, n.outputs, n.gates)
    assert len(n.inputs) == 24
    assert check_equivalence(n, other).equivalent
    trigger = tuple((f"b{b}{w}", 1) for b in range(4) for w in ("c0", "w21"))
    rec = TrojanRecord(trigger=trigger, trigger_net="t", victim="",
                       victim_pre="", payload_gate="", witness=None,
                       added_gates=())
    assert len(_cone_netlist(n, [net for net, _ in trigger]).inputs) == 24
    assert find_trigger_witness(n, rec) == dict.fromkeys(n.inputs, 1)
    # i2_5 and i3_0 are PIs 17 and 18: the sweep stops in its seventh chunk
    bad = _xor_into_po(n, ("i2_5",), ("i3_0",))
    verdict = check_equivalence(n, bad)
    assert verdict.mode == "exhaustive"
    assert verdict.counterexample == {p: int(p in ("i2_5", "i3_0"))
                                      for p in n.inputs}
    verdict = check_equivalence(n, bad, CheckConfig(exhaustive_bound=20))
    assert verdict.mode == "sampled" and verdict.counterexample
    exact_signal_prob(n)
    assert list(n._lowered) == [None]
    assert list(other._lowered) == list(bad._lowered) == [frozenset(n.outputs)]
    # above the crossover a check proves first: the copy's outputs are all
    # proven without a sweep, and the mutant's first counterexample is the
    # same, found by a sweep of a miter of the outputs left unproven
    monkeypatch.undo()
    proven = Netlist(n.name, n.inputs, n.outputs, n.gates)
    bad2 = _xor_into_po(n, ("i2_5",), ("i3_0",))
    assert check_equivalence(n, proven).equivalent
    assert check_equivalence(n, bad2).counterexample == {
        p: int(p in ("i2_5", "i3_0")) for p in n.inputs}
    assert list(proven._lowered) == list(bad2._lowered) == []
    for net in (n, other, bad, proven, bad2):
        wide = [obj.bit_length() for obj in _reachable(net)
                if isinstance(obj, int) and obj.bit_length() > 64]
        assert not wide, wide


def test_recipe_on_buf_passthrough():
    n = Netlist("p", ("a", "b"), ("x", "y"),
                (Gate("BUF", "x", ("a",), "g0"),
                 Gate("NOT", "y", ("b",), "g1")))
    for rid in (1, 8, 11):
        out, _ = apply_recipe(n, RECIPES[rid], seed=0)
        assert out.inputs == n.inputs and out.outputs == n.outputs
        assert truth_signature(out) == truth_signature(n)


def test_recipe_on_constant_gates():
    n = parse_netlist("""
        module m(a, y, z); input a; output y, z;
          and g1 (y, a, 1'b0);
          or  g2 (z, a, 1'b1);
        endmodule""")
    out, _ = apply_recipe(n, RECIPES[2], seed=0)
    assert truth_signature(out) == truth_signature(n) == (0, 0b11)


def test_recipe_on_duplicate_pos():
    n = parse_netlist("""
        module m(a, b, x, y); input a, b; output x, y; wire t;
          and g1 (t, a, b);
          buf g2 (x, t);
          buf g3 (y, t);
        endmodule""")
    out, _ = apply_recipe(n, RECIPES[3], seed=1)
    assert out.outputs == ("x", "y")
    assert truth_signature(out) == truth_signature(n)


def _work_fixture():
    """PIs 1..4 = a,b,c,d.  AND nodes: t = a&b, u = a&d, y1 = t&c,
    y2 = u&c, with POs on y1 and y2.  Node ids located by fanins."""
    n = parse_netlist("""
        module m(a, b, c, d, y1, y2);
          input a, b, c, d; output y1, y2; wire t, u;
          and g1 (t, a, b);
          and g2 (y1, t, c);
          and g3 (u, a, d);
          and g4 (y2, u, c);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 4
    w = _Work(g)

    def find(vars_):
        for v in range(w.first_and, len(w.fan0)):
            if {w.fan0[v] >> 1, w.fan1[v] >> 1} == vars_:
                return v
        raise AssertionError(vars_)

    t = find({1, 2})
    u = find({1, 4})
    y1 = find({t, 3})
    y2 = find({u, 3})
    return w, t, u, y1, y2


def test_work_replace_hash_collision_cascade():
    w, t, u, y1, y2 = _work_fixture()
    # aliasing u (a&d) onto t (a&b) rewrites y2 to (a&b)&c, which collides
    # with y1's key and must cascade-merge, repointing the second PO and
    # deleting both u and y2
    w.replace(u, lit(t))
    w.check()
    assert w.dead[u] and w.dead[y2]
    assert not w.dead[t] and not w.dead[y1]
    assert w.pos[0] == lit(y1) and w.pos[1] == lit(y1)
    assert w.live == 2


def test_work_replace_trivialization_to_constant():
    w, t, u, y1, y2 = _work_fixture()
    # aliasing u onto ~c turns y2 into AND(~c, c) = constant false
    w.replace(u, lit_not(lit(3)))
    w.check()
    assert w.dead[u] and w.dead[y2]
    assert w.pos[1] == 1  # constant-false literal
    assert w.live == 2


def test_work_replace_keeps_shared_structure():
    w, t, u, y1, y2 = _work_fixture()
    # repointing the y2 PO cone onto t kills u and y2 but t survives
    w.replace(y2, lit(t))
    w.check()
    assert w.dead[y2] and w.dead[u]
    assert not w.dead[t]
    assert w.pos[1] == lit(t)
    assert w.live == 2


def test_work_check_raises_under_optimize():
    # python -O strips assert statements; check() must still see the damage
    code = (
        "from htforge.aig import strash, to_aig\n"
        "from htforge.netlist import parse_netlist\n"
        "from htforge.restructure import _Work\n"
        "n = parse_netlist('module m (a, b, c, y); input a, b, c; output y;'\n"
        "                  ' wire t; and g1 (t, a, b); and g2 (y, t, c);'\n"
        "                  ' endmodule')\n"
        "w = _Work(strash(to_aig(n)))\n"
        "w.check()\n"
        "w.nref[w.first_and] += 1\n"
        "try:\n"
        "    w.check()\n"
        "except AssertionError as e:\n"
        "    print('raised', e)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(htforge.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.startswith("raised nref[")


def test_work_rebuild_after_replace_is_equivalent():
    # v = (a|b)&(a&b) computes a&b through a redundant structure that
    # survives strash; aliasing v onto t is a legal equivalent replacement
    # whose collision cascade merges the y2 cone into y1
    n = parse_netlist("""
        module m(a, b, c, y1, y2);
          input a, b, c; output y1, y2; wire t, w1, v;
          and g1 (t, a, b);
          and g2 (y1, t, c);
          or  g3 (w1, a, b);
          and g4 (v, w1, t);
          and g5 (y2, v, c);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 5
    ref = po_signatures(g, exhaustive_signatures(g), 8)
    w = _Work(g)
    t_node = v_node = None
    for v in range(w.first_and, len(w.fan0)):
        f0, f1 = w.fan0[v], w.fan1[v]
        if {f0, f1} == {lit(1), lit(2)}:
            t_node = v
    for v in range(w.first_and, len(w.fan0)):
        if t_node in (w.fan0[v] >> 1, w.fan1[v] >> 1) and \
                3 not in (w.fan0[v] >> 1, w.fan1[v] >> 1):
            v_node = v
    assert t_node is not None and v_node is not None
    w.replace(v_node, lit(t_node))
    w.check()
    out = w.rebuild()
    assert po_signatures(out, exhaustive_signatures(out), 8) == ref
    assert out.n_ands == 2  # only t&c remains, shared by both POs


def _seeded_calls():
    """A minimal valid call, by seed, of every public callable that draws
    from a seed."""
    n = random_netlist(5, n_pis=4, n_gates=12)
    g = to_aig(n)
    rec = TrojanRecord(trigger=((n.outputs[0], 1),), trigger_net="t",
                       victim=n.outputs[0], victim_pre="p", payload_gate="gp",
                       witness=None, added_gates=(), q=1)
    return {
        "CheckConfig": lambda s: htforge.CheckConfig(seed=s),
        "TrojanSpec": lambda s: htforge.TrojanSpec(seed=s),
        "activation_estimate": lambda s: htforge.activation_estimate(
            n, rec, 10, seed=s),
        "apply_recipe": lambda s: apply_recipe(n, RECIPES[1], seed=s),
        "balance": lambda s: htforge.balance(g, seed=s),
        "fraig": lambda s: htforge.fraig(g, seed=s),
        "refactor": lambda s: htforge.refactor(g, seed=s),
        "resubstitute": lambda s: htforge.resubstitute(g, seed=s),
        "rewrite": lambda s: htforge.rewrite(g, seed=s),
        "seek_simulate": lambda s: htforge.seek_simulate(5, 2, trials=10,
                                                         seed=s),
        "signal_prob": lambda s: htforge.signal_prob(n, 10, seed=s),
    }


# a TrojanRecord stores the seed its insertion used; it draws nothing
_SEED_RECORDS = {"TrojanRecord"}


def test_every_public_callable_with_a_seed_is_checked_below():
    takes_seed = set()
    for name, obj in vars(htforge).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:   # exception classes
            continue
        if "seed" in params:
            takes_seed.add(name)
    assert takes_seed == set(_seeded_calls()) | _SEED_RECORDS


@pytest.mark.parametrize("name", sorted(_seeded_calls()))
def test_a_seed_that_is_not_an_int_is_rejected(name):
    # None would seed random.Random from OS entropy, so two calls differ
    call = _seeded_calls()[name]
    call(0)
    for seed in (None, "7", 1.5):
        with pytest.raises(ValueError, match=r"^seed must be an int"):
            call(seed)
