import random

import pytest

from htforge.aig import AigGraph, aig_simulate, strash, to_aig
from htforge.netlist import CONST0, CONST1, Gate, Netlist, parse_netlist, tt_var
from htforge.restructure import RECIPES, apply_recipe
from htforge.trojan import TrojanRecord

FULL_ADDER = """
module full_adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire t1, t2, t3;
  xor g1 (t1, a, b);
  xor g2 (sum, t1, cin);
  and g3 (t2, a, b);
  and g4 (t3, t1, cin);
  or  g5 (cout, t2, t3);
endmodule
"""

# the canonical six-NAND circuit
C17 = """
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand g10 (N10, N1, N3);
  nand g11 (N11, N3, N6);
  nand g16 (N16, N2, N11);
  nand g19 (N19, N11, N7);
  nand g22 (N22, N10, N16);
  nand g23 (N23, N16, N19);
endmodule
"""


@pytest.fixture
def full_adder():
    return parse_netlist(FULL_ADDER)


@pytest.fixture
def c17():
    return parse_netlist(C17)


@pytest.fixture(scope="session")
def acceptance_entries():
    """(entry id, Verilog text) of every circuit of the acceptance set,
    forged once per session."""
    from htforge.judge import forge_benchmark
    from test_acceptance import _acceptance_forge_cfg
    return forge_benchmark(_acceptance_forge_cfg())[0].entries


def random_netlist(seed, n_pis=None, n_gates=None, name=None):
    """Seeded random combinational netlist used as shared test stock."""
    rng = random.Random(seed)
    if n_pis is None:
        n_pis = rng.randint(3, 8)
    if n_gates is None:
        n_gates = rng.randint(10, 40)
    pis = [f"i{k}" for k in range(n_pis)]
    nets = list(pis)
    gates = []
    kinds = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "NOT", "BUF",
             "AND", "OR", "NAND", "NOR"]
    for k in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("NOT", "BUF"):
            ins = (rng.choice(nets),)
        else:
            fanin = rng.choice((2, 2, 2, 3))
            ins = tuple(rng.choice(nets) for _ in range(fanin))
        out = f"w{k}"
        gates.append(Gate(kind, out, ins, f"g{k}"))
        nets.append(out)
    used = set()
    for g in gates:
        used.update(g.inputs)
    sinks = [g.output for g in gates if g.output not in used]
    if not sinks:
        sinks = [gates[-1].output]
    n = Netlist(name or f"rand{seed}", tuple(pis), tuple(sinks), tuple(gates))
    assert n.topo_gates is not None
    return n


def rarity_netlist(seed, n_branches=4, pis_per_branch=6, branch_gates=22):
    """Monotone multi-branch circuit rich in very-low-probability nets.

    Each branch stacks AND/OR gates over its own PI group and ends in wide
    AND collectors, so rare nets from different branches are statistically
    independent and jointly ultra-rare triggers exist.
    """
    rng = random.Random(seed)
    pis, gates, tops, collectors = [], [], [], []
    gid = [0]

    def g(kind, out, ins):
        gates.append(Gate(kind, out, tuple(ins), f"g{gid[0]}"))
        gid[0] += 1

    for b in range(n_branches):
        bpis = [f"i{b}_{k}" for k in range(pis_per_branch)]
        pis.extend(bpis)
        nets = list(bpis)
        for k in range(branch_gates):
            kind = "AND" if rng.random() < 0.7 else "OR"
            ins = [rng.choice(nets) for _ in range(rng.choice((2, 2, 3)))]
            out = f"b{b}w{k}"
            g(kind, out, ins)
            nets.append(out)
        sh = list(bpis)
        rng.shuffle(sh)
        g("AND", f"b{b}c0", sh)
        g("AND", f"b{b}c1", sh[:5])
        g("AND", f"b{b}c2", [sh[0], sh[1], sh[2], nets[-1]])
        collectors += [f"b{b}c0", f"b{b}c1", f"b{b}c2"]
        tops.append(nets[-1])
    outs = []
    for b, top in enumerate(tops):
        g("XOR", f"po{b}", (top, tops[(b + 1) % n_branches]))
        outs.append(f"po{b}")
    acc = collectors[0]
    for k, c in enumerate(collectors[1:]):
        g("OR", f"orf{k}", (acc, c))
        acc = f"orf{k}"
    outs.append(acc)
    return Netlist(f"rar{seed}", tuple(pis), tuple(outs), tuple(gates))


def array_multiplier(n):
    """p = a * b over n-bit operands, summed row by row with ripple-carry
    rows (the structure of ISCAS-85 c6288); outputs p0..p(2n-1)."""
    a = [f"a{k}" for k in range(n)]
    b = [f"b{k}" for k in range(n)]
    gates = []

    def gate(kind, *ins):
        out = f"n{len(gates)}"
        gates.append(Gate(kind, out, ins, f"g{len(gates)}"))
        return out

    def adder(x, y, c=None):
        t = gate("XOR", x, y)
        if c is None:
            return t, gate("AND", x, y)
        return gate("XOR", t, c), gate("OR", gate("AND", x, y), gate("AND", t, c))

    pp = [[gate("AND", a[j], b[i]) for j in range(n)] for i in range(n)]
    outs = [("p0", pp[0][0])]
    acc, top = pp[0][1:], None
    for i in range(1, n):
        row, carry = [], None
        for j in range(n):
            x = acc[j] if j < n - 1 else top
            y = pp[i][j]
            if x is None and carry is None:
                s, carry = y, None
            elif x is None or carry is None:
                s, carry = adder(y, x if x is not None else carry)
            else:
                s, carry = adder(x, y, carry)
            row.append(s)
        outs.append((f"p{i}", row[0]))
        acc, top = row[1:], carry
    outs += [(f"p{n + k}", s) for k, s in enumerate(acc)]
    outs.append((f"p{2 * n - 1}", top))
    ren = {net: port for port, net in outs}
    gates = tuple(Gate(g.kind, ren.get(g.output, g.output),
                       tuple(ren.get(i, i) for i in g.inputs), g.name)
                  for g in gates)
    return Netlist(f"mul{n}", tuple(a + b), tuple(p for p, _ in outs), gates)


def twin_netlist(n, copy):
    """``n`` and a function-preserving ``copy`` of it side by side on the
    same PIs; the copy's nets, gates and POs get a ``c_`` prefix, and
    its constant connections stay constants."""
    def ren(x):
        return x if x in n.inputs or x in (CONST0, CONST1) else "c_" + x
    gates = n.gates + tuple(Gate(g.kind, ren(g.output),
                                 tuple(ren(i) for i in g.inputs), "c_" + g.name)
                            for g in copy.gates)
    return Netlist(n.name + "_twin", n.inputs,
                   n.outputs + tuple(ren(o) for o in copy.outputs), gates)


def wide_fraig_graph(name):
    """A strashed graph on which fraig meets candidate pairs over more than
    MAX_PROOF_PIS PIs: "twin40", a 40-PI random golden beside its recipe-3
    copy, or "rand30", a 30-PI random golden."""
    if name == "twin40":
        n = random_netlist(301, n_pis=40, n_gates=500)
        n = twin_netlist(n, apply_recipe(n, RECIPES[3], seed=7)[0])
    else:
        n = random_netlist(3, n_pis=30, n_gates=300)
    return strash(to_aig(n))


def brute_eval(n, stimulus):
    """Independent recursive evaluator used as the simulation oracle."""
    memo = {CONST0: 0, CONST1: 1}
    memo.update({p: stimulus[p] & 1 for p in n.inputs})

    def value(net):
        if net in memo:
            return memo[net]
        g = n.driver[net]
        vs = [value(i) for i in g.inputs]
        if g.kind == "BUF":
            r = vs[0]
        elif g.kind == "NOT":
            r = 1 - vs[0]
        elif g.kind == "AND":
            r = int(all(vs))
        elif g.kind == "NAND":
            r = int(not all(vs))
        elif g.kind == "OR":
            r = int(any(vs))
        elif g.kind == "NOR":
            r = int(not any(vs))
        elif g.kind == "XOR":
            r = sum(vs) % 2
        elif g.kind == "XNOR":
            r = 1 - sum(vs) % 2
        else:
            raise AssertionError(g.kind)
        memo[net] = r
        return r

    return {net: value(net) for net in n.nets}


def all_stimuli(n):
    """Yield every PI assignment of a small netlist, LSB-first PI order."""
    pis = n.inputs
    for word in range(1 << len(pis)):
        yield {p: (word >> k) & 1 for k, p in enumerate(pis)}


def truth_signature(n):
    """Exhaustive output signature: tuple of per-PO ints over all 2^PI rows."""
    sig = {o: 0 for o in n.outputs}
    for row, stim in enumerate(all_stimuli(n)):
        vals = brute_eval(n, stim)
        for o in n.outputs:
            sig[o] |= vals[o] << row
    return tuple(sig[o] for o in n.outputs)


def po_signatures(g: AigGraph, sigs, width):
    """Per-PO packed values, given the node signatures ``sigs``."""
    mask = (1 << width) - 1
    return [(sigs[l >> 1] ^ (mask if l & 1 else 0)) for _, l in g.pos]


def exhaustive_signatures(g: AigGraph):
    """Node signatures over all 2^n_pis input rows (PI k toggles with
    period 2^k).  Only sensible for small PI counts."""
    m = g.n_pis
    return aig_simulate(g, [tt_var(k, m) for k in range(m)], 1 << m)


def record_from_json_dict(d):
    """The TrojanRecord that ``TrojanRecord.to_json_dict`` wrote as ``d``."""
    return TrojanRecord(
        trigger=tuple((net, pol) for net, pol in d["trigger"]),
        trigger_net=d["trigger_net"], victim=d["victim"],
        victim_pre=d["victim_pre"], payload_gate=d["payload_gate"],
        witness=dict(d["witness"]) if d["witness"] else None,
        added_gates=tuple(tuple(g[:2]) + (tuple(g[2]), g[3])
                          for g in d["added_gates"]),
        q=d["q"], rare_count=d["rare_count"], metric=d["metric"],
        threshold=d["threshold"], seed=d["seed"])
