"""Seeded and arithmetic golden circuits for the benchmark.

random_netlist and rarity_netlist have the same shape as the test-suite
stock in tests/conftest.py; they are copied here so the benchmark does not
import the test package.  The arithmetic generators build paper-scale
function classes in code: an n x n array multiplier (16x16 is the function
of ISCAS-85 c6288), a ripple-carry adder, a magnitude comparator and a
multiplexer tree.  Bit 0 of every bus is the least significant bit.
"""

import random

from htforge.netlist import Gate, Netlist


def random_netlist(seed, n_pis, n_gates, name=None):
    """Seeded random combinational netlist; every gate output that drives
    no gate is a primary output."""
    rng = random.Random(seed)
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
            ins = tuple(rng.choice(nets) for _ in range(rng.choice((2, 2, 2, 3))))
        gates.append(Gate(kind, f"w{k}", ins, f"g{k}"))
        nets.append(f"w{k}")
    used = set()
    for g in gates:
        used.update(g.inputs)
    sinks = [g.output for g in gates if g.output not in used] or [gates[-1].output]
    return Netlist(name or f"rand{seed}", tuple(pis), tuple(sinks), tuple(gates))


def rarity_netlist(seed, n_branches=4, pis_per_branch=6, branch_gates=22):
    """Monotone multi-branch circuit rich in very-low-probability nets.

    Each branch stacks AND/OR gates over its own PI group and ends in wide
    AND collectors, so jointly ultra-rare triggers exist.
    """
    rng = random.Random(seed)
    pis, gates, tops, collectors = [], [], [], []

    def g(kind, out, ins):
        gates.append(Gate(kind, out, tuple(ins), f"g{len(gates)}"))

    for b in range(n_branches):
        bpis = [f"i{b}_{k}" for k in range(pis_per_branch)]
        pis.extend(bpis)
        nets = list(bpis)
        for k in range(branch_gates):
            kind = "AND" if rng.random() < 0.7 else "OR"
            ins = [rng.choice(nets) for _ in range(rng.choice((2, 2, 3)))]
            g(kind, f"b{b}w{k}", ins)
            nets.append(f"b{b}w{k}")
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


class _Builder:
    def __init__(self):
        self.gates = []

    def gate(self, kind, *ins):
        out = f"n{len(self.gates)}"
        self.gates.append(Gate(kind, out, ins, f"g{len(self.gates)}"))
        return out

    def half_adder(self, a, b):
        return self.gate("XOR", a, b), self.gate("AND", a, b)

    def full_adder(self, a, b, c):
        t = self.gate("XOR", a, b)
        return (self.gate("XOR", t, c),
                self.gate("OR", self.gate("AND", a, b), self.gate("AND", t, c)))

    def netlist(self, name, pis, named_outs):
        """Rename the driver of each (port, net) pair to the port name."""
        ren = {net: port for port, net in named_outs}
        gates = tuple(Gate(g.kind, ren.get(g.output, g.output),
                           tuple(ren.get(i, i) for i in g.inputs), g.name)
                      for g in self.gates)
        return Netlist(name, tuple(pis), tuple(p for p, _ in named_outs), gates)


def _bus(name, n):
    return [f"{name}{k}" for k in range(n)]


def ripple_adder(n):
    """s = a + b + cin over n bits; outputs s0..s(n-1) and cout."""
    a, b = _bus("a", n), _bus("b", n)
    bld = _Builder()
    carry, outs = "cin", []
    for k in range(n):
        s, carry = bld.full_adder(a[k], b[k], carry)
        outs.append((f"s{k}", s))
    outs.append(("cout", carry))
    return bld.netlist(f"add{n}", a + b + ["cin"], outs)


def array_multiplier(n):
    """p = a * b over n-bit operands; outputs p0..p(2n-1).

    Partial products a_j & b_i are summed row by row with ripple-carry
    rows, the structure of the ISCAS-85 c6288 multiplier.
    """
    if n < 2:
        raise ValueError("array_multiplier needs n >= 2")
    a, b = _bus("a", n), _bus("b", n)
    bld = _Builder()
    pp = [[bld.gate("AND", a[j], b[i]) for j in range(n)] for i in range(n)]
    outs = [("p0", pp[0][0])]
    acc = pp[0][1:]          # running sum bits of weight 1..n-1
    top = None               # carry out of the previous row (weight n)
    for i in range(1, n):
        row, carry = [], None
        for j in range(n):
            x = acc[j] if j < n - 1 else top
            y = pp[i][j]
            if x is None and carry is None:
                s, carry = y, None
            elif x is None or carry is None:
                s, carry = bld.half_adder(y, x if x is not None else carry)
            else:
                s, carry = bld.full_adder(x, y, carry)
            row.append(s)
        outs.append((f"p{i}", row[0]))
        acc, top = row[1:], carry
    outs += [(f"p{n + k}", s) for k, s in enumerate(acc)]
    outs.append((f"p{2 * n - 1}", top))
    return bld.netlist(f"mul{n}", a + b, outs)


def comparator(n):
    """Magnitude comparator: outputs gt (a > b), eq (a == b), lt (a < b)."""
    a, b = _bus("a", n), _bus("b", n)
    bld = _Builder()
    gt = eq = None           # over the bits above the current one
    for k in reversed(range(n)):
        e = bld.gate("XNOR", a[k], b[k])
        g = bld.gate("AND", a[k], bld.gate("NOT", b[k]))
        if gt is None:
            gt, eq = g, e
        else:
            gt = bld.gate("OR", gt, bld.gate("AND", eq, g))
            eq = bld.gate("AND", eq, e)
    lt = bld.gate("NOR", gt, eq)
    return bld.netlist(f"cmp{n}", a + b, [("gt", gt), ("eq", eq), ("lt", lt)])


def mux_tree(sel_bits):
    """y = d[s] for 2^sel_bits data inputs d0.. and select s0..; a
    balanced tree of AND-OR 2:1 multiplexers."""
    d, s = _bus("d", 1 << sel_bits), _bus("s", sel_bits)
    bld = _Builder()
    level = list(d)
    for k in range(sel_bits):
        ns = bld.gate("NOT", s[k])
        level = [bld.gate("OR", bld.gate("AND", ns, level[2 * m]),
                          bld.gate("AND", s[k], level[2 * m + 1]))
                 for m in range(len(level) // 2)]
    return bld.netlist(f"mux{sel_bits}", d + s, [("y", level[0])])
