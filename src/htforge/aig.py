"""AND-inverter graphs with structural hashing and bit-parallel simulation.

Literal encoding: ``lit = 2*node + complement``.  Node 0 is the constant
TRUE node, so literal 0 is TRUE and literal 1 is FALSE.  Nodes 1..P are the
primary inputs, AND nodes follow in topological order (every fanin index is
strictly smaller than the node's own index).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from operator import and_, or_, xor

from .netlist import (CONST0, CONST1, GATE_OPS, Gate, Netlist, NetlistError,
                      tt_var)

TRUE = 0
FALSE = 1


def lit(node, comp=0):
    return node * 2 + comp


def lit_not(l):
    return l ^ 1


def and_key(a, b):
    """AND(a, b) under the constant and idempotence rules: the result
    literal when they decide it, else the fanin pair in hash-key order."""
    if a == b or b == TRUE:
        return a
    if a == TRUE:
        return b
    if a == b ^ 1 or a == FALSE or b == FALSE:
        return FALSE
    return (a, b) if a < b else (b, a)


class AigGraph:
    """Immutable AND-inverter graph; ``hashed`` if a hashing builder built it."""

    __slots__ = ("pi_names", "fan0", "fan1", "pos", "levels", "max_level",
                 "hashed")

    def __init__(self, pi_names, fan0, fan1, pos, hashed=False):
        self.hashed = hashed
        self.pi_names = tuple(pi_names)
        self.fan0 = tuple(fan0)
        self.fan1 = tuple(fan1)
        self.pos = tuple(pos)  # (name, literal) pairs
        base = 1 + len(self.pi_names)
        levels = [0] * (base + len(self.fan0))
        for j, (f0, f1) in enumerate(zip(self.fan0, self.fan1)):
            node = base + j
            if f0 >> 1 >= node or f1 >> 1 >= node:
                raise ValueError(f"fanin of node {node} violates topological order")
            levels[node] = 1 + max(levels[f0 >> 1], levels[f1 >> 1])
        self.levels = tuple(levels)
        po_levels = [levels[l >> 1] for _, l in self.pos]
        self.max_level = max(po_levels, default=0)

    @property
    def n_pis(self):
        return len(self.pi_names)

    @property
    def n_ands(self):
        return len(self.fan0)

    @property
    def n_nodes(self):
        return 1 + len(self.pi_names) + len(self.fan0)

    def is_and(self, node):
        return node > len(self.pi_names)

    def fanins(self, node):
        j = node - 1 - len(self.pi_names)
        if j < 0:
            raise ValueError(f"node {node} is a PI or the constant, not an AND")
        return self.fan0[j], self.fan1[j]

    def __repr__(self):
        return (f"AigGraph(pis={self.n_pis}, ands={self.n_ands}, "
                f"pos={len(self.pos)}, depth={self.max_level})")


class AigBuilder:
    """Incremental constructor.  With hashing enabled, and2() applies the
    constant rules, normalizes fanin order, and shares identical nodes.
    ``fan0`` and ``fan1`` are indexed by node (zero below the first AND),
    so cone_tt() walks a graph while it is being built."""

    def __init__(self, pi_names, hashing=True):
        self.pi_names = list(pi_names)
        self.fan0 = [0] * (1 + len(self.pi_names))
        self.fan1 = list(self.fan0)
        self.pos = []
        self.table = {} if hashing else None

    def pi(self, k):
        return lit(1 + k)

    def and2(self, a, b):
        if self.table is not None:
            key = and_key(a, b)
            if type(key) is int:
                return key
            hit = self.table.get(key)
            if hit is not None:
                return hit
            a, b = key
        node = len(self.fan0)
        self.fan0.append(a)
        self.fan1.append(b)
        out = lit(node)
        if self.table is not None:
            self.table[(a, b)] = out
        return out

    def or2(self, a, b):
        return lit_not(self.and2(lit_not(a), lit_not(b)))

    def xor2(self, a, b):
        return self.or2(self.and2(a, lit_not(b)), self.and2(lit_not(a), b))

    def add_po(self, name, l):
        self.pos.append((name, l))

    def build(self):
        base = 1 + len(self.pi_names)
        return AigGraph(self.pi_names, self.fan0[base:], self.fan1[base:],
                        self.pos, self.table is not None)


def add_netlist(b: AigBuilder, n: Netlist, tie=None):
    """Decompose the gates of ``n`` into ``b``, whose PIs are ``n``'s
    inputs in order, and return every net's literal by net name.  A
    k-input AND/OR folds into k-1 and2() calls and an XOR/XNOR input into
    one xor2(); constant nets are literals TRUE and FALSE.  The net named
    ``tie`` reads as FALSE everywhere, as if its driver were cut off."""
    net2lit = {CONST1: TRUE, CONST0: FALSE}
    for k, p in enumerate(n.inputs):
        net2lit[p] = b.pi(k)
    if tie in net2lit:
        net2lit[tie] = FALSE
    fold = {and_: b.and2, or_: b.or2, xor: b.xor2}
    for g in n.topo_gates:
        op, inv = GATE_OPS[g.kind]
        acc = net2lit[g.inputs[0]]
        for i in g.inputs[1:]:
            acc = fold[op](acc, net2lit[i])
        net2lit[g.output] = FALSE if g.output == tie else (
            lit_not(acc) if inv else acc)
    for o in n.outputs:
        if o not in net2lit:
            raise NetlistError(f"primary output '{o}' is undriven")
    return net2lit


def to_aig(n: Netlist) -> AigGraph:
    """Decompose a netlist into 2-input ANDs and complemented edges.

    Gates are expanded gate-by-gate without structural hashing, so a
    k-input AND/OR becomes exactly k-1 AND nodes and XOR/XNOR become 3
    each; run strash() to share structure.
    """
    b = AigBuilder(n.inputs, hashing=False)
    lits = add_netlist(b, n)
    for o in n.outputs:
        b.add_po(o, lits[o])
    return b.build()


def _rehash(pi_names, fan0, fan1, base, order, pos):
    """Re-add the AND nodes in ``order`` (fanins first) through a hashing
    builder; node v's fanins are ``fan0[v - base]``, ``fan1[v - base]``.
    The constant and the PIs map to themselves; ``pos`` holds (name,
    literal) pairs."""
    b = AigBuilder(pi_names, hashing=True)
    node_map = list(range(0, 2 * (base + len(fan0)), 2))
    for v in order:
        f0, f1 = fan0[v - base], fan1[v - base]
        node_map[v] = b.and2(node_map[f0 >> 1] ^ (f0 & 1),
                             node_map[f1 >> 1] ^ (f1 & 1))
    for nm, l in pos:
        b.add_po(nm, node_map[l >> 1] ^ (l & 1))
    return b.build()


def _live_ands(g: AigGraph):
    """The AND nodes with a path to some PO."""
    live = set()
    stack = [l >> 1 for _, l in g.pos]
    while stack:
        node = stack.pop()
        if node in live or not g.is_and(node):
            continue
        live.add(node)
        f0, f1 = g.fanins(node)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return live


def tree_roots(g: AigGraph, nodes):
    """The AND nodes among ``nodes`` that root an AND tree: referenced by a
    PO, referenced complemented, or referenced other than exactly once by
    the ANDs in ``nodes``.  Every other node is internal to a single-fanout,
    uncomplemented tree (balance's operands, gate_size's multi-input ANDs)."""
    refs = dict.fromkeys(nodes, 0)
    roots = {l >> 1 for _, l in g.pos if l >> 1 in refs}
    for node in nodes:
        for f in g.fanins(node):
            if f >> 1 in refs:
                refs[f >> 1] += 1
                if f & 1:
                    roots.add(f >> 1)
    roots.update(v for v, r in refs.items() if r != 1)
    return roots


def tree_leaves(g: AigGraph, node, roots):
    """Leaf literals, left to right, of the AND tree at ``node``: an
    uncomplemented fanin that is an AND outside ``roots`` is expanded."""
    leaves = []
    for f in g.fanins(node):
        v = f >> 1
        if not (f & 1) and g.is_and(v) and v not in roots:
            leaves.extend(tree_leaves(g, v, roots))
        else:
            leaves.append(f)
    return leaves


def strash(g: AigGraph) -> AigGraph:
    """Structurally hash: merge identical ordered-fanin nodes, normalize
    fanin order, and propagate constants.  Idempotent, so a graph a hashing
    builder built comes back as it is."""
    if g.hashed:
        return g
    base = 1 + g.n_pis
    return _rehash(g.pi_names, g.fan0, g.fan1, base, range(base, g.n_nodes), g.pos)


def strip_unreachable(g: AigGraph) -> AigGraph:
    """Drop nodes with no path to any PO (function unchanged)."""
    return _rehash(g.pi_names, g.fan0, g.fan1, 1 + g.n_pis,
                   sorted(_live_ands(g)), g.pos)


def aig_simulate(g: AigGraph, pi_words, width):
    """Bit-parallel node signatures: ``pi_words[k]`` is the packed stimulus
    for PI k, one bit per vector.  Returns a list indexed by node."""
    if len(pi_words) != g.n_pis:
        raise ValueError(f"expected {g.n_pis} PI words, got {len(pi_words)}")
    mask = (1 << width) - 1
    for w in pi_words:
        if w > mask:
            raise ValueError("stimulus word wider than the declared width")
    sigs = [mask]
    sigs.extend(w & mask for w in pi_words)
    fan0, fan1 = g.fan0, g.fan1
    for j in range(g.n_ands):
        f0, f1 = fan0[j], fan1[j]
        a = sigs[f0 >> 1] ^ (mask if f0 & 1 else 0)
        b_ = sigs[f1 >> 1] ^ (mask if f1 & 1 else 0)
        sigs.append(a & b_)
    return sigs


def merge_proven(g: AigGraph, width, seed, prove, tries=None,
                 max_pis=math.inf):
    """Functional reduction (Mishchenko et al., "FRAIGs", 2005): rebuild
    each AND of ``g``, in node order, over its fanins' representatives in
    a hashing AigBuilder.  A new node whose signature under ``width``
    random vectors (one ``getrandbits(width)`` per PI from ``seed``)
    matches a class member's, up to complement, merges into the first of
    the first ``tries`` members (all when None) that ``prove(fan0, fan1,
    first, dead, support, x, c, phase)`` accepts as equal to node ``x``,
    complemented when ``phase``, in the builder; ``support`` holds each
    builder node's PI bitmask.  A member is passed over when the two nodes
    of ``g`` the pair was built for span more than ``max_pis`` PIs of
    ``g``.  Returns the builder and each node's literal in it."""
    first = 1 + g.n_pis
    rng = random.Random(seed)
    mask = (1 << width) - 1
    sigs = aig_simulate(g, [rng.getrandbits(width) for _ in g.pi_names], width)
    b = AigBuilder(g.pi_names)
    fan0, fan1, dead = b.fan0, b.fan1, bytes(g.n_nodes)
    rep = [lit(v) for v in range(first)]   # builder node -> representative
    rsig = sigs[:first]
    support = [0] + [1 << k for k in range(g.n_pis)]
    wide = list(support)   # node of g -> its PI bitmask in g
    span = list(support)   # builder node -> wide[] of the node it was built for
    classes = {}
    for v, s in enumerate(rsig):
        classes.setdefault(s ^ mask if s & 1 else s, []).append(v)
    node_map = list(rep)
    for s, f0, f1 in zip(sigs[first:], g.fan0, g.fan1):
        wide.append(wide[f0 >> 1] | wide[f1 >> 1])
        l = b.and2(node_map[f0 >> 1] ^ (f0 & 1), node_map[f1 >> 1] ^ (f1 & 1))
        x = l >> 1
        if x == len(rep):   # a new node
            rsig.append(s)
            support.append(support[fan0[x] >> 1] | support[fan1[x] >> 1])
            span.append(wide[-1])
            members = classes.setdefault(s ^ mask if s & 1 else s, [])
            to = lit(x)
            for c in members[:tries]:
                if (span[x] | span[c]).bit_count() > max_pis:
                    continue
                phase = rsig[c] != s
                if prove(fan0, fan1, first, dead, support, x, c, phase):
                    to = lit(c, phase)
                    break
            else:
                members.append(x)
            rep.append(to)
        node_map.append(rep[x] ^ (l & 1))
    return b, node_map


# ---------------------------------------------------------------------------
# cut enumeration

def enumerate_cuts(g: AigGraph, k=6, max_cuts=8):
    """K-feasible cuts per node as ascending leaf-node tuples, smallest first.

    Every node keeps its trivial cut (listed last) plus up to max_cuts-1
    merged cuts, prioritized by leaf count; the constant node has none.
    Truth tables over a cut come from cone_tt().

    A cut's signature ORs ``1 << (leaf & 63)`` over its leaves; leaves may
    share a bit, so a pair whose OR has over k bits is skipped unmerged.
    """
    cuts = [()] + [((v,),) for v in range(1, g.n_nodes)]
    # (signature, leaf frozenset) per cut, dropped after the last reader
    sets = [()] + [((1 << (v & 63), frozenset((v,))),)
                   for v in range(1, g.n_nodes)]
    uses = Counter(f >> 1 for f in g.fan0 + g.fan1)
    for node, f0, f1 in zip(range(1 + g.n_pis, g.n_nodes), g.fan0, g.fan1):
        merged = {}
        for s0, c0 in sets[f0 >> 1]:
            for s1, c1 in sets[f1 >> 1]:
                s = s0 | s1
                if s.bit_count() > k:
                    continue
                c = c0 | c1
                if len(c) <= k:
                    merged[c] = s
        kept = sorted((len(c), tuple(sorted(c)), c) for c in merged)[:max_cuts - 1]
        cuts[node] = tuple(t for _, t, _ in kept) + cuts[node]
        sets[node] = tuple((merged[c], c) for _, _, c in kept) + sets[node]
        for v in (f0 >> 1, f1 >> 1):
            uses[v] -= 1
            if not uses[v]:
                sets[v] = None
    return cuts


def cone_tt(fan0, fan1, first, dead, root, leaves, max_steps=math.inf):
    """Truth table of node ``root`` over the ``leaves`` nodes, in a graph
    given by node-indexed fanin literals (``fan0[v]``, ``fan1[v]`` for
    each AND ``v >= first``) and ``dead`` flags; None when the cone escapes
    the leaves (reaches a PI or a dead node outside them) or takes more
    than ``max_steps`` walk steps.  Node 0 is the constant TRUE."""
    m = len(leaves)
    mask = (1 << (1 << m)) - 1
    val = {0: mask}
    for j, leaf in enumerate(leaves):
        val[leaf] = tt_var(j, m)
    if root in val:
        return val[root]
    get = val.get
    stack = [root]
    steps = 0
    while stack:
        nd = stack[-1]
        if nd in val:
            stack.pop()
            continue
        if nd < first or dead[nd]:
            return None
        steps += 1
        if steps > max_steps:
            return None
        f0, f1 = fan0[nd], fan1[nd]
        a, b = get(f0 >> 1), get(f1 >> 1)
        if a is None or b is None:
            # push only the missing fanins, f0's first; a PI is a leaf
            # or the cone escapes
            if a is None:
                if f0 >> 1 < first:
                    return None
                stack.append(f0 >> 1)
            if b is None:
                if f1 >> 1 < first:
                    return None
                stack.append(f1 >> 1)
            continue
        val[nd] = (a ^ mask if f0 & 1 else a) & (b ^ mask if f1 & 1 else b)
        stack.pop()
    return val[root]


# ---------------------------------------------------------------------------
# netlist emission

def from_aig(g: AigGraph, group_multi_input_and=False, name="aig") -> Netlist:
    """Map back to the eight-gate netlist using AND, NOT, and BUF gates.

    With grouping enabled, maximal single-fanout non-complemented AND trees
    collapse into one multi-input AND gate (the gate-size-change pass).
    PI and PO names and order are preserved; internal nets are renamed
    n0, n1, ... in emission order.
    """
    live = _live_ands(g)
    emit = tree_roots(g, live) if group_multi_input_and else live

    reserved = set(g.pi_names) | {nm for nm, _ in g.pos}
    name_of = {}
    for nm, l in g.pos:
        v = l >> 1
        if not (l & 1) and g.is_and(v) and v in emit and v not in name_of:
            name_of[v] = nm

    counter = [0]

    def fresh():
        while True:
            cand = f"n{counter[0]}"
            counter[0] += 1
            if cand not in reserved:
                return cand

    gates = []
    ginst = [0]

    def inst():
        ginst[0] += 1
        return f"g{ginst[0] - 1}"

    inv_net = {}

    def net_for(l):
        """Net carrying literal l, creating shared NOT gates for complements."""
        v, c = l >> 1, l & 1
        if v == 0:
            return CONST0 if c else CONST1
        base = g.pi_names[v - 1] if not g.is_and(v) else name_of[v]
        if not c:
            return base
        if l not in inv_net:
            out = fresh()
            gates.append(Gate("NOT", out, (base,), inst()))
            inv_net[l] = out
        return inv_net[l]

    for node in sorted(emit):
        if node not in name_of:
            name_of[node] = fresh()
    for node in sorted(emit):
        ins = tuple(net_for(l) for l in tree_leaves(g, node, emit))
        gates.append(Gate("AND", name_of[node], ins, inst()))

    outputs = []
    for nm, l in g.pos:
        v = l >> 1
        if g.is_and(v) and name_of.get(v) == nm and not (l & 1):
            outputs.append(nm)
            continue
        if l & 1:
            src = net_for(lit(v))
            gates.append(Gate("NOT", nm, (src,), inst()))
        else:
            src = net_for(l)
            gates.append(Gate("BUF", nm, (src,), inst()))
        outputs.append(nm)

    return Netlist(name, tuple(g.pi_names), tuple(outputs), tuple(gates))


# ---------------------------------------------------------------------------
# AIGER export

def export_aiger(g: AigGraph) -> str:
    """ASCII AIGER (aag) dump.  Our constant-TRUE literal 0 maps to AIGER's
    literal 1; all other literals coincide."""

    def alit(l):
        return l ^ 1 if l < 2 else l

    m = g.n_nodes - 1
    lines = [f"aag {m} {g.n_pis} 0 {len(g.pos)} {g.n_ands}"]
    for k in range(g.n_pis):
        lines.append(str(lit(1 + k)))
    for _, l in g.pos:
        lines.append(str(alit(l)))
    base = 1 + g.n_pis
    for j in range(g.n_ands):
        lhs = lit(base + j)
        rhs = sorted((alit(g.fan0[j]), alit(g.fan1[j])), reverse=True)
        lines.append(f"{lhs} {rhs[0]} {rhs[1]}")
    for k, nm in enumerate(g.pi_names):
        lines.append(f"i{k} {nm}")
    for k, (nm, _) in enumerate(g.pos):
        lines.append(f"o{k} {nm}")
    return "\n".join(lines) + "\n"
