"""Function-preserving netlist restructuring.

Seven techniques (structural hashing, balancing, rewriting, refactoring,
resubstitution, fraiging, gate-size change) and eighteen shipped recipes
composed from them.  Every pass is non-worsening: rewrite, refactor,
resubstitute, and fraig never increase node count; balance never increases
depth.  apply_recipe() re-checks functional equivalence of its output and
treats a failure as an internal bug, not a user condition.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from .aig import (
    FALSE,
    TRUE,
    AigBuilder,
    AigGraph,
    _rehash,
    aig_simulate,
    and_key,
    enumerate_cuts,
    from_aig,
    lit,
    lit_not,
    strash,
    strip_unreachable,
    to_aig,
    tree_leaves,
    tree_roots,
    tt_var,
)
from .netlist import Netlist, simulate


class RestructureError(Exception):
    """Raised when a pipeline equivalence check fails (an internal bug trap)."""


class _OverCap(Exception):
    """A trial planned more new nodes than the root's MFFC can free."""


def _vkey(v):
    return (0, v) if isinstance(v, int) else (1, v[1], v[2])


# ---------------------------------------------------------------------------
# mutable work graph

class _Work:
    """Mutable AIG with structural hashing, fanout sets, and exact reference
    counts.  replace() repoints fanouts and POs, simplifies consumers that
    trivialize, merges hash collisions, and deletes dead cones, keeping the
    live-node count exact at all times."""

    def __init__(self, g: AigGraph):
        """Load a strashed graph; every AND keeps its node index, so a graph
        that was not strashed (a constant fanin or a duplicate) raises
        ValueError."""
        self.pi_names = g.pi_names
        self.first_and = 1 + g.n_pis
        self.fan0 = [0] * self.first_and
        self.fan1 = [0] * self.first_and
        self.dead = [False] * self.first_and
        self.nref = [0] * self.first_and
        self.fanouts = [set() for _ in range(self.first_and)]
        self.table = {}
        self.live = 0
        self.pos = [l for _, l in g.pos]
        self.po_names = [nm for nm, _ in g.pos]
        self._supports = {}
        for node in range(self.first_and, g.n_nodes):
            if self.and2(*g.fanins(node)) != lit(node):
                raise ValueError(f"node {node} does not keep its index; "
                                 "strash the graph first")
        for l in self.pos:
            self.nref[l >> 1] += 1

    def and2(self, a, b):
        """Hashed AND with the constant rules; creates a node on miss."""
        key = and_key(a, b)
        if type(key) is int:
            return key
        hit = self.table.get(key)
        if hit is not None:
            return lit(hit)
        a, b = key
        node = len(self.fan0)
        self.fan0.append(a)
        self.fan1.append(b)
        self.dead.append(False)
        self.nref.append(0)
        self.fanouts.append(set())
        self.table[(a, b)] = node
        self.live += 1
        for f in (a, b):
            self.nref[f >> 1] += 1
            self.fanouts[f >> 1].add(node)
        return lit(node)

    def _delete_cascade(self, v):
        stack = [v]
        while stack:
            u = stack.pop()
            if u < self.first_and or self.dead[u] or self.nref[u] != 0:
                continue
            self.dead[u] = True
            self.live -= 1
            f0, f1 = self.fan0[u], self.fan1[u]
            if self.table.get((f0, f1)) == u:
                del self.table[(f0, f1)]
            self.fanouts[u].clear()
            for f in (f0, f1):
                w = f >> 1
                self.fanouts[w].discard(u)
                self.nref[w] -= 1
                if self.nref[w] == 0:
                    stack.append(w)

    def replace(self, node, new_lit):
        """Repoint every consumer (and PO) of ``node`` to ``new_lit``.

        Queued follow-up replacements keep their target pinned so cascaded
        deletions cannot invalidate them.
        """
        self.nref[new_lit >> 1] += 1  # pin
        queue = [(node, new_lit)]
        while queue:
            old, nl = queue.pop(0)
            self.nref[nl >> 1] -= 1  # unpin
            if (nl >> 1) == old or self.dead[old]:
                self._delete_cascade(nl >> 1)
                continue
            for k, pl in enumerate(self.pos):
                if (pl >> 1) == old:
                    repl = nl ^ (pl & 1)
                    self.pos[k] = repl
                    self.nref[old] -= 1
                    self.nref[repl >> 1] += 1
            for m in sorted(self.fanouts[old]):
                if self.dead[m]:
                    continue
                of0, of1 = self.fan0[m], self.fan1[m]
                if self.table.get((of0, of1)) == m:
                    del self.table[(of0, of1)]
                nf0, nf1 = of0, of1
                if (nf0 >> 1) == old:
                    nf0 = nl ^ (nf0 & 1)
                if (nf1 >> 1) == old:
                    nf1 = nl ^ (nf1 & 1)
                key = and_key(nf0, nf1)
                if nf0 > nf1:
                    nf0, nf1 = nf1, nf0
                self.nref[of0 >> 1] -= 1
                self.nref[of1 >> 1] -= 1
                self.fanouts[of0 >> 1].discard(m)
                self.fanouts[of1 >> 1].discard(m)
                self.fan0[m], self.fan1[m] = nf0, nf1
                self.nref[nf0 >> 1] += 1
                self.nref[nf1 >> 1] += 1
                self.fanouts[nf0 >> 1].add(m)
                self.fanouts[nf1 >> 1].add(m)
                if type(key) is int:
                    self.nref[key >> 1] += 1  # pin
                    queue.append((m, key))
                    continue
                other = self.table.get(key)
                if other is not None and other != m:
                    self.nref[other] += 1  # pin
                    queue.append((m, lit(other)))
                else:
                    self.table[(nf0, nf1)] = m
            if self.nref[old] == 0:
                self._delete_cascade(old)

    # -- analysis helpers

    def mffc(self, root, pins=None):
        """Nodes that would die if root's consumers vanished (root
        included), honoring extra pin references on some nodes."""
        dec = {}
        out = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for f in (self.fan0[v], self.fan1[v]):
                u = f >> 1
                if u < self.first_and or self.dead[u]:
                    continue
                dec[u] = dec.get(u, 0) + 1
                need = self.nref[u] + (pins.get(u, 0) if pins else 0)
                if dec[u] == need:
                    out.add(u)
                    stack.append(u)
        return out

    def cone_tt(self, root, leaves, max_steps=512):
        """Truth table of root over the leaf nodes, or None when the cone
        escapes the leaves (stale cut) or takes more than ``max_steps``
        walk steps.  Local passes keep the default cap; fraig's proofs
        pass ``math.inf``."""
        m = len(leaves)
        mask = (1 << (1 << m)) - 1
        val = {0: mask}
        for j, leaf in enumerate(leaves):
            val[leaf] = tt_var(j, m)
        if root in val:
            return val[root]
        stack = [root]
        steps = 0
        while stack:
            nd = stack[-1]
            if nd in val:
                stack.pop()
                continue
            if nd < self.first_and or self.dead[nd]:
                return None
            steps += 1
            if steps > max_steps:
                return None
            f0, f1 = self.fan0[nd], self.fan1[nd]
            deps = [u for u in (f0 >> 1, f1 >> 1) if u not in val]
            bad = [u for u in deps if u < self.first_and]
            if bad:
                return None
            if deps:
                stack.extend(deps)
                continue
            a = val[f0 >> 1] ^ (mask if f0 & 1 else 0)
            b = val[f1 >> 1] ^ (mask if f1 & 1 else 0)
            val[nd] = a & b
            stack.pop()
        return val[root]

    def support(self, node):
        """PI-index bitmask of the structural support of a node, walked on
        the first call and memoized from then on (replace() does not
        refresh it)."""
        hit = self._supports.get(node)
        if hit is not None:
            return hit
        out = 0
        seen = set()
        stack = [node]
        while stack:
            v = stack.pop()
            if v in seen or v == 0:
                continue
            seen.add(v)
            if v < self.first_and:
                out |= 1 << (v - 1)
            else:
                stack.append(self.fan0[v] >> 1)
                stack.append(self.fan1[v] >> 1)
        self._supports[node] = out
        return out

    # -- candidate evaluation

    def trial(self, root, tree, cap=math.inf):
        """Exact gain of replacing root's function with the candidate tree,
        without mutating.  Returns (gain, tree), or None for a no-op or as
        soon as the tree plans more than ``cap`` new nodes: with ``cap`` at
        ``len(self.mffc(root))``, that gain would be negative.

        ``tree`` nests ('lit', l) / ('and', t, t) / ('not', t) over existing
        literals.  Planned nodes are deduplicated against the hash table and
        each other; references they place on existing nodes pin those nodes
        when computing the freed count.
        """
        overlay = {}
        planned = [0]
        pins = {}

        def walk(t):
            if t[0] == "lit":
                return t[1]
            if t[0] == "not":
                v = walk(t[1])
                return lit_not(v) if isinstance(v, int) else (v[0], v[1], v[2] ^ 1)
            a = walk(t[1])
            b = walk(t[2])
            if isinstance(a, int) and isinstance(b, int):
                key = and_key(a, b)
                if type(key) is int:
                    return key
                hit = self.table.get(key)
                if hit is not None:
                    return lit(hit)
            ka, kb = sorted((a, b), key=_vkey)
            hit = overlay.get((ka, kb))
            if hit is not None:
                return hit
            planned[0] += 1
            if planned[0] > cap:
                raise _OverCap
            for f in (a, b):
                if isinstance(f, int):
                    pins[f >> 1] = pins.get(f >> 1, 0) + 1
            vl = ("p", len(overlay), 0)
            overlay[(ka, kb)] = vl
            return vl

        try:
            out = walk(tree)
        except _OverCap:
            return None
        added = planned[0]
        if isinstance(out, int):
            if (out >> 1) == root:
                return None
            pins[out >> 1] = pins.get(out >> 1, 0) + self.nref[root]
        return len(self.mffc(root, pins)) - added, tree

    def commit(self, root, tree):
        def build(t):
            if t[0] == "lit":
                return t[1]
            if t[0] == "not":
                return lit_not(build(t[1]))
            return self.and2(build(t[1]), build(t[2]))

        new_lit = build(tree)
        if (new_lit >> 1) == root or self._in_cone(root, new_lit >> 1):
            return
        self.replace(root, new_lit)

    def _in_cone(self, node, top):
        """True when ``node`` lies in the fanin cone of ``top``.  Guards
        replace() against candidates that hash onto structures built over
        the node being replaced (cannot happen for irredundant covers,
        but cheap to rule out)."""
        stack = [top]
        seen = set()
        while stack:
            v = stack.pop()
            if v == node:
                return True
            if v in seen or v < self.first_and:
                continue
            seen.add(v)
            stack.append(self.fan0[v] >> 1)
            stack.append(self.fan1[v] >> 1)
        return False

    def rebuild(self) -> AigGraph:
        """Compact the live reachable structure into a fresh AigGraph.

        Node indices stop being topologically ordered once replace() has
        run, so the nodes are re-added in depth-first post-order from the
        POs.
        """
        done = set(range(self.first_and))
        order = []
        for pl in self.pos:
            stack = [pl >> 1]
            while stack:
                u = stack[-1]
                if u in done:
                    stack.pop()
                    continue
                deps = [x for x in (self.fan0[u] >> 1, self.fan1[u] >> 1)
                        if x not in done]
                if deps:
                    stack.extend(deps)
                    continue
                done.add(u)
                order.append(u)
                stack.pop()
        return _rehash(self.pi_names, self.fan0, self.fan1, 0, order,
                       zip(self.po_names, self.pos))

    def check(self):
        """Internal consistency assertions (used by tests)."""
        refs = {}
        for node in range(self.first_and, len(self.fan0)):
            if self.dead[node]:
                continue
            for f in (self.fan0[node], self.fan1[node]):
                refs[f >> 1] = refs.get(f >> 1, 0) + 1
                assert not (f >> 1 >= self.first_and and self.dead[f >> 1])
                assert node in self.fanouts[f >> 1]
        for pl in self.pos:
            refs[pl >> 1] = refs.get(pl >> 1, 0) + 1
        for v in range(len(self.fan0)):
            assert self.nref[v] == refs.get(v, 0), (v, self.nref[v], refs.get(v, 0))
        live = sum(1 for v in range(self.first_and, len(self.fan0))
                   if not self.dead[v])
        assert self.live == live


# ---------------------------------------------------------------------------
# truth-table synthesis: irredundant SOP + algebraic factoring

def isop(f, m):
    """Minato-Morreale irredundant sum-of-products.

    Returns cubes as (pos_mask, neg_mask) pairs over variables 0..m-1; the
    empty cube (0, 0) is the tautology.  The table's variable order is
    reversed first, so splitting on variable ``var`` takes the low (0) and
    high (1) half of a table over variables var..m-1 that halves per level.
    """
    full = (1 << (1 << m)) - 1
    f &= full
    for j in range(m // 2):  # delta swap of variables j and m-1-j
        d = (1 << (m - 1 - j)) - (1 << j)
        x = (f ^ (f >> d)) & tt_var(j, m) & ~tt_var(m - 1 - j, m)
        f ^= x | (x << d)
    ones = [(1 << (1 << k)) - 1 for k in range(m + 1)]

    def rec(lo, up, var):
        # lo != 0 and up is not the tautology of its 2^(m - var) rows
        if var >= m:
            raise RestructureError("isop ran out of variables")
        half = 1 << (m - 1 - var)
        low = ones[m - 1 - var]
        lo0, lo1, up0, up1 = lo & low, lo >> half, up & low, up >> half
        if lo0 == lo1 and up0 == up1:  # neither depends on var: skip it
            cubes, cov = rec(lo0, up0, var + 1)
            return cubes, cov | (cov << half)
        # a child with lo == 0 or up all ones is answered here, not by a call
        l = lo0 & ~up1
        c0, cov0 = (rec(l, up0, var + 1) if l and up0 != low
                    else ([(0, 0)], low) if l else ([], 0))
        l = lo1 & ~up0
        c1, cov1 = (rec(l, up1, var + 1) if l and up1 != low
                    else ([(0, 0)], low) if l else ([], 0))
        l, u = (lo0 & ~cov0) | (lo1 & ~cov1), up0 & up1
        cs, covs = (rec(l, u, var + 1) if l and u != low
                    else ([(0, 0)], low) if l else ([], 0))
        bit = 1 << var
        return ([(p, q | bit) for p, q in c0] + [(p | bit, q) for p, q in c1]
                + cs, cov0 | covs | ((cov1 | covs) << half))

    if f == 0:
        return []
    if f == full:
        return [(0, 0)]
    cubes, cover = rec(f, f, 0)
    if cover != f:
        raise RestructureError("isop: cover differs from the function")
    return cubes


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _factor(cubes):
    """Algebraic factoring of a cube list into a ('literal'|'and'|'or'|'const')
    tree; divides by the most frequent literal, the lowest variable on a tie
    and then the positive one."""
    cubes = list(dict.fromkeys(cubes))
    if not cubes:
        return ("const", 0)
    if (0, 0) in cubes:
        return ("const", 1)
    return _factor_distinct(cubes)


def _factor_distinct(cubes):
    # cubes: distinct, non-empty and without the tautology (0, 0); the
    # quotients and remainders of distinct cubes stay distinct
    if len(cubes) == 1:
        return _cube_tree(cubes[0])
    counts = {}  # literal key 2 * (1 << v) + negated: order is the tie-break
    for p, q in cubes:
        while p:
            b = p & -p
            p ^= b
            counts[2 * b] = counts.get(2 * b, 0) + 1
        while q:
            b = q & -q
            q ^= b
            counts[2 * b + 1] = counts.get(2 * b + 1, 0) + 1
    best = key = 0
    for k, c in counts.items():
        if c > best or (c == best and k < key):
            best, key = c, k
    if best < 2:
        return _balanced("or", [_cube_tree(c) for c in cubes])
    bit, neg = key >> 1, key & 1
    quot, rest = [], []
    for p, q in cubes:
        if neg and q & bit:
            quot.append((p, q & ~bit))
        elif not neg and p & bit:
            quot.append((p & ~bit, q))
        else:
            rest.append((p, q))
    div = ("literal", bit.bit_length() - 1, 1 - neg)
    inner = div if (0, 0) in quot else ("and", div, _factor_distinct(quot))
    return ("or", inner, _factor_distinct(rest)) if rest else inner


def _cube_tree(cube):
    p, q = cube
    lits = ([("literal", v, 1) for v in _bits(p)]
            + [("literal", v, 0) for v in _bits(q)])
    if not lits:
        return ("const", 1)
    return _balanced("and", lits)


def _balanced(op, items):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return (op, _balanced(op, items[:mid]), _balanced(op, items[mid:]))


def _tree_cost(tree):
    if tree[0] in ("const", "literal"):
        return 0
    return 1 + _tree_cost(tree[1]) + _tree_cost(tree[2])


def _to_lit_tree(tree, leaf_lits):
    kind = tree[0]
    if kind == "const":
        return ("lit", TRUE if tree[1] else FALSE)
    if kind == "literal":
        _, v, pol = tree
        l = leaf_lits[v]
        return ("lit", l if pol else lit_not(l))
    if kind == "and":
        return ("and", _to_lit_tree(tree[1], leaf_lits),
                _to_lit_tree(tree[2], leaf_lits))
    return ("not", ("and",
                    ("not", _to_lit_tree(tree[1], leaf_lits)),
                    ("not", _to_lit_tree(tree[2], leaf_lits))))


def _factored(tt, m):
    """The leaf-independent half of synth_tree: (inverted, tree over leaf
    indices), the cheaper of the factored ISOP of tt and of its complement."""
    full = (1 << (1 << m)) - 1
    if tt == 0:
        return False, ("const", 0)
    if tt == full:
        return False, ("const", 1)
    for v in range(m):
        pv = tt_var(v, m)
        if tt == pv:
            return False, ("literal", v, 1)
        if tt == (~pv & full):
            return False, ("literal", v, 0)
    pos = _factor(isop(tt, m))
    neg = _factor(isop(~tt & full, m))
    if _tree_cost(neg) < _tree_cost(pos):
        return True, neg
    return False, pos


def synth_tree(tt, m, leaf_lits, memo):
    """Candidate structure for a truth table over leaf_lits: the cheaper of
    the factored ISOP of the function and of its complement.

    memo maps (tt, m) to _factored's result; a pass passes one dict to all
    its calls, so each function it meets is synthesized once.
    """
    tt &= (1 << (1 << m)) - 1
    key = (tt, m)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _factored(tt, m)
    inverted, tree = hit
    out = _to_lit_tree(tree, leaf_lits)
    return ("not", out) if inverted else out


# ---------------------------------------------------------------------------
# passes

def balance(g: AigGraph, seed=0) -> AigGraph:
    """Rebuild AND trees level-minimally.  Tie-breaks among equal-level
    operands are seeded, which varies structure without affecting depth."""
    g = strash(g)
    rng = random.Random(seed)
    roots = tree_roots(g, range(1 + g.n_pis, g.n_nodes))
    b = AigBuilder(g.pi_names, hashing=True)
    levels = {v: 0 for v in range(1 + g.n_pis)}
    balanced = {}

    def mapped(f):
        v = f >> 1
        if not g.is_and(v):
            return f
        return balanced[v] ^ (f & 1)

    for node in sorted(roots):
        groups = {}
        for l in map(mapped, tree_leaves(g, node, roots)):
            groups.setdefault(levels.get(l >> 1, 0), []).append(l)
        pool = []
        for lv in sorted(groups):
            grp = sorted(groups[lv])
            rng.shuffle(grp)
            pool.extend((lv, l) for l in grp)
        while len(pool) > 1:
            pool.sort(key=lambda t: t[0])
            (l0, a), (l1, c) = pool[0], pool[1]
            pool = pool[2:]
            nl = b.and2(a, c)
            lv = levels.get(nl >> 1)
            if lv is None:
                lv = 1 + max(l0, l1)
                levels[nl >> 1] = lv
            pool.append((lv, nl))
        balanced[node] = pool[0][1]
    for nm, l in g.pos:
        b.add_po(nm, mapped(l))
    out = strip_unreachable(b.build())
    if out.max_level > g.max_level:
        raise RestructureError("balance increased the logic depth")
    return out


def _resynthesize(g: AigGraph, seed, name, leaf_sets) -> AigGraph:
    """The loop rewrite and refactor share: for each live node of the input
    graph, take the truth table of every leaf set ``leaf_sets(w, node)``
    yields, synthesize it, and commit the candidate of best non-negative
    gain (ties broken by the seeded rng)."""
    rng = random.Random(seed)
    w = _Work(g)
    before = w.live
    memo = {}
    for node in range(w.first_and, g.n_nodes):
        if w.dead[node] or w.nref[node] == 0:
            continue
        cand = []
        cap = len(w.mffc(node))
        for leaves in leaf_sets(w, node):
            if len(leaves) < 2 or any(v >= w.first_and and w.dead[v]
                                      for v in leaves):
                continue
            tt = w.cone_tt(node, leaves)
            if tt is None:
                continue
            tree = synth_tree(tt, len(leaves), [lit(v) for v in leaves], memo)
            res = w.trial(node, tree, cap)
            if res is not None and res[0] >= 0:
                cand.append(res)
        if not cand:
            continue
        best = max(c[0] for c in cand)
        top = [c for c in cand if c[0] == best]
        _, plan = top[rng.randrange(len(top))] if len(top) > 1 else top[0]
        w.commit(node, plan)
    if w.live > before:
        raise RestructureError(f"{name} grew the AND count")
    return w.rebuild()


def rewrite(g: AigGraph, cut_size=4, max_cuts=8, seed=0) -> AigGraph:
    """Cut-based local rewriting: resynthesize each node's cut function from
    its truth table; replacements accepted only with non-negative gain."""
    g = strash(g)
    node_cuts = enumerate_cuts(g, cut_size, max_cuts)
    return _resynthesize(g, seed, "rewrite", lambda w, node: node_cuts[node])


def _greedy_cone(w, node, max_cone_inputs):
    """Leaves of a reconvergent cone: starting from node's fanins, expand
    the leaf whose fanins give the smallest leaf set, while it fits."""
    leaves = {w.fan0[node] >> 1, w.fan1[node] >> 1}
    for _ in range(4 * max_cone_inputs):
        best_leaf, best_sz = None, None
        for v in sorted(leaves):
            if v < w.first_and or w.dead[v]:
                continue
            nxt = (leaves - {v}) | {w.fan0[v] >> 1, w.fan1[v] >> 1}
            if len(nxt) > max_cone_inputs:
                continue
            if best_sz is None or len(nxt) < best_sz:
                best_leaf, best_sz = v, len(nxt)
        if best_leaf is None:
            break
        leaves = ((leaves - {best_leaf})
                  | {w.fan0[best_leaf] >> 1, w.fan1[best_leaf] >> 1})
    return tuple(sorted(leaves - {0}))


def refactor(g: AigGraph, max_cone_inputs=10, seed=0) -> AigGraph:
    """Collapse reconvergent cones to truth tables and rebuild them from a
    factored irredundant SOP; accepted only when node count does not grow."""
    if max_cone_inputs > 16:
        raise ValueError("max_cone_inputs is capped at 16 (truth-table width)")
    return _resynthesize(
        strash(g), seed, "refactor",
        lambda w, node: (_greedy_cone(w, node, max_cone_inputs),))


def resubstitute(g: AigGraph, max_divisors=20, seed=0) -> AigGraph:
    """Re-express nodes over existing divisors when that strictly reduces
    node count.  Candidates are filtered by simulation signatures and
    validated by an exact check over the local PI support."""
    g = strash(g)
    rng = random.Random(seed ^ 0x5EED)
    mask = (1 << 128) - 1
    sig = aig_simulate(g, [rng.getrandbits(128) for _ in range(g.n_pis)], 128)
    w = _Work(g)
    before = w.live
    for node in range(1 + g.n_pis, g.n_nodes):
        if w.dead[node] or w.nref[node] == 0:
            continue
        mffc = w.mffc(node)
        s_node = w.support(node)
        pi_nodes = tuple(1 + k for k in _bits(s_node))
        if not pi_nodes or len(pi_nodes) > 20:
            continue
        full = (1 << (1 << len(pi_nodes))) - 1
        divs = []
        for d in range(1, node):
            if d >= w.first_and and (w.dead[d] or w.nref[d] == 0):
                continue
            if d in mffc:
                continue
            if w.support(d) & ~s_node:
                continue
            divs.append(d)
            if len(divs) >= max_divisors:
                break
        if not divs:
            continue
        sig_n = sig[node]
        tt_n = None
        done = False
        for d in divs:  # 0-resub
            comp = None
            if sig[d] == sig_n:
                comp = 0
            elif (sig[d] ^ mask) == sig_n:
                comp = 1
            if comp is None:
                continue
            if tt_n is None:
                tt_n = w.cone_tt(node, pi_nodes)
            tt_d = w.cone_tt(d, pi_nodes)
            if tt_d is None or tt_n is None:
                continue
            # after a replace() a divisor may lie in node's fanout: skip it
            if ((tt_d ^ (full if comp else 0)) == tt_n
                    and not w._in_cone(node, d)):
                w.replace(node, lit(d, comp))
                done = True
                break
        if done or len(mffc) < 2:
            continue
        for i1 in range(len(divs)):  # 1-resub
            if done:
                break
            for i2 in range(i1 + 1, len(divs)):
                d1, d2 = divs[i1], divs[i2]
                s1, s2 = sig[d1], sig[d2]
                found = None
                for c1 in (0, 1):
                    for c2 in (0, 1):
                        v = (s1 ^ (mask if c1 else 0)) & (s2 ^ (mask if c2 else 0))
                        if v == sig_n:
                            found = (c1, c2, 0)
                        elif (v ^ mask) == sig_n:
                            found = (c1, c2, 1)
                        if found:
                            break
                    if found:
                        break
                if not found:
                    continue
                c1, c2, oc = found
                if tt_n is None:
                    tt_n = w.cone_tt(node, pi_nodes)
                t1 = w.cone_tt(d1, pi_nodes)
                t2 = w.cone_tt(d2, pi_nodes)
                if tt_n is None or t1 is None or t2 is None:
                    continue
                v = (t1 ^ (full if c1 else 0)) & (t2 ^ (full if c2 else 0))
                if (v ^ (full if oc else 0)) != tt_n:
                    continue
                tree = ("and", ("lit", lit(d1, c1)), ("lit", lit(d2, c2)))
                if oc:
                    tree = ("not", tree)
                res = w.trial(node, tree)
                if res is None:
                    continue
                gain, plan = res
                if gain >= 1:
                    w.commit(node, plan)
                    done = True
                    break
    if w.live > before:
        raise RestructureError("resubstitute grew the AND count")
    return w.rebuild()


def fraig(g: AigGraph, sim_words=16, seed=0) -> AigGraph:
    """Functionally reduce: group nodes into candidate classes by random
    simulation, prove merges exactly over the pair's PI support, and rebuild
    with proven-equivalent nodes shared.  Pairs over more than 20 PIs are
    left unresolved and never merged."""
    g = strash(g)
    rng = random.Random(seed)
    width = 64 * max(1, sim_words)
    mask = (1 << width) - 1
    pi_words = [rng.getrandbits(width) for _ in range(g.n_pis)]
    sigs = aig_simulate(g, pi_words, width)
    w = _Work(g)

    def proven_equal(a, b_, comp):
        """True / False for f_a == f_b ^ comp, None (unresolved) when the
        pair's PI support exceeds 20."""
        pis = tuple(1 + k for k in _bits(w.support(a) | w.support(b_)))
        if len(pis) > 20:
            return None
        ta = w.cone_tt(a, pis, max_steps=math.inf)
        tb = w.cone_tt(b_, pis, max_steps=math.inf)
        full = (1 << (1 << len(pis))) - 1
        return ta == (tb ^ (full if comp else 0))

    b = AigBuilder(g.pi_names, hashing=True)
    node_map = {0: TRUE}
    classes = {}

    def canon(s):
        return s if not (s & 1) else (~s & mask)

    classes[canon(sigs[0])] = [0]
    for k in range(g.n_pis):
        node_map[1 + k] = b.pi(k)
        classes.setdefault(canon(sigs[1 + k]), []).append(1 + k)
    base = 1 + g.n_pis
    for j in range(g.n_ands):
        node = base + j
        s = sigs[node]
        for rep in classes.get(canon(s), ()):
            comp = 0 if sigs[rep] == s else 1
            if proven_equal(rep, node, comp) is True:
                node_map[node] = node_map[rep] ^ comp
                break
        else:
            f0, f1 = g.fan0[j], g.fan1[j]
            classes.setdefault(canon(s), []).append(node)
            node_map[node] = b.and2(node_map[f0 >> 1] ^ (f0 & 1),
                                    node_map[f1 >> 1] ^ (f1 & 1))
    for nm, l in g.pos:
        b.add_po(nm, node_map[l >> 1] ^ (l & 1))
    out = strip_unreachable(b.build())
    if out.n_ands > g.n_ands:
        raise RestructureError("fraig grew the AND count")
    return out


# ---------------------------------------------------------------------------
# recipes

# pass name -> {keyword param its pass function takes: least value} (see
# _run_step); below it a pass changes nothing (a cut or a cone needs two
# leaves, one cut slot is the trivial cut) or reads the value as the least
PASS_PARAMS = {"strash": {}, "balance": {},
               "rewrite": {"cut_size": 2, "max_cuts": 2},
               "refactor": {"max_cone_inputs": 2}, "resub": {"max_divisors": 1},
               "fraig": {"sim_words": 1}, "gate_size": {}}


@dataclass(frozen=True)
class PassStep:
    name: str
    params: tuple = ()  # sorted (key, value) pairs
    seed: int = 0

    def param_dict(self):
        return dict(self.params)


@dataclass(frozen=True)
class Recipe:
    id: int
    steps: tuple

    def __post_init__(self):
        if not self.steps or self.steps[0].name != "strash":
            raise ValueError("every recipe must begin with strash")
        for s in self.steps:
            if s.name not in PASS_PARAMS:
                raise ValueError(f"unknown pass '{s.name}'")
            for key, value in s.params:
                if key not in PASS_PARAMS[s.name]:
                    raise ValueError(f"unknown param '{key}' for pass '{s.name}'")
                if value < PASS_PARAMS[s.name][key]:
                    raise ValueError(f"param '{key}' for pass '{s.name}' must be "
                                     f">= {PASS_PARAMS[s.name][key]}, got {value}")


@dataclass
class PassReport:
    name: str
    nodes_before: int
    nodes_after: int
    levels_before: int
    levels_after: int
    wall_time: float
    params: dict = field(default_factory=dict)
    equivalence_checked: bool = False
    check_mode: str = ""

    def to_dict(self):
        return {
            "pass": self.name, "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after, "levels_before": self.levels_before,
            "levels_after": self.levels_after, "wall_time": self.wall_time,
            "params": self.params, "equivalence_checked": self.equivalence_checked,
            "check_mode": self.check_mode,
        }


def _s(name, seed=0, **params):
    return PassStep(name, tuple(sorted(params.items())), seed)


RECIPES = {
    1: Recipe(1, (_s("strash"), _s("balance"))),
    2: Recipe(2, (_s("strash"), _s("rewrite"))),
    3: Recipe(3, (_s("strash"), _s("rewrite"), _s("balance", seed=3))),
    4: Recipe(4, (_s("strash"), _s("refactor"))),
    5: Recipe(5, (_s("strash"), _s("refactor"), _s("balance", seed=5))),
    6: Recipe(6, (_s("strash"), _s("resub"))),
    7: Recipe(7, (_s("strash"), _s("balance", seed=7), _s("rewrite"),
                  _s("refactor"))),
    8: Recipe(8, (_s("strash"), _s("fraig"))),
    9: Recipe(9, (_s("strash"), _s("rewrite"), _s("resub"),
                  _s("balance", seed=9))),
    10: Recipe(10, (_s("strash"), _s("refactor"), _s("rewrite"))),
    11: Recipe(11, (_s("strash"), _s("gate_size"))),
    12: Recipe(12, (_s("strash"), _s("balance", seed=12), _s("gate_size"))),
    13: Recipe(13, (_s("strash"), _s("fraig"), _s("balance", seed=13))),
    14: Recipe(14, (_s("strash"), _s("rewrite", cut_size=5),
                    _s("rewrite", seed=14))),
    15: Recipe(15, (_s("strash"), _s("refactor", max_cone_inputs=12),
                    _s("resub", max_divisors=24))),
    16: Recipe(16, (_s("strash"), _s("resub"), _s("fraig"),
                    _s("rewrite", seed=16))),
    17: Recipe(17, (_s("strash"), _s("balance", seed=17), _s("refactor"),
                    _s("resub"), _s("rewrite"), _s("gate_size"))),
    18: Recipe(18, (_s("strash"), _s("fraig"), _s("rewrite"), _s("refactor"),
                    _s("balance", seed=18))),
}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def recipe_from_steps(steps) -> Recipe:
    """Build a user recipe from [{'pass': name, 'params': {...}, 'seed': n}].

    'params' maps names to ints and 'seed' is an int, both optional; any
    other shape raises ValueError naming the step index.
    """
    if not isinstance(steps, list):
        raise ValueError("a recipe must be a list of steps")
    parsed = []
    for i, d in enumerate(steps):
        if not isinstance(d, dict) or not isinstance(d.get("pass"), str):
            raise ValueError(f"recipe step {i}: needs a string 'pass'")
        extra = set(d) - {"pass", "params", "seed"}
        if extra:
            raise ValueError(
                f"recipe step {i}: unknown keys {sorted(extra, key=str)}")
        params = d.get("params", {})
        if not (isinstance(params, dict)
                and all(isinstance(k, str) and _is_int(v)
                        for k, v in params.items())):
            raise ValueError(
                f"recipe step {i}: 'params' must map names to ints")
        seed = d.get("seed", 0)
        if not _is_int(seed):
            raise ValueError(f"recipe step {i}: 'seed' must be an int")
        parsed.append(PassStep(d["pass"], tuple(sorted(params.items())), seed))
    if not parsed or parsed[0].name != "strash":
        parsed.insert(0, PassStep("strash"))
    return Recipe(0, tuple(parsed))


def _stream_seed(master, *tags):
    """A 64-bit seed split from ``master`` by SHA-256 over the tags."""
    blob = ":".join(str(t) for t in (master,) + tags).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _run_step(aig, step, eff_seed):
    p = step.param_dict()
    if step.name == "strash":
        return strash(aig)
    if step.name == "balance":
        return balance(aig, seed=eff_seed)
    if step.name == "rewrite":
        return rewrite(aig, seed=eff_seed, **p)
    if step.name == "refactor":
        return refactor(aig, seed=eff_seed, **p)
    if step.name == "resub":
        return resubstitute(aig, seed=eff_seed, **p)
    if step.name == "fraig":
        return fraig(aig, seed=eff_seed, **p)
    if step.name == "gate_size":
        return aig  # grouping applies at netlist emission
    raise ValueError(f"unknown pass '{step.name}'")


def apply_recipe(n: Netlist, recipe: Recipe, seed=0, exhaustive_bound=24,
                 sample_vectors=100_000):
    """Run a recipe over a netlist; returns (netlist, pass reports).

    The output preserves PI/PO names and order and is equivalence-checked
    against the input (exhaustive up to ``exhaustive_bound`` PIs, randomized
    miter sampling above).  A check failure raises RestructureError naming
    the offending pass.
    """
    from .equiv import CheckConfig, check_equivalence

    cfg = CheckConfig(exhaustive_bound=exhaustive_bound,
                      sample_vectors=sample_vectors, seed=seed)
    aig = to_aig(n)
    group = any(s.name == "gate_size" for s in recipe.steps)
    reports = []
    stages = [aig]
    for idx, step in enumerate(recipe.steps):
        eff = _stream_seed(seed, recipe.id, idx, step.seed)
        t0 = time.perf_counter()
        nxt = _run_step(aig, step, eff)
        reports.append(PassReport(step.name, aig.n_ands, nxt.n_ands,
                                  aig.max_level, nxt.max_level,
                                  time.perf_counter() - t0, step.param_dict()))
        aig = nxt
        stages.append(aig)
    out = from_aig(aig, group_multi_input_and=group, name=n.name)
    verdict = check_equivalence(n, out, cfg)
    if verdict.result == "counterexample":
        culprit = _culprit(n, recipe, stages, verdict.counterexample)
        raise RestructureError(
            f"recipe {recipe.id}: pass '{culprit}' broke functional "
            "equivalence (internal bug)")
    for r in reports:
        r.equivalence_checked = True
        r.check_mode = verdict.mode
    return out, reports


def _culprit(n, recipe, stages, cex):
    """Replay the check's counterexample through the kept stages: the first
    stage whose outputs differ from ``n``'s names its maker (``to_aig`` for
    stage 0), and if none differs the fault lies in ``from_aig``."""
    want = simulate(n, cex)
    makers = ["to_aig"] + [step.name for step in recipe.steps]
    for maker, stage in zip(makers, stages):
        got = simulate(from_aig(stage), cex)
        if any(got[po] != want[po] for po in n.outputs):
            return maker
    return "from_aig"
