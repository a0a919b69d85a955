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
    cone_tt,
    enumerate_cuts,
    from_aig,
    lit,
    merge_proven,
    strash,
    strip_unreachable,
    to_aig,
    tree_leaves,
    tree_roots,
    tt_var,
)
from .netlist import EXHAUSTIVE_PIS, MAX_TT_INPUTS, Netlist, _check, simulate


class RestructureError(Exception):
    """Raised when a pipeline equivalence check fails (an internal bug trap)."""


# the most cuts rewrite keeps per node, and the widest PI support over
# which resubstitute and fraig prove a candidate; the widest truth table
# rewrite and refactor synthesize is netlist.MAX_TT_INPUTS
MAX_CUTS = 16
MAX_PROOF_PIS = 20

# per width m up to MAX_TT_INPUTS: the all-ones table and the m leaf
# patterns over it, built once at import for the synthesis kernels below
_LEAF_TTS = tuple(((1 << (1 << m)) - 1, tuple(tt_var(j, m) for j in range(m)))
                  for m in range(MAX_TT_INPUTS + 1))


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

    def cone_tt(self, root, leaves):
        """aig.cone_tt of root over the leaf nodes in this graph: None when
        the cone escapes the leaves (stale cut) or takes more than 512 walk
        steps."""
        return cone_tt(self.fan0, self.fan1, self.first_and, self.dead,
                       root, leaves, 512)

    def support(self, node):
        """PI-index bitmask of the structural support of a node.  Every
        node the walk passes is memoized as the union of its fanins'
        supports, and replace() does not refresh the memo.  resubstitute
        asks in node order, and a replace() rewires only the fanout of the
        node it visits, which no earlier walk has passed unless it started
        at a divisor inside that fanout; _divisors reads the memo in place.
        Tests compare every value read with a fresh walk."""
        memo = self._supports
        stack = [node]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
            elif v < self.first_and:
                memo[v] = (1 << v) >> 1
                stack.pop()
            else:
                a, b = self.fan0[v] >> 1, self.fan1[v] >> 1
                sa, sb = memo.get(a), memo.get(b)
                if sa is None or sb is None:
                    if sa is None:
                        stack.append(a)
                    if sb is None:
                        stack.append(b)
                    continue
                memo[v] = sa | sb
                stack.pop()
        return memo[node]

    # -- candidate evaluation

    def trial(self, root, plan, cap=math.inf):
        """Exact gain of replacing root's function with the candidate plan,
        without mutating.  Returns (gain, (overlay, out)), or None for a
        no-op or as soon as the plan adds more than ``cap`` new nodes: with
        ``cap`` at ``len(self.mffc(root))``, that gain would be negative.

        A plan is (inverted, program, leaf literals), the program as
        _emit writes it.  ``overlay`` maps the fanin pairs of the nodes
        and2 would add, in that order, to literals from ``2 * len(self.fan0)``
        up; ``out`` is the plan's literal.  References they place on
        existing nodes pin those nodes when computing the freed count.
        """
        inverted, program, leaf_lits = plan
        first = 2 * len(self.fan0)
        table = self.table
        overlay, pins = {}, {}
        vals = [TRUE, FALSE]
        for l in leaf_lits:
            vals += (l, l ^ 1)
        for a, b, c in program:
            a, b = vals[a] ^ c, vals[b] ^ c
            if a == b or b == TRUE:  # and_key's rules, inlined: 1/4 faster
                r = a
            elif a == TRUE:
                r = b
            elif a == b ^ 1 or a == FALSE or b == FALSE:
                r = FALSE
            else:
                key = (a, b) if a < b else (b, a)
                hit = table.get(key) if key[1] < first else None
                if hit is not None:
                    r = 2 * hit
                else:
                    r = overlay.get(key)
                    if r is None:
                        if len(overlay) >= cap:
                            return None
                        for f in key:
                            if f < first:
                                pins[f >> 1] = pins.get(f >> 1, 0) + 1
                        r = overlay[key] = first + 2 * len(overlay)
            vals.append(r ^ c)
        out = vals[-1] ^ inverted
        if out < first:
            if (out >> 1) == root:
                return None
            pins[out >> 1] = pins.get(out >> 1, 0) + self.nref[root]
        return len(self.mffc(root, pins)) - len(overlay), (overlay, out)

    def commit(self, root, cand, stop=()):
        """Add the nodes trial() planned, in its order, then replace root by
        the candidate's literal unless that reads root (the check walks down
        to the PIs and the ``stop`` nodes); returns whether it replaced."""
        overlay, out = cand
        for node, pair in enumerate(overlay, len(self.fan0)):
            if self.and2(*pair) != lit(node):
                raise RestructureError(f"a node planned for {root} did not "
                                       "get its planned literal")
        if self._in_cone(root, out >> 1, stop):
            return False
        self.replace(root, out)
        return True

    def _in_cone(self, node, top, stop=()):
        """True when ``node`` lies in the fanin cone of ``top``, walked down
        to the PIs and the ``stop`` nodes.  Guards replace() against a
        candidate that hashes onto structure over the node it replaces; a
        resubstitution divisor may even lie in node's fanout."""
        stack = [top]
        seen = set()
        while stack:
            v = stack.pop()
            if v == node:
                return True
            if v in seen or v < self.first_and or v in stop:
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
        """Internal consistency checks (used by tests).  Raises
        AssertionError on the first broken invariant, also under -O."""
        refs = {}
        for node in range(self.first_and, len(self.fan0)):
            if self.dead[node]:
                continue
            for f in (self.fan0[node], self.fan1[node]):
                refs[f >> 1] = refs.get(f >> 1, 0) + 1
                if f >> 1 >= self.first_and and self.dead[f >> 1]:
                    raise AssertionError(f"node {node} reads dead node {f >> 1}")
                if node not in self.fanouts[f >> 1]:
                    raise AssertionError(
                        f"node {node} missing from fanouts of {f >> 1}")
        for pl in self.pos:
            refs[pl >> 1] = refs.get(pl >> 1, 0) + 1
        for v in range(len(self.fan0)):
            if self.nref[v] != refs.get(v, 0):
                raise AssertionError(
                    f"nref[{v}] is {self.nref[v]}, counted {refs.get(v, 0)}")
        live = sum(1 for v in range(self.first_and, len(self.fan0))
                   if not self.dead[v])
        if self.live != live:
            raise AssertionError(f"live is {self.live}, counted {live}")


# ---------------------------------------------------------------------------
# truth-table synthesis: irredundant SOP + algebraic factoring

# isop's constants per width m up to MAX_TT_INPUTS: (delta, mask) of the
# swap of variables j and m-1-j for each j < m // 2, and per level var the
# half width, the low half's mask and the cube bit
_SWAPS = tuple(tuple(((1 << (m - 1 - j)) - (1 << j), pats[j] & ~pats[m - 1 - j])
                     for j in range(m // 2))
               for m, (_, pats) in enumerate(_LEAF_TTS))
_LEVELS = tuple(tuple((1 << (m - 1 - var), _LEAF_TTS[m - 1 - var][0], 1 << var)
                      for var in range(m))
                for m in range(MAX_TT_INPUTS + 1))


def isop(f, m):
    """Minato-Morreale irredundant sum-of-products of a table over at most
    MAX_TT_INPUTS variables.

    Returns cubes as (pos_mask, neg_mask) pairs over variables 0..m-1; the
    empty cube (0, 0) is the tautology.  The table's variable order is
    reversed first, so splitting on variable ``var`` takes the low (0) and
    high (1) half of a table over variables var..m-1 that halves per level.
    """
    full = _LEAF_TTS[m][0]
    f &= full
    for d, keep in _SWAPS[m]:  # delta swap of variables j and m-1-j
        x = (f ^ (f >> d)) & keep
        f ^= x | (x << d)
    levels = _LEVELS[m]
    cubes = []  # in call order, each with the literals fixed above it
    append = cubes.append

    def rec(lo, up, var, p, q):
        # lo != 0 and up is not the tautology of its 2^(m - var) rows;
        # returns the cover of the cubes this call appends
        if var >= m:
            raise RestructureError("isop ran out of variables")
        half, low, bit = levels[var]
        lo0, lo1, up0, up1 = lo & low, lo >> half, up & low, up >> half
        if lo0 == lo1 and up0 == up1:  # neither depends on var: skip it
            cov = rec(lo0, up0, var + 1, p, q)
            return cov | (cov << half)
        # a child with lo == 0 or up all ones is answered here, not by a call
        l = lo0 & ~up1
        if l and up0 != low:
            cov0 = rec(l, up0, var + 1, p, q | bit)
        elif l:
            append((p, q | bit))
            cov0 = low
        else:
            cov0 = 0
        l = lo1 & ~up0
        if l and up1 != low:
            cov1 = rec(l, up1, var + 1, p | bit, q)
        elif l:
            append((p | bit, q))
            cov1 = low
        else:
            cov1 = 0
        l, u = (lo0 & ~cov0) | (lo1 & ~cov1), up0 & up1
        if l and u != low:
            covs = rec(l, u, var + 1, p, q)
        elif l:
            append((p, q))
            covs = low
        else:
            covs = 0
        return cov0 | covs | ((cov1 | covs) << half)

    if f == 0:
        return []
    if f == full:
        return [(0, 0)]
    cover = rec(f, f, 0, 0, 0)
    if cover != f:
        raise RestructureError("isop: cover differs from the function")
    return cubes


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# a variable mask's literal counts as 16-bit fields, field v for variable
# v: _LIT_LO[x & 255] + _LIT_HI[x >> 8].  A literal of an irredundant cover
# over at most MAX_TT_INPUTS variables is in at most 2^15 cubes, each with
# a minterm of its own, so summed over the cubes no field overflows.
_LIT_LO = tuple(sum(1 << 16 * v for v in range(8) if x >> v & 1)
                for x in range(256))
_LIT_HI = tuple(c << 128 for c in _LIT_LO)


def _count(cubes, memo):
    """Count the algebraic factoring of a cube tuple (divide by the most
    frequent literal, the lowest variable on a tie, then the positive one)
    without building it.  Returns the tuple's entry in ``memo``: (ANDs,
    cubes) for an OR of the cubes' ANDs, else (ANDs, literal slot as in
    _emit, quotient entry or None, remainder entry or None)."""
    # cubes: distinct, non-empty and without the tautology (0, 0); the
    # quotients and remainders of distinct cubes stay distinct
    hit = memo.get(cubes)
    if hit is not None:
        return hit
    best = 0
    if len(cubes) > 1:
        lo, hi = _LIT_LO, _LIT_HI
        pos = neg = 0
        for p, q in cubes:
            pos += lo[p & 255] + hi[p >> 8]
            neg += lo[q & 255] + hi[q >> 8]
        # fields for v = 0, 1, ..., positive first: the first largest count
        # is the lowest variable on a tie, and then the positive one
        v = 0
        while pos or neg:
            c, d = pos & 0xFFFF, neg & 0xFFFF
            if c > best:
                best, var, neg_lit = c, v, 0
            if d > best:
                best, var, neg_lit = d, v, 1
            pos >>= 16
            neg >>= 16
            v += 1
    if best < 2:  # no literal is shared: each is in one AND of the OR
        out = memo[cubes] = (
            sum([p.bit_count() + q.bit_count() for p, q in cubes]) - 1, cubes)
        return out
    bit = 1 << var
    quot, rest = [], []
    for p, q in cubes:
        if neg_lit and q & bit:
            quot.append((p, q ^ bit))
        elif not neg_lit and p & bit:
            quot.append((p ^ bit, q))
        else:
            rest.append((p, q))
    quot = None if (0, 0) in quot else _count(tuple(quot), memo)
    rest = _count(tuple(rest), memo) if rest else None
    out = memo[cubes] = ((quot[0] + 1 if quot else 0)
                         + (rest[0] + 1 if rest else 0),
                         2 + 2 * var + neg_lit, quot, rest)
    return out


# the literal slots of a byte of a cube's masks, _SLOTS[k][x] for byte x:
# low (k = 0) and high (k = 1) byte of the positive mask, then the negative
_SLOTS = tuple(tuple(tuple(2 + 2 * v + 16 * (k & 1) + (k >> 1)
                           for v in range(8) if x >> v & 1) for x in range(256))
               for k in range(4))


def _emit(entry, m):
    """The program of a _count entry over m leaves: steps (a, b, c) in the
    factored form's left-first post-order, each cube a balanced AND and
    each undivided cover a balanced OR.  Slots 0 and 1 hold TRUE and FALSE,
    slot 2 + 2j + p leaf j complemented p times, and a step appends AND(slot
    a ^ c, slot b ^ c) ^ c, c = 1 for an OR; the last slot is the value."""
    steps = []
    base = 2 * m + 1
    lo, hi, nlo, nhi = _SLOTS

    def conj(slots):  # a balanced AND of literal slots
        if len(slots) == 1:
            return slots[0]
        mid = len(slots) // 2
        steps.append((conj(slots[:mid]), conj(slots[mid:]), False))
        return base + len(steps)

    def cover(cubes):  # a balanced OR of the cubes' ANDs
        if len(cubes) > 1:
            mid = len(cubes) // 2
            steps.append((cover(cubes[:mid]), cover(cubes[mid:]), True))
            return base + len(steps)
        p, q = cubes[0]
        return conj(lo[p & 255] + hi[p >> 8] + nlo[q & 255] + nhi[q >> 8])

    def walk(entry):
        if len(entry) == 2:
            return cover(entry[1])
        _, top, quot, rest = entry   # AND(literal, quot), then OR rest
        if quot:
            steps.append((top, walk(quot), False))
            top = base + len(steps)
        if rest:
            steps.append((top, walk(rest), True))
            top = base + len(steps)
        return top

    top = walk(entry)
    return tuple(steps) or ((top, top, 0),)


def _synth(tt, m):
    """(inverted, program) over m leaves of the factored ISOP of tt or of
    its complement, whichever has fewer ANDs, tt's on a tie (so a literal
    comes back as itself).  Both covers are counted in one memo that dies
    with the call, and only the kept one is emitted."""
    if m > MAX_TT_INPUTS:
        raise RestructureError(f"cannot synthesize {m} inputs, "
                               f"the most is {MAX_TT_INPUTS}")
    full = _LEAF_TTS[m][0]
    if tt == 0 or tt == full:
        top = int(tt == 0)
        return False, ((top, top, 0),)
    memo = {}
    pos = _count(tuple(isop(tt, m)), memo)
    neg = _count(tuple(isop(~tt & full, m)), memo)
    if neg[0] < pos[0]:
        return True, _emit(neg, m)
    return False, _emit(pos, m)


# ---------------------------------------------------------------------------
# passes

def balance(g: AigGraph, seed=0) -> AigGraph:
    """Rebuild AND trees level-minimally.  Tie-breaks among equal-level
    operands are seeded, which varies structure without affecting depth."""
    _check(seed, "seed", "int")
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
    memo = {}  # (tt, m) -> _synth(tt, m), for this pass only
    for node in range(w.first_and, g.n_nodes):
        if w.dead[node] or w.nref[node] == 0:
            continue
        cand = []
        cap = len(w.mffc(node))
        # a plan over the fanin pair node is hashed under yields node: no-op
        f0, f1 = w.fan0[node], w.fan1[node]
        own = (f0 >> 1, f1 >> 1) if w.table.get((f0, f1)) == node else None
        for leaves in leaf_sets(w, node):
            if (len(leaves) < 2 or leaves == own
                    or any(map(w.dead.__getitem__, leaves))):
                continue
            tt = w.cone_tt(node, leaves)
            if tt is None:
                continue
            key = (tt, len(leaves))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _synth(*key)
            res = w.trial(node, (*hit, [lit(v) for v in leaves]), cap)
            if res is not None and res[0] >= 0:
                cand.append((*res, leaves))
        if not cand:
            continue
        best = max(c[0] for c in cand)
        top = [c for c in cand if c[0] == best]
        _, res, leaves = top[rng.randrange(len(top))] if len(top) > 1 else top[0]
        w.commit(node, res, set(leaves))  # cone_tt reached them below node
    if w.live > before:
        raise RestructureError(f"{name} grew the AND count")
    return w.rebuild()


def rewrite(g: AigGraph, cut_size=4, max_cuts=8, seed=0) -> AigGraph:
    """Cut-based local rewriting: resynthesize each node's cut function from
    its truth table; replacements accepted only with non-negative gain."""
    _check(cut_size, "cut_size", "int", high=MAX_TT_INPUTS)
    _check(max_cuts, "max_cuts", "int", high=MAX_CUTS)
    _check(seed, "seed", "int")
    g = strash(g)
    node_cuts = enumerate_cuts(g, cut_size, max_cuts)
    return _resynthesize(g, seed, "rewrite", lambda w, node: node_cuts[node])


def _greedy_cone(w, node, max_cone_inputs):
    """Leaves of a reconvergent cone: starting from node's fanins, expand
    the leaf whose fanins give the smallest leaf set, while it fits."""
    fan0, fan1, first, dead = w.fan0, w.fan1, w.first_and, w.dead
    leaves = {fan0[node] >> 1, fan1[node] >> 1}
    for _ in range(4 * max_cone_inputs):
        best_leaf, best_sz = None, max_cone_inputs + 1
        rest = len(leaves) - 1
        for v in leaves:
            if v < first or dead[v]:
                continue
            a, b = fan0[v] >> 1, fan1[v] >> 1
            # the size of (leaves - {v}) | {a, b}; a fanin is never v
            sz = rest + (a not in leaves) + (b != a and b not in leaves)
            # ties go to the smallest v, whatever order the set iterates in
            if sz < best_sz or (sz == best_sz and best_leaf is not None
                                and v < best_leaf):
                best_leaf, best_sz = v, sz
        if best_leaf is None:
            break
        leaves.discard(best_leaf)
        leaves.add(fan0[best_leaf] >> 1)
        leaves.add(fan1[best_leaf] >> 1)
    return tuple(sorted(leaves - {0}))


def refactor(g: AigGraph, max_cone_inputs=10, seed=0) -> AigGraph:
    """Collapse reconvergent cones to truth tables and rebuild them from a
    factored irredundant SOP; accepted only when node count does not grow."""
    _check(max_cone_inputs, "max_cone_inputs", "int", high=MAX_TT_INPUTS)
    _check(seed, "seed", "int")
    return _resynthesize(
        strash(g), seed, "refactor",
        lambda w, node: (_greedy_cone(w, node, max_cone_inputs),))


def _resub_candidates(divs, sig, s_node, mask, pairs):
    """resubstitute's plans (inverted, program, leaf literals) for a node of
    signature ``s_node``, in the order it tries them: each divisor whose
    signature matches the node's or its complement, then, with ``pairs``,
    each divisor pair's first complement choice (c1, c2) whose AND matches."""
    for d in divs:
        if sig[d] == s_node or sig[d] ^ mask == s_node:
            yield sig[d] != s_node, ((2, 2, 0),), (lit(d),)
    if not pairs:
        return
    # an AND equals a target only if both operands cover it: per divisor and
    # phase, bit 1 says it covers s_node and bit 2 its complement
    n_node = s_node ^ mask
    cands = []
    for d in divs:
        phases = (sig[d], sig[d] ^ mask)
        covers = tuple((s & s_node == s_node) | (s & n_node == n_node) << 1
                       for s in phases)
        if covers != (0, 0):
            cands.append((d, phases, covers))
    for i1, (d1, s1, k1) in enumerate(cands):
        for d2, s2, k2 in cands[i1 + 1:]:
            for c1, c2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if not k1[c1] & k2[c2]:
                    continue
                v = s1[c1] & s2[c2]
                if v == s_node or v == n_node:
                    yield (v != s_node, ((2 + c1, 4 + c2, False),),
                           (lit(d1), lit(d2)))
                    break


def _divisors(w, node, mffc, s_node, most):
    """resubstitute's divisors: the first ``most`` live nodes below ``node``
    and outside its MFFC whose PI support lies within ``s_node``, read from
    the support memo in place; only a miss walks (_Work.support)."""
    supports, dead, nref, first = w._supports, w.dead, w.nref, w.first_and
    divs = []
    for d in range(1, node):
        if d >= first and (dead[d] or nref[d] == 0) or d in mffc:
            continue
        s = supports.get(d)
        if (w.support(d) if s is None else s) & ~s_node:
            continue
        divs.append(d)
        if len(divs) >= most:
            break
    return divs


def _plan_tt(plan, tables, full):
    """Truth table of a plan whose leaf nodes have the given tables; None
    when one of them has none."""
    inverted, program, leaf_lits = plan
    vals = [full, 0]
    for l in leaf_lits:
        t = tables[l >> 1]
        if t is None:
            return None
        t ^= full * (l & 1)
        vals += (t, t ^ full)
    for a, b, c in program:
        c *= full
        vals.append(((vals[a] ^ c) & (vals[b] ^ c)) ^ c)
    return vals[-1] ^ full * inverted


def resubstitute(g: AigGraph, max_divisors=20, seed=0) -> AigGraph:
    """Re-express nodes over existing divisors when that strictly reduces
    node count.  Candidates are filtered by simulation signatures and
    validated by an exact check over the local PI support; a divisor pair
    of positive gain ends a node's search even when commit() refuses it."""
    _check(max_divisors, "max_divisors", "int")
    _check(seed, "seed", "int")
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
        if not pi_nodes or len(pi_nodes) > MAX_PROOF_PIS:
            continue
        full = (1 << (1 << len(pi_nodes))) - 1
        divs = _divisors(w, node, mffc, s_node, max_divisors)
        tts = {}  # cone_tt over pi_nodes; valid until a commit replaces
        for plan in _resub_candidates(divs, sig, sig[node], mask,
                                      len(mffc) >= 2):
            for v in (node, *(l >> 1 for l in plan[2])):
                if v not in tts:
                    tts[v] = w.cone_tt(v, pi_nodes)
            if tts[node] is None or _plan_tt(plan, tts, full) != tts[node]:
                continue
            res = w.trial(node, plan)
            if res is None or res[0] < 1:
                continue
            # after a replace() a divisor may lie in node's fanout, so the
            # cone check walks down to the PIs
            if w.commit(node, res[1]) or len(plan[2]) > 1:
                break
    if w.live > before:
        raise RestructureError("resubstitute grew the AND count")
    return w.rebuild()


def _exact(fan0, fan1, first, dead, support, x, c, phase):
    """fraig's proof for aig.merge_proven, which has already passed over
    pairs wider than MAX_PROOF_PIS in the input: the truth tables of ``x``
    and ``c`` agree over their PI support in the merged graph."""
    leaves = [1 + k for k in _bits(support[x] | support[c])]
    tx = cone_tt(fan0, fan1, first, dead, x, leaves)
    tc = cone_tt(fan0, fan1, first, dead, c, leaves)
    return tx == (tc ^ (1 << (1 << len(leaves))) - 1 if phase else tc)


def fraig(g: AigGraph, sim_words=16, seed=0) -> AigGraph:
    """Functionally reduce: merge nodes that random simulation puts in one
    class and exact truth tables over the pair's PI support prove equal
    (aig.merge_proven, trying every class member).  A pair whose nodes
    span more than MAX_PROOF_PIS PIs of the strashed input is never
    merged."""
    _check(sim_words, "sim_words", "int")
    _check(seed, "seed", "int")
    g = strash(g)
    b, node_map = merge_proven(g, 64 * max(1, sim_words), seed, _exact,
                               max_pis=MAX_PROOF_PIS)
    for nm, l in g.pos:
        b.add_po(nm, node_map[l >> 1] ^ (l & 1))
    out = strip_unreachable(b.build())
    if out.n_ands > g.n_ands:
        raise RestructureError("fraig grew the AND count")
    return out


# ---------------------------------------------------------------------------
# recipes

# pass name -> {keyword param its pass function takes: (least value, most
# value or None)} (see _run_step); below the least a pass changes nothing (a
# cut or a cone needs two leaves, one cut slot is the trivial cut) or reads
# the value as the least; the pass itself rejects a value above the most
PASS_PARAMS = {"strash": {}, "balance": {},
               "rewrite": {"cut_size": (2, MAX_TT_INPUTS),
                           "max_cuts": (2, MAX_CUTS)},
               "refactor": {"max_cone_inputs": (2, MAX_TT_INPUTS)},
               "resub": {"max_divisors": (1, None)},
               "fraig": {"sim_words": (1, None)}, "gate_size": {}}


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
                low, high = PASS_PARAMS[s.name][key]
                _check(value, f"param '{key}' for pass '{s.name}'", "int",
                       low=low, high=high)


@dataclass
class PassReport:
    name: str
    nodes_before: int
    nodes_after: int
    levels_before: int
    levels_after: int
    wall_time: float
    params: dict = field(default_factory=dict)
    check_mode: str = ""

    def to_dict(self):
        return {
            "pass": self.name, "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after, "levels_before": self.levels_before,
            "levels_after": self.levels_after, "wall_time": self.wall_time,
            "params": self.params, "check_mode": self.check_mode,
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


def recipe_from_steps(steps) -> Recipe:
    """Build a user recipe from [{'pass': name, 'params': {...}, 'seed': n}].

    'params' maps names to ints and 'seed' is an int, both optional; any
    other shape raises ValueError naming the step index, or for a param
    value the pass and the key.
    """
    parsed = []
    for i, d in enumerate(_check(steps, "recipe", "list")):
        step = f"recipe step {i}"
        _check(d, step, "dict")
        name = _check(d.get("pass"), f"{step}: 'pass'", "str")
        extra = set(d) - {"pass", "params", "seed"}
        if extra:
            raise ValueError(f"{step}: unknown keys {sorted(extra, key=str)}")
        params = _check(d.get("params", {}), f"{step}: 'params'", "dict")
        for key in params:
            _check(key, f"{step}: param name", "str")
        seed = _check(d.get("seed", 0), f"{step}: 'seed'", "int")
        parsed.append(PassStep(name, tuple(sorted(params.items())), seed))
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


def apply_recipe(n: Netlist, recipe: Recipe, seed=0,
                 exhaustive_bound=EXHAUSTIVE_PIS, sample_vectors=100_000):
    """Run a recipe over a netlist; returns (netlist, pass reports).

    The output preserves PI/PO names and order and is equivalence-checked
    against the input (exhaustive up to ``exhaustive_bound`` PIs, randomized
    sampling above).  A check failure raises RestructureError naming the
    offending pass.
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
