import copy
import itertools
import math
import signal

import pytest

from hypothesis import given, settings, strategies as st

from htforge.aig import (
    AigBuilder,
    and_key,
    cone_tt,
    enumerate_cuts,
    export_aiger,
    from_aig,
    merge_proven,
    strash,
    strip_unreachable,
    to_aig,
    tt_var,
)
from htforge.netlist import Gate, Netlist, parse_netlist, write_netlist
from htforge.restructure import (
    MAX_CUTS,
    MAX_TT_INPUTS,
    RECIPES,
    Recipe,
    RestructureError,
    _Work,
    _count,
    _emit,
    _exact,
    _synth,
    apply_recipe,
    balance,
    fraig,
    isop,
    recipe_from_steps,
    refactor,
    resubstitute,
    rewrite,
)

from conftest import (array_multiplier, exhaustive_signatures, po_signatures,
                      random_netlist, rarity_netlist, truth_signature,
                      wide_fraig_graph)


def _sig(g):
    return po_signatures(g, exhaustive_signatures(g), 1 << g.n_pis)


def _and_chain(k):
    gates = []
    prev = "i0"
    for j in range(1, k):
        out = f"w{j}"
        gates.append(Gate("AND", out, (prev, f"i{j}"), f"g{j}"))
        prev = out
    return Netlist("chain", tuple(f"i{j}" for j in range(k)), (prev,),
                   tuple(gates))


# ---------------------------------------------------------------------------
# work-graph helpers

def test_cone_tt_cap_applies_to_local_passes_only():
    # the top product bit of an 8x8 multiplier over all 16 PIs: the
    # uncapped aig.cone_tt that fraig's proofs run gets its truth table,
    # the 512-step cap of rewrite, refactor and resub gives up
    g = strash(to_aig(array_multiplier(8)))
    name, l = g.pos[-1]
    assert name == "p15" and g.is_and(l >> 1)
    w = _Work(g)
    pis = tuple(range(1, 1 + g.n_pis))
    tt = cone_tt(w.fan0, w.fan1, w.first_and, w.dead, l >> 1, pis)
    assert tt ^ (l & 1) * ((1 << (1 << 16)) - 1) == _sig(g)[-1]
    assert w.cone_tt(l >> 1, pis) is None


def test_work_graph_rejects_a_graph_that_was_not_strashed():
    # a constant fanin and a duplicate AND: neither keeps its node index
    # when loaded through the hashing and2
    for text in ("and g1 (y, a, 1'b1);", "and g1 (t, a, b);\n  and g2 (u, a, b);"
                 "\n  or g3 (y, t, u);"):
        n = parse_netlist("module m (a, b, y);\n  input a, b;\n  output y;\n"
                          f"  wire t, u;\n  {text}\nendmodule\n")
        with pytest.raises(ValueError, match="does not keep its index"):
            _Work(to_aig(n))
        _Work(strash(to_aig(n))).check()


def _mffc_oracle(w, root, pins):
    """Nodes the delete cascade kills once root loses its consumers."""
    c = copy.deepcopy(w)
    for u, k in pins.items():
        c.nref[u] += k
    c.nref[root] = 0
    c._delete_cascade(root)
    return {v for v in range(c.first_and, len(c.fan0))
            if c.dead[v] and not w.dead[v]}


def test_mffc_matches_delete_cascade_with_and_without_pins():
    g = strash(to_aig(random_netlist(23, n_pis=9, n_gates=70)))
    w = _Work(g)
    checked = pinned = 0
    for root in range(w.first_and, len(w.fan0)):
        assert w.mffc(root) == _mffc_oracle(w, root, {})
        inner = sorted(w.mffc(root) - {root})
        if inner:
            pins = {inner[0]: 1, w.fan0[root] >> 1: 2}
            got = w.mffc(root, pins)
            assert got == _mffc_oracle(w, root, pins)
            assert inner[0] not in got
            pinned += 1
        checked += 1
    assert checked > 50 and pinned > 10


# ---------------------------------------------------------------------------
# balance

def test_balance_flattens_and_chain():
    g = strash(to_aig(_and_chain(8)))
    assert g.max_level == 7 and g.n_ands == 7
    b = balance(g)
    assert b.max_level == 3 and b.n_ands == 7
    assert _sig(b) == _sig(g)


def test_balance_fixed_point_on_balanced_tree():
    n = parse_netlist("""
        module m(a,b,c,d,y); input a,b,c,d; output y; wire u,v;
          and g1(u,a,b); and g2(v,c,d); and g3(y,u,v);
        endmodule""")
    g = strash(to_aig(n))
    assert balance(g).max_level == g.max_level == 2


def test_balance_single_and_identity():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    g = strash(to_aig(n))
    b = balance(g)
    assert b.n_ands == 1 and b.max_level == 1


def test_balance_flattens_or_chains_too():
    gates = []
    prev = "i0"
    for j in range(1, 8):
        out = f"w{j}"
        gates.append(Gate("OR", out, (prev, f"i{j}"), f"g{j}"))
        prev = out
    n = Netlist("orchain", tuple(f"i{j}" for j in range(8)), (prev,),
                tuple(gates))
    g = strash(to_aig(n))
    assert g.max_level == 7
    assert balance(g).max_level == 3


# ---------------------------------------------------------------------------
# rewrite

def test_rewrite_absorption():
    n = parse_netlist("module m(a,b,y); input a,b; output y; wire w;"
                      " and g1(w,a,b); and g2(y,a,w); endmodule")
    g = strash(to_aig(n))
    r = rewrite(g)
    assert r.n_ands == 1
    assert _sig(r) == _sig(g)


def test_rewrite_shares_structurally_different_or():
    n = parse_netlist("""
        module m(a,b,y1,y2); input a,b; output y1,y2; wire nb,u;
          or g1(y1, a, b);
          not g2(nb, b);
          and g3(u, a, nb);
          or  g4(y2, u, b);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 3
    r = rewrite(g)
    assert r.n_ands == 1
    assert _sig(r) == _sig(g)


def _all_two_node_functions():
    """Every function over (a, b) computable by an AIG with at most 2 AND
    nodes (brute-force structural enumeration)."""
    A = 0b1010
    B = 0b1100
    full = 0b1111
    funcs = set()
    base = [0, full, A, A ^ full, B, B ^ full]
    funcs.update(base)
    lits1 = list(base)
    one_node = set()
    for x, y in itertools.product(lits1, repeat=2):
        one_node.add(x & y)
    for f in list(one_node):
        funcs.add(f)
        funcs.add(f ^ full)
    for n1 in one_node:
        pool = lits1 + [n1, n1 ^ full]
        for x, y in itertools.product(pool, repeat=2):
            f = x & y
            funcs.add(f)
            funcs.add(f ^ full)
    return funcs


def test_rewrite_keeps_irreducible_xor():
    # oracle: XOR needs 3 AND nodes (not expressible with <= 2)
    assert 0b0110 not in _all_two_node_functions()
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    g = strash(to_aig(n))
    assert g.n_ands == 3
    r = rewrite(g)
    assert r.n_ands == 3
    assert _sig(r) == _sig(g)


# ---------------------------------------------------------------------------
# refactor

def test_refactor_factors_shared_literal():
    n = parse_netlist("""
        module m(a,b,c,y); input a,b,c; output y; wire t1,t2;
          and g1(t1,a,b); and g2(t2,a,c); or g3(y,t1,t2);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 3
    r = refactor(g)
    assert r.n_ands == 2
    assert _sig(r) == _sig(g)


def test_refactor_leaves_minimal_cone():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    g = strash(to_aig(n))
    assert refactor(g).n_ands == 1


def test_refactor_constant_false_cone():
    n = parse_netlist("module m(a,y); input a; output y; wire na;"
                      " not g1(na,a); and g2(y,a,na); endmodule")
    out = from_aig(refactor(to_aig(n)))
    assert truth_signature(out) == (0,)


def test_refactor_rejects_wide_cones():
    g = strash(to_aig(_and_chain(4)))
    with pytest.raises(ValueError):
        refactor(g, max_cone_inputs=17)


# ---------------------------------------------------------------------------
# resubstitute

def test_resub_reuses_divisor():
    n = parse_netlist("""
        module m(a,b,c,d,f); input a,b,c; output d,f; wire t;
          and g1(d,a,b); and g2(t,b,c); and g3(f,a,t);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 3
    r = resubstitute(g)
    assert r.n_ands == 2
    assert _sig(r) == _sig(g)


def test_resub_no_divisors_unchanged():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    g = strash(to_aig(n))
    assert resubstitute(g).n_ands == g.n_ands


def test_resub_alias_to_identical_divisor():
    # two POs computing the same function through different structure
    n = parse_netlist("""
        module m(a,b,x,y); input a,b; output x,y; wire na,nb,t;
          or g1(x, a, b);
          not g2(na, a); not g3(nb, b);
          and g4(t, na, nb); not g5(y, t);
        endmodule""")
    g = strash(to_aig(n))
    r = resubstitute(g)
    assert r.n_ands == 1
    assert _sig(r) == _sig(g)


# ---------------------------------------------------------------------------
# fraig

def test_fraig_merges_equivalent_builds():
    n = parse_netlist("""
        module m(a,b,y1,y2); input a,b; output y1,y2; wire u,v;
          xor g1(y1, a, b);
          or  g2(u, a, b);
          nand g3(v, a, b);
          and g4(y2, u, v);
        endmodule""")
    g = strash(to_aig(n))
    assert g.n_ands == 6
    f = fraig(g)
    assert f.n_ands == 3
    assert _sig(f) == _sig(g)


def test_fraig_merges_complement_equivalent():
    n = parse_netlist("""
        module m(a,b,y1,y2); input a,b; output y1,y2; wire u,v;
          xor g1(y1, a, b);
          xnor g2(y2, a, b);
        endmodule""")
    g = strash(to_aig(n))
    f = fraig(g)
    assert f.n_ands == 3
    # both POs must share one node, one side complemented
    (_, l1), (_, l2) = f.pos
    assert (l1 >> 1) == (l2 >> 1) and (l1 & 1) != (l2 & 1)
    assert _sig(f) == _sig(g)


def test_fraig_distinct_functions_unchanged():
    n = random_netlist(31, n_pis=6, n_gates=20)
    g = strash(to_aig(n))
    sigs = exhaustive_signatures(g)
    full = (1 << (1 << g.n_pis)) - 1
    canon = set()
    distinct = True
    for node in range(g.n_nodes):
        c = sigs[node] if not (sigs[node] & 1) else (~sigs[node] & full)
        if c in canon:
            distinct = False
        canon.add(c)
    if distinct:  # signature-distinctness oracle applies
        assert fraig(g).n_ands == g.n_ands


def test_fraig_on_random_circuits_equivalent():
    for seed in (3, 17, 29, 55):
        g = strash(to_aig(random_netlist(seed)))
        f = fraig(g, seed=seed)
        assert f.n_ands <= g.n_ands
        assert _sig(f) == _sig(g)


@pytest.mark.parametrize("name", ["rand30", "twin40"])
def test_fraig_never_merges_a_pair_over_max_proof_pis(name):
    # pairs whose nodes span more than MAX_PROOF_PIS PIs of the input are
    # passed over without a proof; proving them too merges more
    g = wide_fraig_graph(name)
    b, node_map = merge_proven(g, 64 * 16, 0, _exact)
    for nm, l in g.pos:
        b.add_po(nm, node_map[l >> 1] ^ (l & 1))
    assert strip_unreachable(b.build()).n_ands < fraig(g).n_ands


# ---------------------------------------------------------------------------
# strash

def test_strash_returns_a_hashed_graph_as_it_is():
    # a graph a hashing builder built, which every pass returns, is its own
    # strash: rehashing all its nodes gives the same bytes, and strash hands
    # back the graph itself; a graph built without hashing is rebuilt
    from htforge.aig import _rehash, add_netlist
    graphs = []
    for n in _loop_corpus():
        raw = to_aig(n)
        g = strash(raw)
        assert not raw.hashed and g is not raw
        assert export_aiger(g) == export_aiger(_rehash(
            raw.pi_names, raw.fan0, raw.fan1, 1 + raw.n_pis,
            range(1 + raw.n_pis, raw.n_nodes), raw.pos))
        b = AigBuilder(n.inputs, hashing=True)
        for o, l in zip(n.outputs, add_netlist(b, n)):
            b.add_po(o, l)
        graphs += [g, b.build(), strip_unreachable(raw), balance(g, seed=1),
                   rewrite(g, seed=1), refactor(g, seed=1),
                   resubstitute(g, seed=1), fraig(g, seed=1),
                   merge_proven(g, 64, 1, _exact)[0].build()]
    for g in graphs:
        assert g.hashed and strash(g) is g
        base = 1 + g.n_pis
        again = _rehash(g.pi_names, g.fan0, g.fan1, base,
                        range(base, g.n_nodes), g.pos)
        assert export_aiger(again) == export_aiger(g)
    assert not AigBuilder(["a"], hashing=False).build().hashed


# ---------------------------------------------------------------------------
# ISOP / synthesis helpers

def _cover(cubes, m):
    """Truth table of a cube list over m variables."""
    full = (1 << (1 << m)) - 1
    cover = 0
    for p, q in cubes:
        c = full
        for v in range(m):
            if (p >> v) & 1:
                c &= tt_var(v, m)
            if (q >> v) & 1:
                c &= ~tt_var(v, m) & full
        cover |= c
    return cover


def test_isop_covers_function_exactly():
    import random
    rng = random.Random(0)
    # small widths, then the cone widths refactor uses (10 by default, 12
    # in recipe 15), dense and sparse
    for m, count in ((2, 40), (3, 40), (4, 40), (10, 6), (12, 6)):
        full = (1 << (1 << m)) - 1
        for i in range(count):
            f = rng.randrange(full + 1)
            if m > 4 and i % 2:
                f &= rng.randrange(full + 1) & rng.randrange(full + 1)
            assert _cover(isop(f, m), m) == f


def _synthesizes_as(tt, m, inverted, tree):
    return _synth(tt, m) == (inverted, _ref_program(tree, m))


def test_factored_constant_and_literal_shortcuts():
    assert _synthesizes_as(0, 2, False, ("const", 0))
    assert _synthesizes_as(0b1111, 2, False, ("const", 1))
    assert _synthesizes_as(0b1010, 2, False, ("literal", 0, 1))
    assert _synthesizes_as(0b0101, 2, False, ("literal", 0, 0))
    # a literal is synthesized like any table, and the tie between its two
    # polarities (no AND either way) keeps the positive one
    for m in (5, MAX_TT_INPUTS):
        full = (1 << (1 << m)) - 1
        for v in (0, m // 2, m - 1):
            assert _synthesizes_as(tt_var(v, m), m, False, ("literal", v, 1))
            assert _synthesizes_as(~tt_var(v, m) & full, m, False,
                                   ("literal", v, 0))


def test_factored_memo_gives_the_uncached_plan(monkeypatch):
    # a pass synthesizes each (tt, m) once, and every trial gets what an
    # uncached call gives over its own leaves, also where one integer is a
    # table at two widths
    import htforge.restructure as rs
    calls, tables = [], []
    plain = _Work.trial

    def recording(tt, m):
        calls.append((tt, m))
        return _synth(tt, m)

    def trial(self, root, plan, cap=math.inf):
        leaves = [l >> 1 for l in plan[2]]
        tt = self.cone_tt(root, leaves)
        assert plan[:2] == _synth(tt, len(leaves))
        tables.append((tt, len(leaves)))
        return plain(self, root, plan, cap)

    monkeypatch.setattr(rs, "_synth", recording)
    monkeypatch.setattr(_Work, "trial", trial)
    g = strash(to_aig(array_multiplier(6)))
    for cap in (10, 12):
        calls.clear()
        refactor(g, max_cone_inputs=cap, seed=7)
        assert len(set(calls)) == len(calls)  # once per pass
    rewrite(g, cut_size=5, seed=7)
    monkeypatch.undo()
    assert {10, 12} <= {m for _, m in tables}
    assert len(set(tables)) < len(tables)  # the memo hits
    widths = {}
    for tt, m in tables:
        widths.setdefault(tt, set()).add(m)
    assert any(len(ms) > 1 for ms in widths.values())


def test_factored_memo_maps_onto_each_calls_leaves(monkeypatch):
    # two majority cones over disjoint PIs share one memo entry, and the
    # plan each trial gets from it reads that cone's own leaves
    import htforge.restructure as rs
    b = AigBuilder([f"x{k}" for k in range(6)])
    for k in (0, 3):
        x, y, z = b.pi(k), b.pi(k + 1), b.pi(k + 2)
        b.add_po(f"m{k}", b.or2(b.or2(b.and2(x, y), b.and2(x, z)),
                                b.and2(y, z)))
    g = strash(b.build())
    calls, plans = [], []
    plain = _Work.trial

    def recording(tt, m):
        calls.append((tt, m))
        return _synth(tt, m)

    def trial(self, root, plan, cap=math.inf):
        if root == g.pos[0][1] >> 1 or root == g.pos[1][1] >> 1:
            plans.append(plan)
        return plain(self, root, plan, cap)

    monkeypatch.setattr(rs, "_synth", recording)
    monkeypatch.setattr(_Work, "trial", trial)
    out = refactor(g)
    monkeypatch.undo()
    nmaj = 0b00010111  # each root is the complement of majority
    assert calls.count((nmaj, 3)) == 1
    (i0, t0, l0), (i1, t1, l1) = plans
    inverted, tree = _ref_factored(nmaj, 3)
    assert t0 is t1 and i0 == i1
    assert (i0, t0) == (inverted, _ref_program(tree, 3))
    assert (l0, l1) == ([2, 4, 6], [8, 10, 12])
    assert _sig(out) == _sig(g)
    w = _Work(g)
    for plan in plans:
        top = _ref_build(w, _ref_lit_tree((inverted, tree, plan[2])))
        leaves = [l >> 1 for l in plan[2]]
        assert w.support(top >> 1) == sum(1 << (v - 1) for v in leaves)
        assert w.cone_tt(top >> 1, leaves) ^ (top & 1) * 0xFF == nmaj


# ---------------------------------------------------------------------------
# synthesis kernels against the full-width reference
#
# isop used to cofactor full-width tables, _factor to de-duplicate and rank
# literals with max() at every level, _factored to factor every sub-cover
# it met afresh into a tree for both polarities and then count both trees'
# ANDs, and _program to compile the kept tree into flat steps.  Those
# versions are kept here as the reference: the halving-table isop must give
# the same cubes, the memoized _count the trees' own AND counts, and _emit
# and _synth the programs of the same trees.

def _ref_cofactors(f, v, m):
    half = 1 << v
    p = tt_var(v, m)
    a = f & ~p
    f0 = a | (a << half)
    b = f & p
    f1 = b | (b >> half)
    return f0, f1


def _ref_isop(f, m):
    full = (1 << (1 << m)) - 1
    f &= full

    def rec(lo, up, var):
        if lo == 0:
            return [], 0
        if up == full:
            return [(0, 0)], full
        if var >= m:
            raise RestructureError("isop ran out of variables")
        lo0, lo1 = _ref_cofactors(lo, var, m)
        up0, up1 = _ref_cofactors(up, var, m)
        c0, cov0 = rec(lo0 & ~up1, up0, var + 1)
        c1, cov1 = rec(lo1 & ~up0, up1, var + 1)
        rest = (lo0 & ~cov0) | (lo1 & ~cov1)
        cs, covs = rec(rest, up0 & up1, var + 1)
        vpos = tt_var(var, m)
        vneg = ~vpos & full
        cubes = ([(p, q | (1 << var)) for p, q in c0]
                 + [(p | (1 << var), q) for p, q in c1]
                 + cs)
        cover = (cov0 & vneg) | (cov1 & vpos) | covs
        return cubes, cover

    cubes, cover = rec(f, f, 0)
    if cover != f:
        raise RestructureError("isop: cover differs from the function")
    return cubes


def _ref_bits(mask):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def _ref_balanced(op, items):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return (op, _ref_balanced(op, items[:mid]), _ref_balanced(op, items[mid:]))


def _ref_cube_tree(cube):
    p, q = cube
    lits = ([("literal", v, 1) for v in _ref_bits(p)]
            + [("literal", v, 0) for v in _ref_bits(q)])
    if not lits:
        return ("const", 1)
    return _ref_balanced("and", lits)


def _tree_cost(tree):
    if tree[0] in ("const", "literal"):
        return 0
    return 1 + _tree_cost(tree[1]) + _tree_cost(tree[2])


def _ref_factor(cubes):
    cubes = list(dict.fromkeys(cubes))
    if not cubes:
        return ("const", 0)
    if (0, 0) in cubes:
        return ("const", 1)
    if len(cubes) == 1:
        return _ref_cube_tree(cubes[0])
    counts = {}
    for p, q in cubes:
        for v in _ref_bits(p):
            counts[(v, 1)] = counts.get((v, 1), 0) + 1
        for v in _ref_bits(q):
            counts[(v, 0)] = counts.get((v, 0), 0) + 1
    (v, pol), best = max(counts.items(),
                         key=lambda kv: (kv[1], -kv[0][0], kv[0][1]))
    if best < 2:
        return _ref_balanced("or", [_ref_cube_tree(c) for c in cubes])
    bit = 1 << v
    quot, rest = [], []
    for p, q in cubes:
        if pol and (p & bit):
            quot.append((p & ~bit, q))
        elif not pol and (q & bit):
            quot.append((p, q & ~bit))
        else:
            rest.append((p, q))
    if (0, 0) in quot or not quot:
        inner = ("literal", v, pol)
    else:
        inner = ("and", ("literal", v, pol), _ref_factor(quot))
    if not rest:
        return inner
    return ("or", inner, _ref_factor(rest))


def _ref_factored(tt, m):
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
    pos = _ref_factor(_ref_isop(tt, m))
    neg = _ref_factor(_ref_isop(~tt & full, m))
    if _tree_cost(neg) < _tree_cost(pos):
        return True, neg
    return False, pos


def _ref_program(tree, m):
    """A factored tree over m leaves as flat steps (a, b, c) in its left-first
    post-order: slots 0 and 1 hold TRUE and FALSE, slot 2 + 2j + p leaf j
    complemented p times, and each step appends AND(slot a ^ c, slot b ^ c)
    ^ c, c = 1 for an 'or'.  The last slot is the tree's value."""
    steps = []

    def slot(t):
        kind = t[0]
        if kind == "literal":
            return 3 + 2 * t[1] - t[2]
        if kind == "const":
            return 1 - t[1]
        steps.append((slot(t[1]), slot(t[2]), kind == "or"))  # after both
        return 2 * m + 1 + len(steps)

    top = slot(tree)
    return tuple(steps) or ((top, top, 0),)


def _over_three_vars(rng, m):
    """A table over m variables that depends on only three of them, so the
    halving isop skips every other level."""
    full = (1 << (1 << m)) - 1
    vs = rng.sample(range(m), 3)
    g = rng.randrange(1, 255)
    f = 0
    for row in range(8):
        if (g >> row) & 1:
            term = full
            for k, v in enumerate(vs):
                term &= tt_var(v, m) if (row >> k) & 1 else ~tt_var(v, m)
            f |= term
    return f


def _kernel_tables():
    import random
    rng = random.Random(10)
    tables = [(f, m) for m in (2, 3) for f in range(1 << (1 << m))]
    for m in (4, 8, 10, 12):
        full = (1 << (1 << m)) - 1
        for i in range(8):
            f = rng.randrange(full + 1)
            if i % 2:  # sparse: about one row in eight
                f &= rng.randrange(full + 1) & rng.randrange(full + 1)
            tables.append((f, m))
    tables += [(_over_three_vars(rng, m), m) for m in (10, 12) for _ in range(6)]
    # the widest tables a pass synthesizes, sparse so that the reference
    # stays quick, and the parity of 10 inputs: each of its literals is in
    # 256 cubes, more than an 8-bit literal count holds
    for m, ands in ((14, 3), (16, 5)):
        f = rng.randrange(1 << (1 << m))
        for _ in range(ands):
            f &= rng.randrange(1 << (1 << m))
        tables.append((f, m))
    tables += [(_over_three_vars(rng, m), m) for m in (14, 16)]
    parity = 0
    for v in range(10):
        parity ^= tt_var(v, 10)
    tables.append((parity, 10))
    return tables


def _check_factor(cubes, memo, m):
    # the reference de-duplicates at every level, _count only takes distinct
    # cubes without the tautology; the AND count and the program are the
    # reference tree's, with a fresh memo and with one other lists filled
    distinct = tuple(dict.fromkeys(cubes))
    if not distinct or (0, 0) in distinct:
        return
    tree = _ref_factor(cubes)
    for mm in (memo, {}):
        entry = _count(distinct, mm)
        assert entry is mm[distinct] and entry[0] == _tree_cost(tree), cubes
        assert _emit(entry, m) == _ref_program(tree, m), cubes


def _check_kernels(tt, m, memo):
    cubes = _ref_isop(tt, m)
    assert isop(tt, m) == cubes, (tt, m)
    assert len(set(cubes)) == len(cubes), (tt, m)  # isop's cubes are distinct
    _check_factor(cubes, memo, m)
    inverted, tree = _ref_factored(tt, m)
    assert _synth(tt, m) == (inverted, _ref_program(tree, m)), (tt, m)


def test_kernels_match_the_reference_on_seeded_tables():
    import random
    memo = {}
    for tt, m in _kernel_tables():
        _check_kernels(tt, m, memo)
    # duplicated and reordered cube lists: quotients and remainders of
    # distinct cubes stay distinct, so de-duplicating once is enough
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(2, 7)
        cubes = []
        for _ in range(rng.randrange(1, 12)):
            p = rng.getrandbits(m)
            cubes.append((p, rng.getrandbits(m) & ~p))
        cubes += rng.sample(cubes, len(cubes) // 2)
        _check_factor(cubes, memo, m)


def test_factored_factors_each_sub_cover_once(monkeypatch):
    # each _synth call keeps one memo for both polarities, counts no cube
    # list twice, and meets some twice; no memo serves two calls.  It emits
    # one program, from that memo, for the cover of the kept polarity
    import htforge.restructure as rs
    plain, plain_emit = rs._count, rs._emit
    calls, memos, emitted = [], [], []

    def recording(cubes, memo):
        calls.append((memo, cubes, cubes in memo))
        return plain(cubes, memo)

    def emit(entry, m):
        emitted.append(entry)
        return plain_emit(entry, m)

    monkeypatch.setattr(rs, "_count", recording)
    monkeypatch.setattr(rs, "_emit", emit)
    hits = 0
    for tt, m in _kernel_tables():
        calls.clear()
        emitted.clear()
        inverted, _ = _synth(tt, m)
        if not calls:  # a constant
            assert not emitted
            continue
        memo = calls[0][0]
        assert all(c[0] is memo for c in calls)
        assert all(mm is not memo for mm in memos)
        memos.append(memo)
        misses = [key for _, key, hit in calls if not hit]
        assert len(misses) == len(set(misses)) == len(memo)
        hits += len(calls) - len(misses)
        full = (1 << (1 << m)) - 1
        kept = tuple(isop(~tt & full if inverted else tt, m))
        assert len(emitted) == 1 and emitted[0] is memo[kept]
    assert hits > 100


def test_kernels_match_the_reference_on_recipe_cones(monkeypatch):
    import htforge.restructure as rs
    seen = []

    def recording(tt, m):
        seen.append((tt, m))
        return _synth(tt, m)

    monkeypatch.setattr(rs, "_synth", recording)
    apply_recipe(array_multiplier(6), RECIPES[15], seed=7)
    monkeypatch.undo()
    wide = [(tt, m) for tt, m in seen if m >= 10]
    assert {10, 12} <= {m for _, m in wide}
    memo = {}
    for tt, m in wide:
        _check_kernels(tt, m, memo)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda m: st.tuples(st.integers(0, (1 << (1 << m)) - 1), st.just(m))))
def test_isop_property_cover_and_reference_cubes(table):
    tt, m = table
    cubes = isop(tt, m)
    assert _cover(cubes, m) == tt
    assert cubes == _ref_isop(tt, m)


# ---------------------------------------------------------------------------
# trials capped at the MFFC size

def test_capped_trial_agrees_wherever_the_gain_is_not_negative(monkeypatch):
    # a candidate that plans more new ANDs than the root's MFFC holds cannot
    # free as many as it adds; the capped trial gives up on exactly those
    seen = {"same": 0, "capped": 0}
    plain = _Work.trial

    def checked(self, root, tree, cap=math.inf):
        got = plain(self, root, tree, cap)
        full = plain(self, root, tree)
        if full is not None and full[0] >= 0:
            assert got == full
            seen["same"] += 1
        elif got is None and full is not None:
            assert full[0] < 0
            seen["capped"] += 1
        else:
            assert got == full
        return got

    monkeypatch.setattr(_Work, "trial", checked)
    for n in (array_multiplier(6), random_netlist(5, n_pis=10, n_gates=80)):
        g = strash(to_aig(n))
        for fn in (rewrite, refactor):
            fn(g, seed=3)
    assert seen["same"] and seen["capped"]


# ---------------------------------------------------------------------------
# restructuring loops against their references
#
# _Work.support used to walk each queried node's whole fanin, _greedy_cone
# to build the next leaf set of every candidate, enumerate_cuts to merge
# sorted tuples through sets, cone_tt to build two lists per node it
# walked, and trial and commit to walk a copy of the factored tree with
# literals in its leaves and 'or' spelled as not(and(not, not)).  Those
# versions are kept here as the reference.

def _ref_support(w, node):
    out, seen, stack = 0, set(), [node]
    while stack:
        v = stack.pop()
        if v in seen or v == 0:
            continue
        seen.add(v)
        if v < w.first_and:
            out |= 1 << (v - 1)
        else:
            stack.append(w.fan0[v] >> 1)
            stack.append(w.fan1[v] >> 1)
    return out


def _ref_greedy_cone(w, node, max_cone_inputs):
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


def _ref_enumerate_cuts(g, k, max_cuts):
    cuts = [()] * g.n_nodes
    for node in range(1, 1 + g.n_pis):
        cuts[node] = ((node,),)
    base = 1 + g.n_pis
    for j in range(g.n_ands):
        node = base + j
        seen = set()
        merged = []
        for c0 in cuts[g.fan0[j] >> 1]:
            for c1 in cuts[g.fan1[j] >> 1]:
                leaves = tuple(sorted(set(c0) | set(c1)))
                if len(leaves) > k or leaves in seen:
                    continue
                seen.add(leaves)
                merged.append(leaves)
        merged.sort(key=lambda ls: (len(ls), ls))
        cuts[node] = tuple(merged[:max_cuts - 1]) + ((node,),)
    return cuts


def _ref_lit_tree(plan):
    inverted, tree, leaf_lits = plan

    def conv(t):
        if t[0] == "const":
            return ("lit", 0 if t[1] else 1)
        if t[0] == "literal":
            return ("lit", leaf_lits[t[1]] ^ (1 - t[2]))
        if t[0] == "and":
            return ("and", conv(t[1]), conv(t[2]))
        return ("not", ("and", ("not", conv(t[1])), ("not", conv(t[2]))))

    return ("not", conv(tree)) if inverted else conv(tree)


def _ref_trial(w, root, tree, cap):
    """(gain, None), or None; planned nodes are ('p', index, complement)."""
    overlay, pins, planned = {}, {}, [0]

    def key(v):
        return (0, v) if isinstance(v, int) else (1, v[1], v[2])

    def walk(t):
        if t[0] == "lit":
            return t[1]
        if t[0] == "not":
            v = walk(t[1])
            return v ^ 1 if isinstance(v, int) else (v[0], v[1], v[2] ^ 1)
        a, b = walk(t[1]), walk(t[2])
        if isinstance(a, int) and isinstance(b, int):
            k = and_key(a, b)
            if type(k) is int:
                return k
            if k in w.table:
                return 2 * w.table[k]
        ka, kb = sorted((a, b), key=key)
        if (ka, kb) in overlay:
            return overlay[(ka, kb)]
        planned[0] += 1
        if planned[0] > cap:
            raise OverflowError
        for f in (a, b):
            if isinstance(f, int):
                pins[f >> 1] = pins.get(f >> 1, 0) + 1
        overlay[(ka, kb)] = ("p", len(overlay), 0)
        return overlay[(ka, kb)]

    try:
        out = walk(tree)
    except OverflowError:
        return None
    if isinstance(out, int):
        if out >> 1 == root:
            return None
        pins[out >> 1] = pins.get(out >> 1, 0) + w.nref[root]
    return len(w.mffc(root, pins)) - planned[0], None


def _ref_build(w, t):
    if t[0] == "lit":
        return t[1]
    if t[0] == "not":
        return _ref_build(w, t[1]) ^ 1
    return w.and2(_ref_build(w, t[1]), _ref_build(w, t[2]))


def _ref_cone_tt(w, root, leaves, max_steps=512):
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
        if nd < w.first_and or w.dead[nd]:
            return None
        steps += 1
        if steps > max_steps:
            return None
        f0, f1 = w.fan0[nd], w.fan1[nd]
        deps = [u for u in (f0 >> 1, f1 >> 1) if u not in val]
        bad = [u for u in deps if u < w.first_and]
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


def _first_cap(w, root, leaves):
    """The smallest max_steps at which the reference gives a table, or
    None when it gives none at any cap."""
    if _ref_cone_tt(w, root, leaves, math.inf) is None:
        return None
    lo, hi = 0, 1
    while _ref_cone_tt(w, root, leaves, hi) is None:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _ref_cone_tt(w, root, leaves, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _loop_corpus():
    return ([array_multiplier(6), rarity_netlist(0, pis_per_branch=5)]
            + [random_netlist(s, n_pis=9, n_gates=70) for s in (11, 23, 35)])


def test_support_memo_matches_a_fresh_walk(monkeypatch):
    # every support value resubstitute reads equals a walk of the graph as
    # it is at that moment, also after its replacements: each answer of
    # _Work.support, and each value the divisor scan reads, memo hits
    # included.  The scan reads the live nodes below the node and outside
    # its MFFC in index order, up to its last divisor when it stops at the
    # cap; a value, once in the memo, never changes
    import htforge.restructure as rs
    plain, plain_scan = _Work.support, rs._divisors
    seen = {"calls": 0, "reads": 0, "capped": 0}

    def checked(self, node):
        got = plain(self, node)
        assert got == _ref_support(self, node), node
        seen["calls"] += 1
        return got

    def scan(w, node, mffc, s_node, most):
        divs = plain_scan(w, node, mffc, s_node, most)
        stop = divs[-1] + 1 if len(divs) >= most else node
        want = []
        for d in range(1, stop):
            if d >= w.first_and and (w.dead[d] or w.nref[d] == 0):
                continue
            if d in mffc:
                continue
            ref = _ref_support(w, d)
            assert w._supports[d] == ref, d
            seen["reads"] += 1
            if not ref & ~s_node:
                want.append(d)
        assert divs == want[:most]
        seen["capped"] += stop < node
        return divs

    monkeypatch.setattr(_Work, "support", checked)
    monkeypatch.setattr(rs, "_divisors", scan)
    for n in _loop_corpus():
        g = strash(to_aig(n))
        resubstitute(g, seed=1)
        resubstitute(rewrite(g, seed=1), seed=2)
    monkeypatch.undo()
    assert seen["reads"] > 10_000 and seen["calls"] > 1000
    assert seen["capped"] > 100


def test_cuts_and_cones_match_the_set_building_reference(monkeypatch):
    import htforge.restructure as rs
    for n in _loop_corpus():
        g = strash(to_aig(n))
        for k in (4, 5):
            for max_cuts in (3, 8):
                assert (enumerate_cuts(g, k, max_cuts)
                        == _ref_enumerate_cuts(g, k, max_cuts))
    plain = rs._greedy_cone
    calls = [0]

    def checked(w, node, max_cone_inputs):
        got = plain(w, node, max_cone_inputs)
        assert got == _ref_greedy_cone(w, node, max_cone_inputs)
        calls[0] += 1
        return got

    monkeypatch.setattr(rs, "_greedy_cone", checked)
    for n in _loop_corpus():
        g = strash(to_aig(n))
        for cap in (10, 12):
            refactor(g, max_cone_inputs=cap, seed=1)
    monkeypatch.undo()
    assert calls[0] > 1000
    # fan-in arrays where a node reads one node twice, which a live node
    # of the work graph never does, so the size count must not add it twice
    import random
    from types import SimpleNamespace
    rng = random.Random(5)
    twice = 0
    for _ in range(300):
        first = 1 + rng.randrange(2, 7)
        fan0, fan1 = [0] * first, [0] * first
        for v in range(first, first + rng.randrange(3, 30)):
            a = rng.randrange(1, v)
            b = a if rng.random() < 0.3 else rng.randrange(1, v)
            fan0.append(2 * a + rng.randrange(2))
            fan1.append(2 * b + rng.randrange(2))
            twice += a == b
        w = SimpleNamespace(fan0=fan0, fan1=fan1, first_and=first,
                            dead=[False] * len(fan0))
        for cap in (2, 3, 4, 6):
            for node in range(first, len(fan0)):
                assert (plain(w, node, cap)
                        == _ref_greedy_cone(w, node, cap)), (fan0, fan1, node)
    assert twice > 100


def _shared_bit_graph():
    # 70 PIs, so PI nodes 1-6 and 65-70 share their low six bits: the
    # top AND keeps the cut {1, 2, 65, 66}, four leaves in two bits
    b = AigBuilder([f"x{k}" for k in range(70)])
    x = [b.pi(k) for k in range(70)]
    top = b.and2(b.and2(x[0], x[64]), b.and2(x[1] ^ 1, x[65]) ^ 1)
    b.add_po("top", top)
    for k in range(64):
        b.add_po(f"y{k}", b.and2(top, b.or2(x[k], x[k + 6] ^ 1)))
    return strash(b.build())


def test_cuts_match_the_reference_at_every_size():
    # leaf signatures only skip unions that could not fit, also where two
    # leaves of a kept cut share a signature bit, on graphs of more than 64
    # nodes
    graphs = [_shared_bit_graph(), strash(to_aig(array_multiplier(6))),
              strash(to_aig(random_netlist(7, n_pis=70, n_gates=160)))]
    shared = 0
    for g in graphs:
        assert g.n_nodes > 64
        for k in range(2, 7):
            for max_cuts in (2, 3, 8, 16):
                got = enumerate_cuts(g, k, max_cuts)
                assert got == _ref_enumerate_cuts(g, k, max_cuts), (k, max_cuts)
                shared += sum(len({v & 63 for v in c}) < len(c)
                              for cuts in got for c in cuts)
    assert (1, 2, 65, 66) in enumerate_cuts(graphs[0], 4, 8)[
        graphs[0].pos[0][1] >> 1]
    assert shared > 100


def test_a_plan_over_a_nodes_own_fanin_pair_trials_to_none(monkeypatch):
    # why _resynthesize skips that leaf set for a node hashed under its
    # fanin pair: the plan over that pair is the node itself; checked on
    # every such live node before a rewrite pass and on the pass's own graph
    # after it
    works = []
    plain = _Work.rebuild

    def rebuild(self):
        works.append(self)
        return plain(self)

    monkeypatch.setattr(_Work, "rebuild", rebuild)
    checked = 0
    for n in _loop_corpus():
        g = strash(to_aig(n))
        works.clear()
        rewrite(g, seed=1)
        for w in (_Work(g), works[0]):
            for node in range(w.first_and, len(w.fan0)):
                if w.dead[node] or w.nref[node] == 0:
                    continue
                pair = (w.fan0[node], w.fan1[node])
                if w.table.get(pair) != node:
                    continue
                leaves = [f >> 1 for f in pair]
                tt = w.cone_tt(node, leaves)
                inverted, tree = _ref_factored(tt, 2)
                lits = [2 * v for v in leaves]
                plan = (*_synth(tt, 2), lits)
                assert plan[:2] == (inverted, _ref_program(tree, 2))
                assert w.trial(node, plan) is None
                assert _ref_trial(w, node, _ref_lit_tree((inverted, tree, lits)),
                                  math.inf) is None
                checked += 1
    assert checked > 1000


def test_cone_tt_matches_the_list_building_reference(monkeypatch):
    # every cone the local passes ask for, cuts gone stale after commits
    # included
    plain = _Work.cone_tt
    seen = {"tt": 0, "none": 0}

    def checked(self, root, leaves):
        got = plain(self, root, leaves)
        assert got == _ref_cone_tt(self, root, leaves)
        seen["none" if got is None else "tt"] += 1
        return got

    monkeypatch.setattr(_Work, "cone_tt", checked)
    for n in _loop_corpus()[:3]:
        g = strash(to_aig(n))
        for fn in (rewrite, refactor, resubstitute):
            fn(g, seed=1)
    monkeypatch.undo()
    assert seen["tt"] > 1000 and seen["none"] > 10


def test_cone_tt_stops_where_the_reference_stops():
    # random fan-in arrays with dead nodes, fanins on the constant and on
    # one node twice, and leaf sets a cone escapes through a PI; at every
    # cap up to the first that gives a table, and past it
    import random
    from types import SimpleNamespace
    rng = random.Random(8)
    kinds = {"escapes": 0, "capped": 0}
    for _ in range(120):
        first = 1 + rng.randrange(1, 6)
        fan0, fan1 = [0] * first, [0] * first
        for v in range(first, first + rng.randrange(1, 30)):
            fan0.append(rng.randrange(2 * v))
            fan1.append(rng.randrange(2 * v))
        n = len(fan0)
        w = SimpleNamespace(fan0=fan0, fan1=fan1, first_and=first,
                            dead=[v >= first and rng.random() < 0.1
                                  for v in range(n)])
        for _ in range(8):
            root = rng.randrange(1, n)
            if rng.random() < 0.5:
                leaves = tuple(range(1, first))
            else:
                leaves = tuple(sorted(rng.sample(range(1, n),
                                                 rng.randrange(min(6, n - 1)))))
            cap = _first_cap(w, root, leaves)
            if cap is None:
                kinds["escapes"] += 1
            elif cap > 0:
                kinds["capped"] += 1
            for steps in (*range(2 * n + 2), math.inf):
                assert (cone_tt(fan0, fan1, first, w.dead, root, leaves, steps)
                        == _ref_cone_tt(w, root, leaves, steps))
    assert kinds["escapes"] > 100 and kinds["capped"] > 100
    # the local passes' cap of 512 steps on the top output of an 8x8
    # multiplier
    g = strash(to_aig(array_multiplier(8)))
    w = _Work(g)
    root, leaves = g.pos[-2][1] >> 1, tuple(range(1, w.first_and))
    cap = _first_cap(w, root, leaves)
    assert cap > 512
    assert w.cone_tt(root, leaves) is None
    walk = (w.fan0, w.fan1, w.first_and, w.dead, root, leaves)
    assert cone_tt(*walk, cap - 1) is None
    assert cone_tt(*walk, cap) == _ref_cone_tt(w, root, leaves, cap)
    assert cone_tt(*walk, cap) is not None
    # leaf sets at the widest import-time table and past it, as fraig asks
    for k in (MAX_TT_INPUTS, MAX_TT_INPUTS + 2):
        g = strash(to_aig(_and_chain(k)))
        w = _Work(g)
        root, leaves = g.pos[0][1] >> 1, tuple(range(1, w.first_and))
        want = _ref_cone_tt(w, root, leaves, math.inf)
        assert (cone_tt(w.fan0, w.fan1, w.first_and, w.dead, root, leaves)
                == want == 1 << (1 << k) - 1)


def test_plans_match_the_literal_tree_reference(monkeypatch):
    # trial's gain matches the literal-tree trial on every candidate of
    # recipes 15 and 17; commit adds exactly the nodes its trial planned,
    # after which the literal-tree build gives the trial's literal without
    # adding any; and commit's leaf-bounded cone check agrees with the full
    # walk.  Each program a pass synthesizes, or resub tries, is checked
    # against the reference tree's and kept with that tree, so every trial
    # is compared with the tree its program comes from
    import htforge.restructure as rs
    plain_trial, plain_commit, plain_in_cone = (_Work.trial, _Work.commit,
                                                _Work._in_cone)
    plain_synth, plain_candidates = rs._synth, rs._resub_candidates
    seen = {"trial": 0, "commit": 0, "cone": 0}
    planned, pending, compiled = {}, [], {}

    def keep(program, tree, m):
        assert program == _ref_program(tree, m)
        compiled[id(program)] = (program, tree)

    def synth(tt, m):
        got = plain_synth(tt, m)
        inverted, tree = _ref_factored(tt, m)
        assert got[0] == inverted
        keep(got[1], tree, m)
        return got

    def candidates(divs, sig, s_node, mask, pairs):
        for plan in plain_candidates(divs, sig, s_node, mask, pairs):
            if len(plan[2]) == 1:
                keep(plan[1], ("literal", 0, 1), 1)
            else:
                (a, b, _), = plan[1]
                keep(plan[1], ("and", ("literal", 0, 3 - a),
                               ("literal", 1, 5 - b)), 2)
            yield plan

    def tree_plan(plan):
        inverted, steps, leaf_lits = plan
        got, tree = compiled[id(steps)]
        assert got is steps
        return inverted, tree, leaf_lits

    def trial(self, root, plan, cap=math.inf):
        got = plain_trial(self, root, plan, cap)
        ref = _ref_trial(self, root, _ref_lit_tree(tree_plan(plan)), cap)
        assert (got is None) == (ref is None)
        assert got is None or got[0] == ref[0]
        if got is not None:
            planned[id(got[1])] = (got[1], plan)
        seen["trial"] += 1
        return got

    def commit(self, root, cand, stop=()):
        plan = planned.pop(id(cand))[1]
        planned.clear()  # the graph is about to change
        pending.append((plan, cand, len(self.fan0)))
        got = plain_commit(self, root, cand, stop)
        assert not pending  # the cone check ran, after the nodes were added
        seen["commit"] += 1
        return got

    def in_cone(self, node, top, stop=()):
        if pending:
            plan, (overlay, out), size = pending.pop()
            assert len(self.fan0) == size + len(overlay)
            assert _ref_build(self, _ref_lit_tree(tree_plan(plan))) == out
            assert len(self.fan0) == size + len(overlay)
        got = plain_in_cone(self, node, top, stop)
        if stop:
            assert got == plain_in_cone(self, node, top)
            seen["cone"] += 1
        return got

    monkeypatch.setattr(rs, "_synth", synth)
    monkeypatch.setattr(rs, "_resub_candidates", candidates)
    monkeypatch.setattr(_Work, "trial", trial)
    monkeypatch.setattr(_Work, "commit", commit)
    monkeypatch.setattr(_Work, "_in_cone", in_cone)
    for recipe in (15, 17):
        apply_recipe(array_multiplier(6), RECIPES[recipe], seed=7)
    monkeypatch.undo()
    assert seen["trial"] > 1000 and seen["cone"] > 10
    assert seen["commit"] > seen["cone"]  # resub's candidates too


def test_commit_refuses_a_plan_that_strays_from_its_trial():
    # a trial's overlay numbers the nodes commit must add; if the graph
    # gained a node in between, the first planned node misses its literal
    g = strash(to_aig(array_multiplier(3)))
    w = _Work(g)
    root = g.pos[-1][1] >> 1
    plan = (0, _ref_program(("and", ("literal", 0, 1), ("literal", 1, 1)), 2),
            [2, 4])
    gain, cand = w.trial(root, plan)
    assert list(cand[0]) == [(2, 4)] and cand[1] == 2 * len(w.fan0)
    w.and2(2, 4)
    with pytest.raises(RestructureError, match="did not get its planned literal"):
        w.commit(root, cand)


# ---------------------------------------------------------------------------
# resubstitute against its reference
#
# resubstitute used to try single divisors and then divisor pairs in two
# loops of its own, with done/found flags and a build-check-replace of its
# own beside commit.  That version is kept here as the reference: the one
# candidate path must give the same graph.

def _ref_resubstitute(g, max_divisors=20, seed=0):
    import random
    from htforge.aig import aig_simulate, lit
    from htforge.restructure import _bits
    g = strash(g)
    rng = random.Random(seed ^ 0x5EED)
    mask = (1 << 128) - 1
    sig = aig_simulate(g, [rng.getrandbits(128) for _ in range(g.n_pis)], 128)
    w = _Work(g)
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
                plan = (oc, ("and", ("literal", 0, 1 - c1),
                             ("literal", 1, 1 - c2)), (lit(d1), lit(d2)))
                res = _ref_trial(w, node, _ref_lit_tree(plan), math.inf)
                if res is not None and res[0] >= 1:
                    new_lit = _ref_build(w, _ref_lit_tree(plan))
                    if not w._in_cone(node, new_lit >> 1):
                        w.replace(node, new_lit)
                    done = True
                    break
    return w


def _comparator(n):
    # a > b over two n-bit words, least significant bit first
    b = AigBuilder([f"a{k}" for k in range(n)] + [f"b{k}" for k in range(n)])
    gt = 0
    for k in range(n):
        x, y = b.pi(k), b.pi(n + k)
        differ = b.or2(b.and2(x, y ^ 1), b.and2(x ^ 1, y))
        gt = b.or2(b.and2(x, y ^ 1), b.and2(differ ^ 1, gt))
    b.add_po("gt", gt)
    return strash(b.build())


def test_resub_candidates_come_in_the_reference_order():
    # 4-bit signatures: divisor 1 equals the node, divisor 2 its
    # complement; the pair (1, 2) matches at (c1, c2) = (0, 1) and again,
    # complemented, at (1, 0), and only the first choice is a candidate
    from htforge.restructure import _resub_candidates
    sig = [0, 0b0011, 0b1100, 0b0101]
    one = _ref_program(("literal", 0, 1), 1)
    singles = [(False, one, (2,)), (True, one, (4,))]
    pair = (False, _ref_program(("and", ("literal", 0, 1), ("literal", 1, 0)),
                                2), (2, 4))
    assert list(_resub_candidates([1, 2, 3], sig, 0b0011, 0b1111,
                                  False)) == singles
    assert list(_resub_candidates([1, 2, 3], sig, 0b0011, 0b1111,
                                  True)) == singles + [pair]


def _ref_resub_candidates(divs, sig, s_node, mask, pairs):
    for d in divs:
        if sig[d] == s_node or sig[d] ^ mask == s_node:
            yield sig[d] != s_node, ("literal", 0, 1), (2 * d,)
    if not pairs:
        return
    for i1, d1 in enumerate(divs):
        for d2 in divs[i1 + 1:]:
            for c1, c2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                v = (sig[d1] ^ (mask if c1 else 0)) & (sig[d2] ^ (mask if c2 else 0))
                if v == s_node or v ^ mask == s_node:
                    yield (v != s_node, ("and", ("literal", 0, 1 - c1),
                                         ("literal", 1, 1 - c2)),
                           (2 * d1, 2 * d2))
                    break


def test_resub_candidates_match_the_unscreened_reference():
    # seeded 128-bit signatures over four random signals: divisors that
    # are ANDs of them, or repeat an earlier divisor's signature in either
    # phase; nodes of signature 0, all ones, a divisor's, an AND of two
    # divisors' and a random one
    import random
    from htforge.restructure import _resub_candidates
    rng = random.Random(12)
    mask = (1 << 128) - 1
    phases = (0, mask)
    found = {"single": 0, "pair": 0}
    for _ in range(300):
        base = [rng.getrandbits(128) for _ in range(4)]
        sig = [0]
        for _ in range(rng.randrange(2, 16)):
            if len(sig) > 1 and rng.random() < 0.3:
                sig.append(rng.choice(sig[1:]) ^ rng.choice(phases))
            else:
                a, b = rng.sample(base, 2)
                sig.append(((a ^ rng.choice(phases)) & (b ^ rng.choice(phases)))
                           ^ rng.choice(phases))
        divs = list(range(1, len(sig)))
        d1, d2 = rng.sample(divs, 2)
        pair = (sig[d1] ^ rng.choice(phases)) & (sig[d2] ^ rng.choice(phases))
        for s_node in (0, mask, sig[rng.choice(divs)], pair, pair ^ mask,
                       rng.getrandbits(128)):
            for pairs in (False, True):
                # the reference yields trees; each program is that tree's
                got = list(_resub_candidates(divs, sig, s_node, mask, pairs))
                assert got == [(inv, _ref_program(tree, len(lits)), lits)
                               for inv, tree, lits in _ref_resub_candidates(
                                   divs, sig, s_node, mask, pairs)]
                for plan in got:
                    found["single" if len(plan[2]) == 1 else "pair"] += 1
    assert found["single"] > 300 and found["pair"] > 1000


def test_resub_matches_the_two_loop_reference(monkeypatch):
    # the same fan-in arrays and POs, divisor caps 1, 20 and 24, two seeds,
    # on the strashed graph and after a rewrite
    graphs = [strash(to_aig(n)) for n in _loop_corpus()]
    graphs += [strash(to_aig(random_netlist(s, n_pis=6 + s % 7, n_gates=50)))
               for s in range(12)]
    graphs += [strash(to_aig(rarity_netlist(s, pis_per_branch=4)))
               for s in (1, 2)]
    graphs.append(_comparator(7))
    graphs += [rewrite(g, seed=5) for g in graphs[:8]]
    captured = []
    plain = _Work.rebuild

    def rebuild(self):
        captured.append(self)
        return plain(self)

    monkeypatch.setattr(_Work, "rebuild", rebuild)
    changed = 0
    for g in graphs:
        for max_divisors in (1, 20, 24):
            for seed in (0, 9):
                captured.clear()
                out = resubstitute(g, max_divisors=max_divisors, seed=seed)
                w, ref = captured[0], _ref_resubstitute(g, max_divisors, seed)
                assert (w.fan0, w.fan1, w.pos) == (ref.fan0, ref.fan1, ref.pos)
                changed += out.n_ands < strash(g).n_ands
    assert changed > 30


# ---------------------------------------------------------------------------
# recipes

def test_recipes_all_start_with_strash():
    assert set(RECIPES) == set(range(1, 19))
    for r in RECIPES.values():
        assert r.steps[0].name == "strash"


def test_recipe_validation():
    from htforge.restructure import PassStep
    with pytest.raises(ValueError):
        Recipe(0, (PassStep("balance"),))
    with pytest.raises(ValueError):
        Recipe(0, (PassStep("strash"), PassStep("optimize")))


def test_recipe_rejects_unknown_params():
    with pytest.raises(ValueError, match="'cut_sise' for pass 'rewrite'"):
        recipe_from_steps([{"pass": "rewrite", "params": {"cut_sise": 5}}])
    with pytest.raises(ValueError, match="'exact_budget' for pass 'fraig'"):
        recipe_from_steps([{"pass": "fraig", "params": {"exact_budget": 9}}])
    r = recipe_from_steps([{"pass": "rewrite", "params": {"cut_size": 5}}])
    assert r.steps[1].param_dict() == {"cut_size": 5}


@pytest.mark.parametrize("name, key, value", [
    ("rewrite", "cut_size", 1), ("rewrite", "cut_size", -3),
    ("rewrite", "max_cuts", 1), ("rewrite", "max_cuts", 0),
    ("refactor", "max_cone_inputs", 1), ("refactor", "max_cone_inputs", 0),
    ("resub", "max_divisors", 0), ("resub", "max_divisors", -1),
    ("fraig", "sim_words", 0),
])
def test_recipe_rejects_params_below_their_bound(name, key, value):
    with pytest.raises(ValueError, match=f"'{key}' for pass '{name}' must be"):
        recipe_from_steps([{"pass": name, "params": {key: value}}])


@pytest.mark.parametrize("name, key, value", [
    ("rewrite", "cut_size", 17), ("rewrite", "max_cuts", 17),
    ("rewrite", "max_cuts", 400), ("refactor", "max_cone_inputs", 17),
])
def test_recipe_rejects_params_above_their_bound(name, key, value):
    with pytest.raises(ValueError,
                       match=f"'{key}' for pass '{name}' must be <= 16, "
                             f"got {value}"):
        recipe_from_steps([{"pass": name, "params": {key: value}}])


def test_recipe_accepts_params_at_their_bound():
    r = recipe_from_steps([
        {"pass": "rewrite", "params": {"cut_size": 2, "max_cuts": 2}},
        {"pass": "refactor", "params": {"max_cone_inputs": 2}},
        {"pass": "resub", "params": {"max_divisors": 1}}])
    assert len(r.steps) == 4
    r = recipe_from_steps([
        {"pass": "rewrite", "params": {"cut_size": MAX_TT_INPUTS,
                                       "max_cuts": MAX_CUTS}},
        {"pass": "refactor", "params": {"max_cone_inputs": MAX_TT_INPUTS}}])
    assert len(r.steps) == 3


def test_passes_reject_the_widths_a_recipe_rejects():
    # the recipe check and each pass read the same named bound; past it
    # _synth raises instead of overflowing _count's 16-bit literal counts
    g = strash(to_aig(_and_chain(4)))
    with pytest.raises(ValueError, match="cut_size must be <= 16"):
        rewrite(g, cut_size=MAX_TT_INPUTS + 1)
    with pytest.raises(ValueError, match="max_cuts must be <= 16"):
        rewrite(g, max_cuts=MAX_CUTS + 1)
    with pytest.raises(ValueError, match="max_cone_inputs must be <= 16"):
        refactor(g, max_cone_inputs=MAX_TT_INPUTS + 1)
    with pytest.raises(RestructureError, match="17 inputs"):
        _synth(1, MAX_TT_INPUTS + 1)
    # fraig's and resub's widths are ints, as a recipe's params are; below
    # 1 they keep their reading (one word, at most one divisor)
    for fn, key in ((fraig, "sim_words"), (resubstitute, "max_divisors")):
        for bad in (2.5, "4", "3", True, None):
            with pytest.raises(ValueError, match=f"{key} must be an int"):
                fn(g, **{key: bad})
    assert (export_aiger(fraig(g, sim_words=0))
            == export_aiger(fraig(g, sim_words=1)))
    assert (export_aiger(resubstitute(g, max_divisors=0))
            == export_aiger(resubstitute(g, max_divisors=1)))


@pytest.mark.parametrize("steps, message", [
    pytest.param([{"pass": "balance"},
                  {"pass": "rewrite", "params": {"cut_size": True}}],
                 "param 'cut_size' for pass 'rewrite' must be an int, got True",
                 id="steps0-step 1: 'params' must map names to ints"),
    pytest.param([{"pass": "rewrite", "params": [["cut_size", 5]]}],
                 "step 0: 'params' must be a dict, "
                 "got \\[\\['cut_size', 5\\]\\]",
                 id="steps1-step 0: 'params' must map names to ints"),
    ([{"pass": "balance", "seed": "3"}], "step 0: 'seed' must be an int"),
    ([{"pass": "balance", "seed": False}], "step 0: 'seed' must be an int"),
    ([{"pass": "balance", "sede": 3}], "step 0: unknown keys \\['sede'\\]"),
    pytest.param([{"pass": 4}], "step 0: 'pass' must be a str, got 4",
                 id="steps5-step 0: needs a string 'pass'"),
    pytest.param("strash", "recipe must be a list, got 'strash'",
                 id="strash-must be a list of steps"),
])
def test_recipe_from_steps_rejects_malformed_steps(steps, message):
    with pytest.raises(ValueError, match=message):
        recipe_from_steps(steps)


def test_apply_recipe_full_adder_depth(full_adder):
    out, reports = apply_recipe(full_adder, RECIPES[1], seed=0)
    assert truth_signature(out) == truth_signature(full_adder)
    assert reports[-1].levels_after <= reports[0].levels_before
    assert {r.check_mode for r in reports} == {"exhaustive"}


def test_apply_recipe_deterministic(full_adder):
    a, _ = apply_recipe(full_adder, RECIPES[14], seed=9)
    b, _ = apply_recipe(full_adder, RECIPES[14], seed=9)
    assert write_netlist(a) == write_netlist(b)


def test_apply_recipe_preserves_interface():
    n = random_netlist(8, n_pis=7, n_gates=50)
    for rid in (1, 8, 11, 17):
        out, _ = apply_recipe(n, RECIPES[rid], seed=2)
        assert out.inputs == n.inputs
        assert out.outputs == n.outputs


def test_eighteen_recipes_distinct_and_equivalent():
    n = random_netlist(42, n_pis=10, n_gates=60)
    ref = truth_signature(n)
    texts = set()
    for rid in range(1, 19):
        out, _ = apply_recipe(n, RECIPES[rid], seed=5)
        assert truth_signature(out) == ref
        texts.add(write_netlist(out))
    assert len(texts) == 18


def test_recipe_from_steps_inserts_strash():
    r = recipe_from_steps([{"pass": "balance", "seed": 3}])
    assert r.steps[0].name == "strash"
    assert r.steps[1].name == "balance"


@pytest.mark.parametrize("fn, recipe, step, wide", [
    ("balance", 1, "balance", False), ("rewrite", 2, "rewrite", False),
    ("refactor", 4, "refactor", False), ("resubstitute", 6, "resub", False),
    ("fraig", 8, "fraig", False),
    # 20 PIs, recipe 3 (strash, rewrite, balance): first and last pass broken
    ("rewrite", 3, "rewrite", True), ("balance", 3, "balance", True)],
    ids=["balance", "rewrite", "refactor", "resubstitute", "fraig",
         "rewrite-20pi", "balance-20pi"])
def test_apply_recipe_bug_trap_names_pass(full_adder, monkeypatch, fn, recipe,
                                          step, wide):
    import htforge.restructure as rs

    n = rarity_netlist(0, pis_per_branch=5) if wide else full_adder
    assert len(n.inputs) == (20 if wide else 3)

    def broken(g, seed=0, **params):
        b = AigBuilder(g.pi_names, hashing=True)
        for name, _ in g.pos:
            b.add_po(name, 1)  # constant-false everything
        return b.build()

    # _run_step finds the pass through the module global
    monkeypatch.setattr(rs, fn, broken)
    with pytest.raises(RestructureError, match=f"pass '{step}'"):
        rs.apply_recipe(n, RECIPES[recipe], seed=0)


def test_passes_monotone_on_random_corpus():
    for seed in (11, 23, 35, 47):
        n = random_netlist(seed, n_pis=9, n_gates=70)
        g = strash(to_aig(n))
        ref = _sig(g)
        for fn in (rewrite, refactor, resubstitute, fraig):
            out = fn(g, seed=seed)
            assert out.n_ands <= g.n_ands, fn.__name__
            assert _sig(out) == ref, fn.__name__
        assert balance(g, seed=seed).max_level <= g.max_level


def test_resub_skips_divisor_in_node_fanout():
    # once replace() has run, node indices are no longer topological; a
    # 0-resub onto a divisor in the node's own fanout closed a cycle that
    # rebuild() then walked forever
    def hang(signum, frame):
        raise TimeoutError("resubstitute did not terminate")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        n = rarity_netlist(0, pis_per_branch=5)
        out, reports = apply_recipe(n, RECIPES[9], seed=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # apply_recipe raises on a counterexample, so this is an exhaustive
    # equivalent verdict
    assert len(out.inputs) == 20
    assert all(r.check_mode == "exhaustive" for r in reports)
