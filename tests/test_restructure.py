import copy
import itertools
import math
import signal

import pytest

from hypothesis import given, settings, strategies as st

from htforge.aig import (
    AigBuilder,
    exhaustive_signatures,
    from_aig,
    po_signatures,
    strash,
    to_aig,
    tt_var,
)
from htforge.netlist import Gate, Netlist, parse_netlist, write_netlist
from htforge.restructure import (
    RECIPES,
    Recipe,
    RestructureError,
    _Work,
    _balanced,
    _cube_tree,
    _factor,
    _factored,
    _tree_cost,
    apply_recipe,
    balance,
    fraig,
    isop,
    recipe_from_steps,
    refactor,
    resubstitute,
    rewrite,
    synth_tree,
)

from conftest import array_multiplier, random_netlist, rarity_netlist, truth_signature


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
    # the top product bit of an 8x8 multiplier over all 16 PIs: fraig's
    # uncapped proofs get its truth table, the 512-step cap of rewrite,
    # refactor and resub gives up
    g = strash(to_aig(array_multiplier(8)))
    name, l = g.pos[-1]
    assert name == "p15" and g.is_and(l >> 1)
    w = _Work(g)
    pis = tuple(range(1, 1 + g.n_pis))
    tt = w.cone_tt(l >> 1, pis, max_steps=math.inf)
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


def test_synth_tree_constant_and_literal_shortcuts():
    assert synth_tree(0, 2, [2, 4], {}) == ("lit", 1)
    assert synth_tree(0b1111, 2, [2, 4], {}) == ("lit", 0)
    assert synth_tree(0b1010, 2, [2, 4], {}) == ("lit", 2)
    assert synth_tree(0b0101, 2, [2, 4], {}) == ("lit", 3)


def test_synth_tree_memo_gives_the_uncached_tree(monkeypatch):
    # one memo shared by many calls builds what a fresh memo per call does,
    # also where one integer is a table at two widths
    shared = {}
    for m in (2, 3):
        lits = [2, 4, 6][:m]
        for tt in range(1 << (1 << m)):
            assert synth_tree(tt, m, lits, shared) == synth_tree(tt, m, lits, {})
    import htforge.restructure as rs
    calls = []

    def recording(tt, m, leaf_lits, memo):
        calls.append((tt, m, list(leaf_lits)))
        return synth_tree(tt, m, leaf_lits, memo)

    monkeypatch.setattr(rs, "synth_tree", recording)
    apply_recipe(array_multiplier(6), RECIPES[15], seed=7)
    monkeypatch.undo()
    wide = [c for c in calls if c[1] >= 10]
    assert {10, 12} <= {m for _, m, _ in wide}
    assert len({(tt, m) for tt, m, _ in wide}) < len(wide)  # the memo hits
    shared = {}
    for tt, m, leaf_lits in wide:
        assert (synth_tree(tt, m, leaf_lits, shared)
                == synth_tree(tt, m, leaf_lits, {}))


def test_synth_tree_memo_maps_onto_each_calls_leaves():
    memo = {}
    maj = 0b11101000  # majority of three
    a = synth_tree(maj, 3, [2, 4, 6], memo)
    b = synth_tree(maj, 3, [10, 12, 14], memo)
    assert len(memo) == 1
    assert a == synth_tree(maj, 3, [2, 4, 6], {})
    assert b == synth_tree(maj, 3, [10, 12, 14], {})

    def lits(t):
        return {t[1]} if t[0] == "lit" else set().union(*map(lits, t[1:]))

    assert {l >> 1 for l in lits(a)} == {1, 2, 3}
    assert {l >> 1 for l in lits(b)} == {5, 6, 7}


# ---------------------------------------------------------------------------
# synthesis kernels against the full-width reference
#
# isop used to cofactor full-width tables and _factor to de-duplicate and
# rank literals with max() at every level.  Those versions are kept here as
# the reference: the halving-table isop and the one-pass _factor must give
# the same cubes and the same trees.

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


def _ref_factor(cubes):
    cubes = list(dict.fromkeys(cubes))
    if not cubes:
        return ("const", 0)
    if (0, 0) in cubes:
        return ("const", 1)
    if len(cubes) == 1:
        return _cube_tree(cubes[0])
    counts = {}
    for p, q in cubes:
        for v in _ref_bits(p):
            counts[(v, 1)] = counts.get((v, 1), 0) + 1
        for v in _ref_bits(q):
            counts[(v, 0)] = counts.get((v, 0), 0) + 1
    (v, pol), best = max(counts.items(),
                         key=lambda kv: (kv[1], -kv[0][0], kv[0][1]))
    if best < 2:
        return _balanced("or", [_cube_tree(c) for c in cubes])
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
    return tables


def _check_kernels(tt, m):
    cubes = _ref_isop(tt, m)
    assert isop(tt, m) == cubes, (tt, m)
    assert _factor(cubes) == _ref_factor(cubes), (tt, m)
    assert _factored(tt, m) == _ref_factored(tt, m), (tt, m)


def test_kernels_match_the_reference_on_seeded_tables():
    import random
    for tt, m in _kernel_tables():
        _check_kernels(tt, m)
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
        assert _factor(cubes) == _ref_factor(cubes), cubes


def test_kernels_match_the_reference_on_recipe_cones(monkeypatch):
    import htforge.restructure as rs
    seen = []

    def recording(tt, m):
        seen.append((tt, m))
        return _factored(tt, m)

    monkeypatch.setattr(rs, "_factored", recording)
    apply_recipe(array_multiplier(6), RECIPES[15], seed=7)
    monkeypatch.undo()
    wide = [(tt, m) for tt, m in seen if m >= 10]
    assert {10, 12} <= {m for _, m in wide}
    for tt, m in wide:
        _check_kernels(tt, m)


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


def test_recipe_accepts_params_at_their_bound():
    r = recipe_from_steps([
        {"pass": "rewrite", "params": {"cut_size": 2, "max_cuts": 2}},
        {"pass": "refactor", "params": {"max_cone_inputs": 2}},
        {"pass": "resub", "params": {"max_divisors": 1}}])
    assert len(r.steps) == 4


@pytest.mark.parametrize("steps, message", [
    ([{"pass": "balance"}, {"pass": "rewrite", "params": {"cut_size": True}}],
     "step 1: 'params' must map names to ints"),
    ([{"pass": "rewrite", "params": [["cut_size", 5]]}],
     "step 0: 'params' must map names to ints"),
    ([{"pass": "balance", "seed": "3"}], "step 0: 'seed' must be an int"),
    ([{"pass": "balance", "seed": False}], "step 0: 'seed' must be an int"),
    ([{"pass": "balance", "sede": 3}], "step 0: unknown keys \\['sede'\\]"),
    ([{"pass": 4}], "step 0: needs a string 'pass'"),
    ("strash", "must be a list of steps"),
])
def test_recipe_from_steps_rejects_malformed_steps(steps, message):
    with pytest.raises(ValueError, match=message):
        recipe_from_steps(steps)


def test_apply_recipe_full_adder_depth(full_adder):
    out, reports = apply_recipe(full_adder, RECIPES[1], seed=0)
    assert truth_signature(out) == truth_signature(full_adder)
    assert reports[-1].levels_after <= reports[0].levels_before
    assert all(r.equivalence_checked for r in reports)
    assert reports[0].check_mode == "exhaustive"


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
