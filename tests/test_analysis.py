import math
import random
from operator import and_, or_

import pytest

from htforge.analysis import (
    SCOAP_CAP,
    NetStats,
    _sat_add,
    ScoapValues,
    exact_signal_prob,
    rare_nets,
    scoap,
    signal_prob,
)
from htforge.netlist import (CONST0, CONST1, GATE_OPS, Gate, Netlist,
                             parse_netlist, simulate_packed, stimuli)

from conftest import C17, random_netlist, rarity_netlist
from test_netlist import _SPLIT_NETLISTS


# ---------------------------------------------------------------------------
# independent SCOAP oracle: recursive controllabilities, fixpoint
# relaxation for observabilities (different algorithm shape on purpose)

def oracle_scoap(n):
    INF = math.inf
    memo = {}

    def cc(net):
        if net in memo:
            return memo[net]
        if net == CONST0:
            out = (1, INF)
        elif net == CONST1:
            out = (INF, 1)
        elif n.driver[net] is None:
            out = (1, 1)
        else:
            g = n.driver[net]
            ins = [cc(i) for i in g.inputs]
            z = [v[0] for v in ins]
            o = [v[1] for v in ins]
            if g.kind == "BUF":
                out = (z[0] + 1, o[0] + 1)
            elif g.kind == "NOT":
                out = (o[0] + 1, z[0] + 1)
            elif g.kind == "AND":
                out = (min(z) + 1, sum(o) + 1)
            elif g.kind == "NAND":
                out = (sum(o) + 1, min(z) + 1)
            elif g.kind == "OR":
                out = (sum(z) + 1, min(o) + 1)
            elif g.kind == "NOR":
                out = (min(o) + 1, sum(z) + 1)
            else:
                even, odd = 0, INF
                for zz, oo in zip(z, o):
                    even, odd = (min(even + zz, odd + oo),
                                 min(even + oo, odd + zz))
                out = ((even + 1, odd + 1) if g.kind == "XOR"
                       else (odd + 1, even + 1))
        memo[net] = out
        return out

    for net in n.nets:
        cc(net)
    co = {net: INF for net in n.nets}
    for o in n.outputs:
        co[o] = 0
    changed = True
    while changed:
        changed = False
        for g in n.gates:
            base = co[g.output]
            if base == INF:
                continue
            for idx, i in enumerate(g.inputs):
                others = [j for t, j in enumerate(g.inputs) if t != idx]
                if g.kind in ("BUF", "NOT"):
                    cand = base + 1
                elif g.kind in ("AND", "NAND"):
                    cand = base + sum(memo[j][1] for j in others) + 1
                elif g.kind in ("OR", "NOR"):
                    cand = base + sum(memo[j][0] for j in others) + 1
                else:
                    cand = base + sum(min(memo[j]) for j in others) + 1
                if cand < co[i]:
                    co[i] = cand
                    changed = True

    def cap(v):
        return SCOAP_CAP if v >= SCOAP_CAP else int(v)

    return ({net: cap(memo[net][0]) for net in n.nets},
            {net: cap(memo[net][1]) for net in n.nets},
            {net: cap(co[net]) for net in n.nets})


def test_scoap_single_and():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    sc = scoap(n)
    assert sc.cc1["y"] == 3 and sc.cc0["y"] == 2
    assert sc.cc0["a"] == sc.cc1["a"] == 1
    assert sc.co["y"] == 0


def test_scoap_buf_chain():
    n = parse_netlist("module m(a,y); input a; output y; wire w1,w2;"
                      " buf g1(w1,a); buf g2(w2,w1); buf g3(y,w2); endmodule")
    sc = scoap(n)
    assert sc.cc0["y"] == 4 and sc.cc1["y"] == 4
    chain = [sc.cc0["a"], sc.cc0["w1"], sc.cc0["w2"], sc.cc0["y"]]
    assert chain == sorted(chain)  # never decreases along the chain


def test_scoap_c17_frozen_values():
    # hand-applied Goldstein rules on the six-NAND circuit
    sc = scoap(parse_netlist(C17))
    assert (sc.cc0["N10"], sc.cc1["N10"]) == (3, 2)
    assert (sc.cc0["N11"], sc.cc1["N11"]) == (3, 2)
    assert (sc.cc0["N16"], sc.cc1["N16"]) == (4, 2)
    assert (sc.cc0["N19"], sc.cc1["N19"]) == (4, 2)
    assert (sc.cc0["N22"], sc.cc1["N22"]) == (5, 4)
    assert (sc.cc0["N23"], sc.cc1["N23"]) == (5, 5)
    assert sc.co["N22"] == 0 and sc.co["N23"] == 0
    assert sc.co["N10"] == 3 and sc.co["N16"] == 3 and sc.co["N19"] == 3
    assert sc.co["N11"] == 5
    assert (sc.co["N1"], sc.co["N2"], sc.co["N3"]) == (5, 6, 5)
    assert (sc.co["N6"], sc.co["N7"]) == (7, 6)


def test_scoap_matches_oracle_on_c17():
    n = parse_netlist(C17)
    sc = scoap(n)
    cc0, cc1, co = oracle_scoap(n)
    for net in n.nets:
        assert sc.cc0[net] == cc0[net]
        assert sc.cc1[net] == cc1[net]
        assert sc.co[net] == co[net]


def test_scoap_matches_oracle_on_random_circuits():
    for seed in range(20):
        n = random_netlist(seed * 13 + 5, n_pis=4, n_gates=10)
        sc = scoap(n)
        cc0, cc1, co = oracle_scoap(n)
        for net in n.nets:
            assert sc.cc0[net] == cc0[net], (seed, net)
            assert sc.cc1[net] == cc1[net], (seed, net)
            assert sc.co[net] == co[net], (seed, net)


def test_scoap_pi_and_po_invariants():
    for seed in (3, 11):
        n = random_netlist(seed)
        sc = scoap(n)
        for p in n.inputs:
            assert sc.cc0[p] == 1 and sc.cc1[p] == 1
        for o in n.outputs:
            assert sc.co[o] == 0


def test_signal_prob_and_gate():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    stats = signal_prob(n, 100_000, seed=1)
    assert abs(stats.p["y"] - 0.25) < 0.01
    assert abs(stats.tp["y"] - 2 * 0.25 * 0.75) < 0.02


def test_signal_prob_xor_gate():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    stats = signal_prob(n, 100_000, seed=2)
    assert abs(stats.p["y"] - 0.5) < 0.01


def test_signal_prob_wide_and():
    ins = ", ".join(f"i{k}" for k in range(8))
    n = parse_netlist(f"module m({ins}, y); input {ins}; output y;"
                      f" and g(y, {ins}); endmodule")
    stats = signal_prob(n, 100_000, seed=3)
    assert 0.0 <= stats.p["y"] <= 0.0085


def test_signal_prob_deterministic_per_seed():
    n = random_netlist(4)
    a = signal_prob(n, 5000, seed=7)
    b = signal_prob(n, 5000, seed=7)
    c = signal_prob(n, 5000, seed=8)
    assert a.p == b.p
    assert a.p != c.p


def test_signal_prob_rejects_zero_vectors():
    n = random_netlist(4)
    with pytest.raises(ValueError):
        signal_prob(n, 0)


def test_exact_signal_prob_basics():
    n = parse_netlist("module m(a,b,y,z); input a,b; output y,z;"
                      " and g1(y,a,b); buf g2(z, 1'b1); endmodule")
    stats = exact_signal_prob(n)
    assert stats.p["y"] == 0.25
    assert stats.p["z"] == 1.0
    assert stats.p[CONST1] == 1.0 and stats.p[CONST0] == 0.0


def test_exact_signal_prob_majority():
    n = parse_netlist("""
        module m(a,b,c,y); input a,b,c; output y; wire t1,t2,t3;
          and g1(t1,a,b); and g2(t2,a,c); and g3(t3,b,c);
          or g4(y,t1,t2,t3);
        endmodule""")
    assert exact_signal_prob(n).p["y"] == 0.5


def test_exact_signal_prob_pi_bound():
    n = random_netlist(1, n_pis=8, n_gates=10)
    big = Netlist("big", tuple(f"i{k}" for k in range(25)), n.outputs, n.gates)
    with pytest.raises(ValueError):
        exact_signal_prob(big)


_EXACT_NETLISTS = {**_SPLIT_NETLISTS, "rar24": lambda: rarity_netlist(7)}


@pytest.mark.parametrize("name", sorted(_EXACT_NETLISTS))
def test_exact_signal_prob_equals_the_per_chunk_count(name):
    # the sweep runs the prologue on its first chunk only (256 chunks at 24
    # PIs); counting every word of every stateless chunk must give the same p
    n = _EXACT_NETLISTS[name]()
    ones = dict.fromkeys(n.nets, 0)
    for patterns, width in stimuli(n.inputs):
        for net, v in simulate_packed(n, patterns, width).items():
            ones[net] += v.bit_count()
    want = {net: c / (1 << len(n.inputs)) for net, c in ones.items()}
    assert exact_signal_prob(n).p == want


def test_sampled_converges_to_exact():
    bad = 0
    total = 0
    for seed in (1, 2, 3):
        n = random_netlist(seed * 7, n_pis=6, n_gates=25)
        exact = exact_signal_prob(n)
        for sseed in (10, 20):
            est = signal_prob(n, 4096, seed=sseed)
            for net in n.nets:
                p = exact.p[net]
                bound = 3 * math.sqrt(p * (1 - p) / 4096) + 1e-12
                total += 1
                if abs(est.p[net] - p) > bound:
                    bad += 1
    assert bad / total < 0.01


def test_rare_nets_low_prob():
    ins = ", ".join(f"i{k}" for k in range(8))
    n = parse_netlist(f"module m({ins}, y); input {ins}; output y;"
                      f" and g(y, {ins}); endmodule")
    stats = exact_signal_prob(n)
    rare, regular = rare_nets(stats, "signal-prob-low", 0.1)
    assert "y" in rare
    assert rare[0] == "y"  # rarest first


def test_rare_nets_zero_threshold_empty():
    stats = exact_signal_prob(random_netlist(5, n_pis=5, n_gates=12))
    rare, _ = rare_nets(stats, "signal-prob-low", 0.0)
    assert rare == []


def test_rare_nets_partition_is_exact():
    n = random_netlist(9, n_pis=6, n_gates=20)
    stats = exact_signal_prob(n)
    rare, regular = rare_nets(stats, "signal-prob-low", 1.0)
    nets = [x for x in n.nets if x not in (CONST0, CONST1)]
    assert sorted(rare) == sorted(nets)
    assert regular == []
    rare2, reg2 = rare_nets(stats, "signal-prob-low", 0.3)
    assert set(rare2) | set(reg2) == set(nets)
    assert set(rare2) & set(reg2) == set()


def test_rare_nets_scoap_hard_matches_oracle_ranking():
    n = parse_netlist(C17)
    sc = scoap(n)
    cc0, cc1, co = oracle_scoap(n)
    rare, _ = rare_nets(sc, "scoap-hard", 8)
    expected = sorted(
        (net for net in n.nets if net not in (CONST0, CONST1)
         and cc0[net] + cc1[net] + co[net] >= 8),
        key=lambda net: (-(cc0[net] + cc1[net] + co[net]), net))
    assert rare == expected


def test_rare_nets_high_metric_and_errors():
    n = random_netlist(2, n_pis=5, n_gates=15)
    stats = exact_signal_prob(n)
    rare, _ = rare_nets(stats, "signal-prob-high", 0.2)
    assert all(stats.p[x] > 0.8 for x in rare)
    with pytest.raises(ValueError):
        rare_nets(stats, "entropy", 0.5)
    with pytest.raises(TypeError):
        rare_nets(stats, "scoap-hard", 5)
    with pytest.raises(TypeError):
        rare_nets(scoap(n), "signal-prob-low", 0.1)


# ---------------------------------------------------------------------------
# scoap against its reference
#
# scoap used to build per-gate lists of input controllabilities, and its
# backward pass a list of the other inputs for every input, which is
# quadratic in the fan-in.  That version is kept here as the reference: the
# linear passes must give the same values, saturation included.

def _ref_scoap(n):
    cc0 = {CONST0: 1, CONST1: SCOAP_CAP}
    cc1 = {CONST0: SCOAP_CAP, CONST1: 1}
    for p in n.inputs:
        cc0[p] = 1
        cc1[p] = 1
    for g in n.topo_gates:
        op, inv = GATE_OPS[g.kind]
        zeros = [cc0[i] for i in g.inputs]
        ones = [cc1[i] for i in g.inputs]
        if op is None:
            c0, c1 = zeros[0] + 1, ones[0] + 1
        elif op is and_:
            c0, c1 = min(zeros) + 1, _sat_add(*ones, 1)
        elif op is or_:
            c0, c1 = _sat_add(*zeros, 1), min(ones) + 1
        else:  # parity DP over the inputs
            even, odd = 0, SCOAP_CAP
            for z, o in zip(zeros, ones):
                even, odd = (min(_sat_add(even, z), _sat_add(odd, o)),
                             min(_sat_add(even, o), _sat_add(odd, z)))
            c0, c1 = _sat_add(even, 1), _sat_add(odd, 1)
        if inv:
            c0, c1 = c1, c0
        c0, c1 = min(c0, SCOAP_CAP), min(c1, SCOAP_CAP)
        cc0[g.output] = c0
        cc1[g.output] = c1

    co = {net: SCOAP_CAP for net in n.nets}
    for o in n.outputs:
        co[o] = 0
    for g in reversed(n.topo_gates):
        op = GATE_OPS[g.kind][0]
        out_co = co[g.output]
        for idx, i in enumerate(g.inputs):
            others = [j for k, j in enumerate(g.inputs) if k != idx]
            if op is None:
                cand = _sat_add(out_co, 1)
            elif op is and_:
                cand = _sat_add(out_co, *[cc1[j] for j in others], 1)
            elif op is or_:
                cand = _sat_add(out_co, *[cc0[j] for j in others], 1)
            else:
                cand = _sat_add(out_co,
                                *[min(cc0[j], cc1[j]) for j in others], 1)
            if cand < co[i]:
                co[i] = cand
    return cc0, cc1, co


def _scoap_netlists():
    rng = random.Random(23)
    kinds = ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR")
    for k in range(40):
        pis = [f"i{j}" for j in range(rng.randint(2, 5))]
        nets, gates = pis + [CONST0, CONST1], []
        for j in range(rng.randint(5, 30)):
            kind = rng.choice(kinds)
            width = 1 if kind in ("BUF", "NOT") else rng.randint(2, 6)
            ins = tuple(rng.choice(nets) for _ in range(width))  # repeats too
            gates.append(Gate(kind, f"w{j}", ins, f"g{j}"))
            nets.append(f"w{j}")
        yield Netlist(f"r{k}", tuple(pis), (nets[-1], nets[-3]), tuple(gates))
    # doubling chains run CC1, CC0 and the parity DP into SCOAP_CAP
    for kind in ("AND", "NOR", "XOR", "XNOR"):
        gates, prev = [], "a"
        for j in range(40):
            gates.append(Gate(kind, f"d{j}", (prev, prev, CONST1, "b"), f"g{j}"))
            prev = f"d{j}"
        gates.append(Gate("NAND", "y", (prev, "a", prev), "gy"))
        yield Netlist(kind, ("a", "b"), ("y", "d3"), tuple(gates))


def test_scoap_matches_the_list_reference():
    saturated = 0
    for n in _scoap_netlists():
        sc = scoap(n)
        assert [list(m.items()) for m in (sc.cc0, sc.cc1, sc.co)] \
            == [list(m.items()) for m in _ref_scoap(n)], n.name
        saturated += sum(v == SCOAP_CAP for m in (sc.cc0, sc.cc1)
                         for net, v in m.items() if net not in (CONST0, CONST1))
    assert saturated > 50


@pytest.mark.parametrize("seed", [None, "7", 1.5])
def test_signal_prob_rejects_a_seed_that_is_not_an_int(seed):
    # None would seed from OS entropy and give different p per call
    n = random_netlist(3, n_pis=12, n_gates=60)
    with pytest.raises(ValueError, match="seed must be an int"):
        signal_prob(n, 1000, seed=seed)
