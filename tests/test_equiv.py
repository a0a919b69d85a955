import random

import pytest

from htforge import equiv
from htforge.equiv import (
    CheckConfig,
    InterfaceMismatchError,
    check_equivalence,
    check_trojan_semantics,
)
from htforge.netlist import Gate, Netlist, NetlistError, parse_netlist, simulate
from htforge.restructure import RECIPES, apply_recipe
from htforge.trojan import TrojanRecord, TrojanSpec, insert_trojan

from conftest import random_netlist, rarity_netlist, truth_signature


def test_check_equivalence_interface_mismatch():
    a = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    b = parse_netlist(
        "module m(a,b,z); input a,b; output z; and g(z,a,b); endmodule")
    with pytest.raises(InterfaceMismatchError):
        check_equivalence(a, b)
    # a repeated input is refused below the crossover and above it, where
    # the outputs would be proven before any sweep
    for n_pis in (3, 21):
        pis = tuple(f"i{k}" for k in range(n_pis - 1)) + ("i0",)
        n = Netlist("dup", pis, ("y",), (Gate("AND", "y", pis[-2:]),))
        with pytest.raises(NetlistError, match="distinct primary inputs"):
            check_equivalence(n, n)


def test_check_equivalence_after_recipe(full_adder):
    out, _ = apply_recipe(full_adder, RECIPES[7], seed=0)
    verdict = check_equivalence(full_adder, out)
    assert verdict.mode == "exhaustive"
    assert verdict.result == "equivalent"


def test_check_equivalence_finds_trojan_witness(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    verdict = check_equivalence(full_adder, infected)
    assert verdict.result == "counterexample"
    stim = verdict.counterexample
    vg = simulate(full_adder, stim)
    vi = simulate(infected, stim)
    assert any(vg[po] != vi[po] for po in full_adder.outputs)


def test_check_equivalence_agrees_with_truth_tables():
    agree = 0
    for seed in range(100):
        n = random_netlist(seed, n_pis=5, n_gates=14)
        if seed % 2:
            other, _ = apply_recipe(n, RECIPES[1 + seed % 18], seed=seed)
        else:
            gates = list(n.gates)
            for k, g in enumerate(gates):
                if g.kind in ("AND", "OR"):
                    swap = "OR" if g.kind == "AND" else "AND"
                    gates[k] = Gate(swap, g.output, g.inputs, g.name)
                    break
            other = Netlist(n.name, n.inputs, n.outputs, tuple(gates))
        verdict = check_equivalence(n, other)
        expected = truth_signature(n) == truth_signature(other)
        assert verdict.equivalent == expected, seed
        agree += 1
    assert agree == 100


def test_sampled_mode_above_bound():
    n = random_netlist(3, n_pis=6, n_gates=20)
    cfg = CheckConfig(exhaustive_bound=4, sample_vectors=2000, seed=1)
    verdict = check_equivalence(n, n, cfg)
    assert verdict.mode == "sampled"
    assert verdict.result == "no-mismatch-found"
    assert verdict.vectors == 2000


@pytest.mark.parametrize("field, value", [
    ("sample_vectors", 0), ("sample_vectors", -1), ("exhaustive_bound", -1),
    ("seed", None), ("seed", "7"), ("seed", 1.5)])
def test_check_config_rejects_empty_checks(field, value):
    # a seed that is not an int would seed the sampled check from OS
    # entropy (None) or from a hash of the value, not from the config
    with pytest.raises(ValueError, match=f"{field} must be (>= |an int)"):
        CheckConfig(**{field: value})


def test_check_config_accepts_smallest_checks(full_adder):
    cfg = CheckConfig(exhaustive_bound=0, sample_vectors=1)
    verdict = check_equivalence(full_adder, full_adder, cfg)
    assert (verdict.mode, verdict.vectors) == ("sampled", 1)


def test_sampled_mode_finds_mismatch():
    n = random_netlist(6, n_pis=8, n_gates=30)
    gates = list(n.gates)
    gates[-1] = Gate("NAND" if gates[-1].kind != "NAND" else "AND",
                     gates[-1].output, gates[-1].inputs, gates[-1].name)
    other = Netlist(n.name, n.inputs, n.outputs, tuple(gates))
    cfg = CheckConfig(exhaustive_bound=4, sample_vectors=50_000, seed=2)
    verdict = check_equivalence(n, other, cfg)
    if verdict.result == "counterexample":  # overwhelmingly likely
        vg = simulate(n, verdict.counterexample)
        vo = simulate(other, verdict.counterexample)
        assert any(vg[po] != vo[po] for po in n.outputs)


def test_trojan_semantics_valid_insertion(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    verdict = check_trojan_semantics(full_adder, infected, rec)
    assert verdict.ok and verdict.mode == "exhaustive"


def test_trojan_semantics_payload_removed(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    # neutralize the payload: feed the XOR with constant 0 instead of trigger
    gates = tuple(
        Gate(g.kind, g.output, (g.inputs[0], "1'b0"), g.name)
        if g.name == rec.payload_gate else g
        for g in infected.gates)
    broken = Netlist(infected.name, infected.inputs, infected.outputs, gates)
    verdict = check_trojan_semantics(full_adder, broken, rec)
    assert not verdict.ok
    assert "witness" in verdict.reason


def test_trojan_semantics_always_active(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    gates = tuple(
        Gate(g.kind, g.output, (g.inputs[0], "1'b1"), g.name)
        if g.name == rec.payload_gate else g
        for g in infected.gates)
    broken = Netlist(infected.name, infected.inputs, infected.outputs, gates)
    verdict = check_trojan_semantics(full_adder, broken, rec)
    assert not verdict.ok
    assert "trigger inactive" in verdict.reason
    assert verdict.offending is not None


def test_trojan_semantics_missing_witness(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    rec.witness = None
    verdict = check_trojan_semantics(full_adder, infected, rec)
    assert not verdict.ok
    assert "unproven" in verdict.reason


def test_trojan_semantics_witness_leaving_a_pi_unbound(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    del rec.witness["b"]
    verdict = check_trojan_semantics(full_adder, infected, rec)
    assert not verdict.ok
    assert verdict.reason == "witness does not bind PIs ['b']"


def test_trojan_semantics_trigger_net_the_infected_lacks(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    rec.trigger = (*rec.trigger, ("nope", 1))
    verdict = check_trojan_semantics(full_adder, infected, rec)
    assert not verdict.ok
    assert verdict.reason == "infected lacks trigger nets ['nope']"


# ---------------------------------------------------------------------------
# exhaustive checks that prove merges first (more than SWEEP_CHUNKS chunks)

# each gate kind's two single-gate mutations: its dual and its complement
_FLIPS = {"AND": ("OR", "NAND"), "OR": ("AND", "NOR"), "NAND": ("NOR", "AND"),
          "NOR": ("NAND", "OR"), "XOR": ("AND", "XNOR"),
          "XNOR": ("OR", "XOR"), "BUF": ("NOT",), "NOT": ("BUF",)}


def _wide_case(name):
    """(golden, the netlist its mutants are planted in) of 22-24 PIs."""
    if name == "rar22":
        n = rarity_netlist(29, n_branches=2, pis_per_branch=11)
        return n, n
    n = rarity_netlist(7)
    return n, apply_recipe(n, RECIPES[int(name[len("rar24-recipe"):])],
                           seed=7)[0]


def _swept(a, b, monkeypatch, cfg):
    """_first_divergence of a plain vector sweep over every PO."""
    with monkeypatch.context() as m:
        m.setattr(equiv, "SWEEP_CHUNKS", 1 << 30)
        return equiv._first_divergence(a, b, cfg)


@pytest.mark.parametrize("name", ["rar24-recipe1", "rar24-recipe10", "rar22"])
def test_no_planted_mutant_is_proven(name, monkeypatch):
    # a mutated gate changes its output function; the PO pairs that differ
    # on the first counterexample stay unproven, so proving first finds the
    # same first counterexample as a sweep of every PO
    golden, host = _wide_case(name)
    assert len(golden.inputs) in (22, 24)
    cfg = CheckConfig(seed=3)
    flips = [(k, kind) for k, g in enumerate(host.gates)
             for kind in _FLIPS[g.kind]]
    random.Random(name).shuffle(flips)
    mutants = 0
    for k, kind in flips:
        gates = list(host.gates)
        gates[k] = gates[k]._replace(kind=kind)
        mutant = Netlist(host.name, host.inputs, host.outputs, tuple(gates))
        mode, total, stim = _swept(golden, mutant, monkeypatch, cfg)
        if stim is None:
            continue   # the mutation is masked: no mutant
        _, pairs = equiv._unproven(golden, mutant, cfg.seed)
        vg, vm = simulate(golden, stim), simulate(mutant, stim)
        assert {po for po in golden.outputs if vg[po] != vm[po]} <= set(pairs)
        assert equiv._first_divergence(golden, mutant, cfg) == (
            mode, total, stim)
        verdict = check_equivalence(golden, mutant, cfg)
        assert (verdict.mode, verdict.result, verdict.counterexample,
                verdict.vectors) == ("exhaustive", "counterexample", stim,
                                     1 << len(golden.inputs))
        mutants += 1
        if mutants == 20:
            break
    assert mutants == 20


@pytest.mark.parametrize("name", ["rar24-recipe1", "rar24-recipe10", "rar22"])
def test_wide_equivalent_pairs_keep_their_verdict(name, monkeypatch):
    golden, variant = _wide_case(name)
    if variant is golden:
        variant = apply_recipe(golden, RECIPES[3], seed=5)[0]
    built = []
    joint = equiv._joint
    monkeypatch.setattr(equiv, "_joint", lambda a, b: built.append(1)
                        or joint(a, b))
    verdict = check_equivalence(golden, variant)
    assert built == [1]
    assert (verdict.mode, verdict.result, verdict.counterexample,
            verdict.vectors) == ("exhaustive", "equivalent", None,
                                 1 << len(golden.inputs))


def test_checks_at_or_below_the_crossover_never_build_the_joint_graph(
        monkeypatch):
    # SWEEP_CHUNKS chunks of 2^CHUNK_VARS vectors are swept as before, as
    # are sampled checks and the trigger-masked sweep of a Trojan check
    def joint(a, b):
        raise AssertionError("joint graph built")

    monkeypatch.setattr(equiv, "_joint", joint)
    rar20 = rarity_netlist(11, pis_per_branch=5)
    assert 1 << len(rar20.inputs) == equiv.SWEEP_CHUNKS << equiv.CHUNK_VARS
    variant = apply_recipe(rar20, RECIPES[10], seed=1)[0]
    assert check_equivalence(rar20, variant).equivalent
    rar24 = rarity_netlist(7)
    sampled = check_equivalence(rar24, rar24, CheckConfig(exhaustive_bound=20))
    assert (sampled.mode, sampled.result) == ("sampled", "no-mismatch-found")
    gates = [g._replace(output="pre") if g.output == "po0" else g
             for g in rar24.gates]
    gates += [Gate("AND", "t", ("i0_0", "i1_0", "i2_0"), "gt"),
              Gate("XOR", "po0", ("pre", "t"), "gp")]
    infected = Netlist(rar24.name, rar24.inputs, rar24.outputs, tuple(gates))
    rec = TrojanRecord(trigger=(("t", 1),), trigger_net="t", victim="po0",
                       victim_pre="pre", payload_gate="gp",
                       witness=dict.fromkeys(rar24.inputs, 1),
                       added_gates=())
    verdict = check_trojan_semantics(rar24, infected, rec)
    assert verdict.ok and verdict.mode == "exhaustive"
    rar21 = rarity_netlist(11, n_branches=3, pis_per_branch=7)
    with pytest.raises(AssertionError, match="joint graph built"):
        check_equivalence(rar21, rar21)
