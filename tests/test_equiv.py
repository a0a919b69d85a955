import pytest

from htforge.equiv import (
    CheckConfig,
    InterfaceMismatchError,
    check_equivalence,
    check_trojan_semantics,
)
from htforge.netlist import Gate, Netlist, parse_netlist, simulate
from htforge.restructure import RECIPES, apply_recipe
from htforge.trojan import TrojanSpec, insert_trojan

from conftest import random_netlist, truth_signature


def test_check_equivalence_interface_mismatch():
    a = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    b = parse_netlist(
        "module m(a,b,z); input a,b; output z; and g(z,a,b); endmodule")
    with pytest.raises(InterfaceMismatchError):
        check_equivalence(a, b)


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
