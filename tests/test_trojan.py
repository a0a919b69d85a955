import random

import pytest

import htforge.trojan
from htforge.analysis import exact_signal_prob, signal_prob
from htforge.equiv import CheckConfig, check_trojan_semantics
from htforge.netlist import (EXHAUSTIVE_PIS, Gate, Netlist, decode,
                             parse_netlist, simulate, simulate_packed, stimuli,
                             trigger_word, validate)
from htforge.trojan import (
    PROBE_VECTORS,
    InsertionError,
    InsufficientRareNetsError,
    TrojanRecord,
    TrojanSpec,
    _build_infected,
    _cone_netlist,
    _decode,
    _fresh_namer,
    _probe,
    _rare_activations,
    activation_estimate,
    find_trigger_witness,
    insert_trojan,
)

from conftest import (all_stimuli, random_netlist, rarity_netlist,
                      record_from_json_dict)


def _wide_and(k=8):
    ins = ", ".join(f"i{j}" for j in range(k))
    return parse_netlist(f"module m({ins}, y); input {ins}; output y;"
                         f" and g(y, {ins}); endmodule")


def test_insert_into_full_adder(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    assert infected.inputs == full_adder.inputs
    assert infected.outputs == full_adder.outputs
    assert validate(infected) == []
    kinds = [g.kind for g in infected.gates]
    assert kinds.count("XOR") == full_adder_xor_count() + 1
    assert "AND" in kinds
    # agreement whenever the trigger is off, divergence on the witness
    for stim in all_stimuli(full_adder):
        vg = simulate(full_adder, stim)
        vi = simulate(infected, stim)
        active = all((vi[net] if pol else 1 - vi[net])
                     for net, pol in rec.trigger)
        if not active:
            assert all(vg[po] == vi[po] for po in full_adder.outputs)
    vg = simulate(full_adder, rec.witness)
    vi = simulate(infected, rec.witness)
    assert any(vg[po] != vi[po] for po in full_adder.outputs)


def full_adder_xor_count():
    return 2


def test_insert_all_rare_picks_wide_and_output():
    ins = ", ".join(f"i{j}" for j in range(8))
    n = parse_netlist(f"module m({ins}, y, z); input {ins}; output y, z;"
                      f" and g1(y, {ins}); or g2(z, i0, i1); endmodule")
    spec = TrojanSpec(q=2, rare_count=1, threshold=0.1, seed=1,
                      sample_vectors=4096)
    infected, rec = insert_trojan(n, spec)
    nets = dict(rec.trigger)
    assert "y" in nets and nets["y"] == 1  # rare value of a low-p net is 1
    assert rec.victim == "z"


def test_insert_no_loop_free_victim():
    # both gate outputs sit inside the trigger cone, so no victim exists
    n = parse_netlist("module m(a,b,c,y); input a,b,c; output y; wire w;"
                      " and g1(w,a,b); and g2(y,w,c); endmodule")
    spec = TrojanSpec(q=2, rare_count=2, threshold=0.3, seed=0,
                      sample_vectors=4096)
    with pytest.raises(InsertionError, match="victim"):
        insert_trojan(n, spec)


def test_insert_insufficient_rare_nets():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    spec = TrojanSpec(q=2, rare_count=2, threshold=0.01, seed=0,
                      sample_vectors=4096)
    with pytest.raises(InsufficientRareNetsError,
                       match="insufficient rare nets"):
        insert_trojan(n, spec)


def test_insert_q_exceeds_net_count():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; and g(y,a,b); endmodule")
    spec = TrojanSpec(q=5, rare_count=0, threshold=0.5, seed=0,
                      sample_vectors=1024)
    with pytest.raises(InsertionError, match="exceeds"):
        insert_trojan(n, spec)


def test_insert_deterministic(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=11,
                      sample_vectors=4096)
    _, r1 = insert_trojan(full_adder, spec)
    _, r2 = insert_trojan(full_adder, spec)
    assert r1 == r2


def test_spec_validation():
    with pytest.raises(ValueError):
        TrojanSpec(q=1)
    with pytest.raises(ValueError):
        TrojanSpec(q=2, rare_count=3)
    assert TrojanSpec(q=3).rare_count == 3  # defaults to q


@pytest.mark.parametrize("fields, message", [
    ({"q": "3"}, "q must be an int, got '3'"),
    ({"q": 3.0}, "q must be an int, got 3.0"),
    ({"q": 3, "rare_count": "2"}, "rare_count must be an int, got '2'"),
    ({"q": 3, "rare_count": True}, "rare_count must be an int, got True"),
    ({"seed": "x"}, "seed must be an int, got 'x'"),
    ({"seed": None}, "seed must be an int, got None"),
    ({"sample_vectors": 4096.0}, "sample_vectors must be an int, got 4096.0"),
])
def test_spec_rejects_non_int_fields(fields, message):
    with pytest.raises(ValueError) as info:
        TrojanSpec(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"metric": "bogus"}, "metric must be one of ('signal-prob-low', "
     "'signal-prob-high', 'scoap-hard'), got 'bogus'"),
    ({"threshold": float("nan")}, "threshold must be a finite number, got nan"),
    ({"threshold": float("inf")}, "threshold must be a finite number, got inf"),
    ({"q": 3, "rare_count": 4}, "rare_count must be one of range(0, 4), got 4"),
    ({"sample_vectors": 0}, "sample_vectors must be >= 1, got 0"),
])
def test_spec_rejects_unknown_metric_and_bad_ranges(fields, message):
    with pytest.raises(ValueError) as info:
        TrojanSpec(**fields)
    assert str(info.value) == message


def test_record_json_round_trip(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=5,
                      sample_vectors=4096)
    _, rec = insert_trojan(full_adder, spec)
    back = record_from_json_dict(rec.to_json_dict())
    assert back == rec


def test_find_witness_full_adder(full_adder):
    spec = TrojanSpec(q=2, rare_count=0, threshold=0.01, seed=3,
                      sample_vectors=4096)
    infected, rec = insert_trojan(full_adder, spec)
    wit = find_trigger_witness(infected, rec)
    assert wit is not None
    vals = simulate(infected, wit)
    assert all((vals[net] if pol else 1 - vals[net])
               for net, pol in rec.trigger)


def test_find_witness_unsatisfiable():
    n = parse_netlist("module m(a,y,z); input a; output y,z;"
                      " not g1(y,a); buf g2(z,a); endmodule")
    rec = TrojanRecord(trigger=(("y", 1), ("z", 1)), trigger_net="t",
                       victim="z", victim_pre="p", payload_gate="gp",
                       witness=None, added_gates=(), q=2)
    assert find_trigger_witness(n, rec) is None


def test_find_witness_wide_and_forced():
    n = _wide_and(8)
    rec = TrojanRecord(trigger=(("y", 1),), trigger_net="t", victim="y",
                       victim_pre="p", payload_gate="gp", witness=None,
                       added_gates=(), q=1)
    wit = find_trigger_witness(n, rec)
    assert wit is not None
    assert all(wit[f"i{j}"] == 1 for j in range(8))


def test_activation_estimate_wide_and():
    n = _wide_and(8)
    rec = TrojanRecord(trigger=(("y", 1),), trigger_net="t", victim="y",
                       victim_pre="p", payload_gate="gp", witness=None,
                       added_gates=(), q=1)
    est = activation_estimate(n, rec, 100_000, seed=4)
    assert est <= 0.004  # true rate 1/256


@pytest.mark.parametrize("seed", [None, "7", 1.5])
def test_activation_estimate_rejects_a_seed_that_is_not_an_int(seed):
    # None would seed from OS entropy and give a different estimate per call
    n = _wide_and(8)
    rec = TrojanRecord(trigger=(("y", 1),), trigger_net="t", victim="y",
                       victim_pre="p", payload_gate="gp", witness=None,
                       added_gates=(), q=1)
    with pytest.raises(ValueError, match="seed must be an int"):
        activation_estimate(n, rec, 1000, seed=seed)


def test_activation_estimate_unsatisfiable():
    n = parse_netlist("module m(a,y,z); input a; output y,z;"
                      " not g1(y,a); buf g2(z,a); endmodule")
    rec = TrojanRecord(trigger=(("y", 1), ("z", 1)), trigger_net="t",
                       victim="z", victim_pre="p", payload_gate="gp",
                       witness=None, added_gates=(), q=2)
    assert activation_estimate(n, rec, 50_000, seed=1) == 0.0


def test_activation_estimate_matches_exact_prob():
    n = parse_netlist(
        "module m(a,b,y); input a,b; output y; xor g(y,a,b); endmodule")
    rec = TrojanRecord(trigger=(("y", 1),), trigger_net="t", victim="y",
                       victim_pre="p", payload_gate="gp", witness=None,
                       added_gates=(), q=1)
    exact = exact_signal_prob(n).p["y"]
    est = activation_estimate(n, rec, 100_000, seed=9)
    assert abs(est - exact) < 0.01


def test_stealth_exhaustive_on_seeded_insertions():
    cfg = CheckConfig()
    for seed in range(6):
        n = random_netlist(seed * 17 + 3, n_pis=6, n_gates=30)
        spec = TrojanSpec(q=2, rare_count=1, threshold=0.35, seed=seed,
                          sample_vectors=4096)
        try:
            infected, rec = insert_trojan(n, spec)
        except InsertionError:
            continue
        verdict = check_trojan_semantics(n, infected, rec, cfg)
        assert verdict.ok, verdict.reason


def _activations_per_bit(patterns, act, limit):
    found = []
    while act and len(found) < limit:
        bit = (act & -act).bit_length() - 1
        found.append({p: (w >> bit) & 1 for p, w in patterns.items()})
        act &= act - 1
    return found


def test_activations_match_per_bit_decode_on_probe_word():
    pis = tuple(f"x{k}" for k in range(9))
    patterns, width = next(stimuli(pis, PROBE_VECTORS, seed=4,
                                   chunk_bits=PROBE_VECTORS.bit_length()))
    assert width == PROBE_VECTORS
    rng = random.Random(1)
    sparse = 0
    for bit in rng.sample(range(width), 60):
        sparse |= 1 << bit
    dense = patterns["x0"] & patterns["x3"] & ~patterns["x5"]
    top = 1 << (width - 1) | 1 << (width - 9)
    for act in (0, 1, top, sparse, dense):
        for limit in (1, 48, 100):
            got = decode(patterns, act, limit)
            want = _activations_per_bit(patterns, act, limit)
            assert got == want
            assert [list(d) for d in got] == [list(d) for d in want]


def _seeded_triggers(n, count, seed):
    """Triggers of 1-3 low-probability gate outputs at their rarer values."""
    p = signal_prob(n, 4096, seed).p
    outs = sorted((g.output for g in n.gates),
                  key=lambda net: (min(p[net], 1 - p[net]), net))[:40]
    rng = random.Random(seed)
    return [tuple(sorted((net, int(p[net] < 0.5))
                         for net in rng.sample(outs, rng.choice((1, 2, 3)))))
            for _ in range(count)]


@pytest.mark.parametrize("n", [rarity_netlist(6001),
                               random_netlist(11, n_pis=20, n_gates=120)],
                         ids=["rarity", "random"])
def test_streamed_probe_matches_per_cone_simulation(n):
    triggers = _seeded_triggers(n, 12, seed=3)
    hits, kept = _probe(n, triggers, seed=5)
    want_hits = [0] * len(triggers)
    want_acts = [[] for _ in triggers]
    for patterns, width in stimuli(n.inputs, PROBE_VECTORS, 5):
        for k, trigger in enumerate(triggers):
            cone = _cone_netlist(n, [net for net, _ in trigger])
            vals = simulate_packed(
                cone, {p: patterns[p] for p in cone.inputs}, width)
            act = trigger_word(vals, trigger, width)
            want_hits[k] += act.bit_count()
            want_acts[k] += _activations_per_bit(patterns, act,
                                                 48 - len(want_acts[k]))
    assert hits == want_hits
    # the corpus covers silent triggers and activations spread over chunks
    assert 0 in hits and any(len(pieces) > 1 for pieces in kept)
    for trigger, pieces, want in zip(triggers, kept, want_acts):
        got = _decode(pieces)
        assert got == want
        for stim in got:
            vals = simulate(n, stim)
            assert all(vals[net] == pol for net, pol in trigger)


def _count_probe_streams(monkeypatch):
    # every stream goes through netlist.stimuli; count the probe's alone
    draws = []

    def counting(pis, vectors=None, seed=0, chunk_bits=14):
        if vectors == PROBE_VECTORS:
            draws.append(seed)
        return stimuli(pis, vectors, seed, chunk_bits)
    monkeypatch.setattr(htforge.netlist, "stimuli", counting)
    return draws


def test_one_probe_stream_when_every_candidate_fires(monkeypatch):
    # independent 2-input ANDs: every trigger of two outputs fires often
    ins = ", ".join(f"a{k}, b{k}" for k in range(6))
    outs = ", ".join(f"y{k}" for k in range(6))
    gates = " ".join(f"and g{k}(y{k}, a{k}, b{k});" for k in range(6))
    n = parse_netlist(f"module m({ins}, {outs}); input {ins}; output {outs};"
                      f" {gates} endmodule")
    draws = _count_probe_streams(monkeypatch)
    insert_trojan(n, TrojanSpec(q=2, threshold=0.3, seed=4,
                                sample_vectors=4096))
    assert draws == [4]


def test_at_most_two_probe_streams_per_insertion(monkeypatch):
    n = rarity_netlist(6000)
    draws = _count_probe_streams(monkeypatch)
    for seed in range(3):
        del draws[:]
        insert_trojan(n, TrojanSpec(q=4, threshold=0.05, seed=seed,
                                    sample_vectors=20_000))
        assert draws == [seed, seed ^ 0x7F4A]


def _record(trigger):
    return TrojanRecord(trigger=trigger, trigger_net="t", victim="o",
                        victim_pre="p", payload_gate="gp", witness=None,
                        added_gates=(), q=len(trigger), seed=0)


@pytest.mark.parametrize("vectors", [0, -1, 100.0])
def test_activation_estimate_rejects_bad_vector_counts(vectors):
    with pytest.raises(ValueError, match="vectors must be"):
        activation_estimate(_wide_and(4), _record((("y", 1),)), vectors)


def _and_branches(widths):
    """Branch b ANDs its own ``widths[b]`` PIs into a{b}; o ORs every a{b}."""
    pis, gates = [], []
    for b, w in enumerate(widths):
        ins = tuple(f"i{b}_{k}" for k in range(w))
        pis += ins
        gates.append(Gate("AND", f"a{b}", ins, f"g{b}"))
    gates.append(Gate("OR", "o", tuple(f"a{b}" for b in range(len(widths))),
                      "go"))
    return Netlist("branches", tuple(pis), ("o",), tuple(gates))


def test_trigger_refuted_within_the_bound_without_backtracking():
    # a0 = 1 forces o = 1, so the 4-net trigger over all 20 PIs never fires;
    # the scan proves it
    n = _and_branches([5, 5, 5, 5])
    trigger = (("a0", 1), ("a1", 1), ("a2", 1), ("o", 0))
    cone = _cone_netlist(n, [net for net, _ in trigger])
    assert len(cone.inputs) == 20
    assert _rare_activations(cone, trigger, 48) == []
    assert find_trigger_witness(n, _record(trigger)) is None


@pytest.mark.parametrize("widths", [[5, 5, 5], [5, 5, 5, 5], [6, 6, 6, 6]])
def test_satisfiable_cone_gets_the_lowest_index_activation(widths):
    # the first activation in assignment order has every PI of a0..a{k-1}
    # at 1 and the last branch at 0
    n = _and_branches(widths)
    last = len(widths) - 1
    trigger = tuple((f"a{b}", int(b < last)) for b in range(len(widths)))
    cone = _cone_netlist(n, [net for net, _ in trigger])
    assert 15 <= len(cone.inputs) <= EXHAUSTIVE_PIS
    lowest = {p: int(not p.startswith(f"i{last}_")) for p in n.inputs}
    found = _rare_activations(cone, trigger, 48)
    assert len(found) == min(48, (1 << widths[last]) - 1)
    assert found[0] == lowest
    assert find_trigger_witness(n, _record(trigger)) == lowest


def test_satisfiable_trigger_above_the_bound_is_undecided():
    # the all-ones assignment fires this trigger, but its cone has one PI
    # more than the scan covers: the search answers undecided, never "no
    # witness"
    n = _and_branches([EXHAUSTIVE_PIS + 1 - 15, 5, 5, 5])
    trigger = (("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1))
    vals = simulate(n, dict.fromkeys(n.inputs, 1))
    assert all(vals[net] == pol for net, pol in trigger)
    cone = _cone_netlist(n, [net for net, _ in trigger])
    assert len(cone.inputs) == EXHAUSTIVE_PIS + 1
    assert _rare_activations(cone, trigger, 48) == []
    assert find_trigger_witness(n, _record(trigger)) is None


def _scalar_flip_victim(n, spec, trigger, activations, victims, side_pis):
    """Reference victim search: for each victim, each activation and each
    of its side-PI redraws, simulate golden and infected one try at a time;
    (victim, witness) of the first PO flip, or None."""
    fresh = _fresh_namer(n)
    for victim in victims:
        infected = _build_infected(n, trigger, victim, fresh)[0]
        for stim in activations:
            base = {p: stim.get(p, 0) for p in n.inputs}
            tries = [base]
            ext_rng = random.Random(spec.seed ^ 0xA5A5)
            for _ in range(min(15, 4 * len(side_pis))):
                alt = dict(base)
                for p in side_pis:
                    alt[p] = ext_rng.getrandbits(1)
                tries.append(alt)
            for full in tries:
                vg, vi = simulate(n, full), simulate(infected, full)
                if any(vg[po] != vi[po] for po in n.outputs):
                    return victim, full
    return None


def _masked(n, k=3):
    """``n`` with every PO ANDed with k new PIs: a flip shows only when all
    k are 1, so witnesses often come from the side-PI redraws."""
    mask = tuple(f"m{j}" for j in range(k))
    gates = n.gates + tuple(Gate("AND", f"{o}_m", (o,) + mask, f"gm{j}")
                            for j, o in enumerate(n.outputs))
    return Netlist(n.name, n.inputs + mask,
                   tuple(f"{o}_m" for o in n.outputs), gates)


def _victim_search_insertions():
    for seed in range(7):
        yield rarity_netlist(6000 + seed % 4), TrojanSpec(
            q=4, threshold=0.05, seed=seed, sample_vectors=20_000)
        yield _masked(rarity_netlist(6000 + seed % 4)), TrojanSpec(
            q=2, threshold=0.05, seed=seed, sample_vectors=20_000)
        yield random_netlist(40 + seed, n_pis=12, n_gates=60), TrojanSpec(
            q=2, threshold=0.2, seed=seed, sample_vectors=4096)


def test_packed_victim_search_matches_scalar_loop(monkeypatch):
    calls = []
    packed = htforge.trojan._flip_victim

    def recording(*args):
        found = packed(*args)
        calls.append((args, found and (found[1].victim, found[1].witness)))
        return found
    monkeypatch.setattr(htforge.trojan, "_flip_victim", recording)
    for n, spec in _victim_search_insertions():
        insert_trojan(n, spec)
    passed_over = 0
    for args, got in calls:
        assert got == _scalar_flip_victim(*args)
        passed_over += got is None or got[0] != args[4][0]
    # the corpus covers insertions whose first victim shows no flip
    assert passed_over >= 5


def test_two_scalar_simulations_per_insertion(monkeypatch):
    calls = []

    def counting(n, stim):
        calls.append(n)
        return simulate(n, stim)
    monkeypatch.setattr(htforge.trojan, "simulate", counting)
    for n, spec in _victim_search_insertions():
        del calls[:]
        infected, _ = insert_trojan(n, spec)
        assert calls == [n, infected]
