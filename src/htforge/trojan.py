"""Combinational Trojan insertion: rare-net AND triggers with an XOR payload.

An insertion picks q trigger nets (rare_count of them from the rare set),
requires each at its rarer value, ANDs them into a trigger signal, and XORs
that signal into one victim net outside the triggers' fanin cones.  Every
returned record carries a witness input that both activates the trigger and
flips a primary output; selection retries deterministically until such a
witness exists, so unactivatable or unobservable Trojans are never shipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .analysis import RARE_METRICS, rare_nets, scoap, signal_prob
from .netlist import (EXHAUSTIVE_PIS, Gate, Netlist, _check, decode, simulate,
                      simulate_packed, sweep, trigger_word)


class InsertionError(Exception):
    pass


class InsufficientRareNetsError(InsertionError):
    """The rare-net partition holds fewer nets than the spec's rare_count."""


@dataclass(frozen=True)
class TrojanSpec:
    q: int = 2
    rare_count: int = None
    metric: str = "signal-prob-low"
    threshold: float = 0.05
    seed: int = 0
    sample_vectors: int = 100_000

    def __post_init__(self):
        _check(self.q, "q", "int", low=2)
        if self.rare_count is None:
            object.__setattr__(self, "rare_count", self.q)
        _check(self.rare_count, "rare_count", "int", choices=range(self.q + 1))
        _check(self.metric, "metric", "str", choices=RARE_METRICS)
        _check(self.threshold, "threshold", "number")
        _check(self.seed, "seed", "int")
        _check(self.sample_vectors, "sample_vectors", "int", low=1)


@dataclass
class TrojanRecord:
    trigger: tuple            # ((net, polarity), ...)
    trigger_net: str          # output of the inserted AND
    victim: str               # net whose loads see the flipped value
    victim_pre: str           # renamed driver-side net
    payload_gate: str         # instance name of the XOR
    witness: dict             # PI name -> bit, activates and flips
    added_gates: tuple        # the Gates of V_t, payload XOR last
    q: int = 0
    rare_count: int = 0
    metric: str = ""
    threshold: float = 0.0
    seed: int = 0

    def to_json_dict(self):
        return {
            "trigger": [[net, pol] for net, pol in self.trigger],
            "trigger_net": self.trigger_net,
            "victim": self.victim,
            "victim_pre": self.victim_pre,
            "payload_gate": self.payload_gate,
            "witness": dict(self.witness) if self.witness else None,
            "added_gates": [[g[0], g[1], list(g[2]), g[3]]
                            for g in self.added_gates],
            "q": self.q, "rare_count": self.rare_count,
            "metric": self.metric, "threshold": self.threshold,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# cone utilities

def _tfi_nets(n: Netlist, roots):
    """All nets in the transitive fanin of the roots, roots included."""
    seen = set()
    stack = list(roots)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        g = n.driver.get(net)
        if g is not None:
            stack.extend(g.inputs)
    return seen


def _cone_netlist(n: Netlist, roots):
    """Sub-netlist computing the root nets from their supporting PIs."""
    cone = _tfi_nets(n, roots)
    pis = tuple(p for p in n.inputs if p in cone)
    gates = tuple(g for g in n.topo_gates if g.output in cone)
    return Netlist("cone", pis, tuple(roots), gates)


def _po_reachable(n: Netlist):
    reach = set(n.outputs)
    for g in reversed(n.topo_gates):
        if g.output in reach:
            reach.update(g.inputs)
    return reach


# ---------------------------------------------------------------------------
# activation search

PROBE_VECTORS = 1 << 18


def _probe(n: Netlist, triggers, seed, limit=48, vectors=PROBE_VECTORS):
    """Count every trigger's joint activations over one seeded stream of
    ``vectors`` vectors through one simulation of ``n``.

    Returns (hits, kept): ``hits[k]`` is the number of vectors activating
    ``triggers[k]``, ``kept[k]`` the ``(patterns, act)`` chunk pieces that
    hold its first ``limit`` activations (see _decode).  The probe is wide
    so candidate ranking can tell truly rare joint triggers from merely
    uncommon ones; memory is bounded by the chunk, plus the kept chunks.
    """
    hits = [0] * len(triggers)
    kept = [[] for _ in triggers]
    keep = frozenset(net for trigger in triggers for net, _ in trigger)
    for patterns, width, (vals,) in sweep([(n, keep)], vectors, seed):
        for k, trigger in enumerate(triggers):
            act = trigger_word(vals, trigger, width)
            if act and hits[k] < limit:
                kept[k].append((patterns, act))
            hits[k] += act.bit_count()
    return hits, kept


def _decode(kept, limit=48):
    """The first ``limit`` activating assignments held by _probe's pieces."""
    found = []
    for patterns, act in kept:
        found += decode(patterns, act, limit - len(found))
    return found


def _rare_activations(cone, trigger, limit):
    """The trigger search: up to ``limit`` activating assignments over the
    cone PIs.  A cone of at most EXHAUSTIVE_PIS PIs is scanned in full,
    lowest index first, so [] proves the trigger unsatisfiable; above the
    bound nothing is searched and [] means undecided.
    """
    if len(cone.inputs) > EXHAUSTIVE_PIS:
        return []
    found = []
    keep = frozenset(net for net, _ in trigger)
    for patterns, width, (vals,) in sweep([(cone, keep)]):
        found += decode(patterns, trigger_word(vals, trigger, width),
                        limit - len(found))
        if len(found) >= limit:
            break
    return found


def find_trigger_witness(n: Netlist, rec: TrojanRecord):
    """An input assignment driving every trigger net to its required
    polarity, or None.  Within EXHAUSTIVE_PIS trigger-support PIs None
    means that no witness exists; above the bound it is inconclusive (see
    _rare_activations).
    """
    cone = _cone_netlist(n, [net for net, _ in rec.trigger])
    hits = _rare_activations(cone, rec.trigger, 1)
    if not hits:
        return None
    full = {p: hits[0].get(p, 0) for p in n.inputs}
    vals = simulate(n, full)
    if not all(vals[net] == pol for net, pol in rec.trigger):
        raise RuntimeError("trigger witness does not reproduce in simulate()")
    return full


def activation_estimate(n: Netlist, rec: TrojanRecord, vectors: int,
                        seed: int = 0) -> float:
    """Fraction of uniform random input vectors that activate the trigger."""
    _check(vectors, "vectors", "int", low=1)
    _check(seed, "seed", "int")
    hits = _probe(n, [rec.trigger], seed, limit=0, vectors=vectors)[0][0]
    return hits / vectors


# ---------------------------------------------------------------------------
# insertion

def _fresh_namer(n: Netlist):
    used = set(n.nets) | set(n.outputs) | {g.name for g in n.gates}
    counter = [0]

    def fresh(tag):
        while True:
            cand = f"tj{counter[0]}_{tag}"
            counter[0] += 1
            if cand not in used:
                used.add(cand)
                return cand
    return fresh


def _build_infected(n: Netlist, trigger, victim, fresh):
    inv = {}
    added = []
    for net, pol in trigger:
        if pol == 0 and net not in inv:
            out = fresh("n")
            inv[net] = out
            added.append(Gate("NOT", out, (net,), fresh("gi")))
    trig_inputs = tuple(inv.get(net, net) if pol == 0 else net
                        for net, pol in trigger)
    trig_net = fresh("trig")
    added.append(Gate("AND", trig_net, trig_inputs, fresh("gt")))
    pre = fresh("pre")
    payload_name = fresh("gp")
    gates = []
    for g in n.gates:
        if g.output == victim:
            gates.append(Gate(g.kind, pre, g.inputs, g.name))
        else:
            gates.append(g)
    gates.extend(added)
    payload = Gate("XOR", victim, (pre, trig_net), payload_name)
    gates.append(payload)
    infected = Netlist(n.name, n.inputs, n.outputs, tuple(gates))
    return infected, trig_net, pre, payload_name, (*added, payload)


def _flip_victim(n: Netlist, spec, trigger, activations, victims, side_pis):
    """(infected, record) for the first victim whose payload flips a PO on
    some try, the first such try being the witness; None if none does.

    The tries (each activation, then it with each of up to 15 seeded
    redraws of the side PIs) do not depend on the victim: they are packed
    one per bit, and the golden and each victim's infected netlist are
    simulated once on them.  Scalar simulate() re-verifies the witness."""
    ext_rng = random.Random(spec.seed ^ 0xA5A5)
    redraws = [{p: ext_rng.getrandbits(1) for p in side_pis}
               for _ in range(min(15, 4 * len(side_pis)))]
    tries = []
    for stim in activations:
        base = {p: stim.get(p, 0) for p in n.inputs}
        tries += [base] + [{**base, **r} for r in redraws]
    patterns = {p: sum(t[p] << i for i, t in enumerate(tries))
                for p in n.inputs}
    golden = simulate_packed(n, patterns, len(tries))
    fresh = _fresh_namer(n)
    for victim in victims:
        infected, trig_net, pre, payload_name, rec_gates = _build_infected(
            n, trigger, victim, fresh)
        vals = simulate_packed(infected, patterns, len(tries))
        flips = 0
        for po in n.outputs:
            flips |= golden[po] ^ vals[po]
        if not flips:
            continue
        witness = tries[(flips & -flips).bit_length() - 1]
        vg, vi = simulate(n, witness), simulate(infected, witness)
        if all(vg[po] == vi[po] for po in n.outputs):
            raise RuntimeError("payload flip does not reproduce in simulate()")
        return infected, TrojanRecord(
            trigger=trigger, trigger_net=trig_net, victim=victim,
            victim_pre=pre, payload_gate=payload_name, witness=witness,
            added_gates=rec_gates, q=spec.q, rare_count=spec.rare_count,
            metric=spec.metric, threshold=spec.threshold, seed=spec.seed)
    return None


def insert_trojan(n: Netlist, spec: TrojanSpec):
    """Insert one Trojan per the given TrojanSpec; returns (infected
    netlist, record).

    The PI/PO interface is unchanged.  Trigger polarity is each net's rarer
    value under the metric; the victim is a seeded random gate-output net
    outside the triggers' fanin with a PO in its fanout cone.  Candidate
    triggers and victims are retried until the stored witness provably
    activates the trigger and flips an output.
    """
    analysis = (scoap(n) if spec.metric == "scoap-hard"
                else signal_prob(n, spec.sample_vectors, spec.seed))
    rare, regular = rare_nets(analysis, spec.metric, spec.threshold)
    total_nets = len(rare) + len(regular)
    if spec.q >= total_nets:
        raise InsertionError(
            f"trigger width {spec.q} exceeds usable net count {total_nets}")
    if len(rare) < spec.rare_count:
        raise InsufficientRareNetsError(
            f"insufficient rare nets: need {spec.rare_count}, have {len(rare)}")
    if len(regular) < spec.q - spec.rare_count:
        raise InsertionError(
            f"insufficient regular nets: need {spec.q - spec.rare_count}, "
            f"have {len(regular)}")

    def polarity(net):
        if spec.metric == "signal-prob-low":
            return 1 if analysis.p[net] < 0.5 else 0
        if spec.metric == "signal-prob-high":
            return 0 if analysis.p[net] > 0.5 else 1
        return 1 if analysis.cc1[net] >= analysis.cc0[net] else 0

    rng = random.Random(spec.seed)
    po_reach = _po_reachable(n)
    gate_outs = [g.output for g in n.gates]

    # draw candidate triggers, then rank them by probed joint activation
    # rate (the stealthiest satisfiable candidate wins); zero-hit candidates
    # get an independent confirmation probe so near-misses rank behind truly
    # rare ones
    drawn = {}   # trigger -> attempt that first drew it
    for attempt in range(64):
        trig_nets = (rng.sample(rare, spec.rare_count)
                     + rng.sample(regular, spec.q - spec.rare_count))
        trigger = tuple(sorted((net, polarity(net)) for net in trig_nets))
        drawn.setdefault(trigger, attempt)
    triggers = list(drawn)
    hits, kept = _probe(n, triggers, spec.seed)
    silent = [t for t, h in zip(triggers, hits) if h == 0]
    hits2 = (dict(zip(silent, _probe(n, silent, spec.seed ^ 0x7F4A)[0]))
             if silent else {})
    candidates = sorted(
        ((1, h, drawn[t]) if h else (0, hits2[t], drawn[t]), t, pieces)
        for t, h, pieces in zip(triggers, hits, kept))

    for _, trigger, pieces in candidates:
        roots = [net for net, _ in trigger]
        activations = _decode(pieces) or _rare_activations(
            _cone_netlist(n, roots), trigger, 48)
        if not activations:
            continue  # unsatisfiable, or undecided above EXHAUSTIVE_PIS
        tfi = _tfi_nets(n, roots)
        victims = [v for v in gate_outs if v not in tfi and v in po_reach]
        if not victims:
            continue
        rng.shuffle(victims)
        found = _flip_victim(n, spec, trigger, activations, victims[:40],
                             [p for p in n.inputs if p not in tfi])
        if found:
            return found
    raise InsertionError(
        "no loop-free victim with an observable flip was found for any "
        "satisfiable trigger candidate")
