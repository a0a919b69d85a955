"""Testability and activity analysis for rare-net identification.

SCOAP controllability/observability follows the classic Goldstein rules
with saturating integer arithmetic; signal probability is estimated by
seeded bit-parallel random simulation (or computed exactly for small PI
counts).  rare_nets() turns either analysis into the rare/regular net
partition that drives trigger selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_, xor

from .netlist import (CONST0, CONST1, EXHAUSTIVE_PIS, GATE_OPS, Netlist,
                      _check, sweep)

SCOAP_CAP = 2**31 - 1


@dataclass
class ScoapValues:
    cc0: dict
    cc1: dict
    co: dict

    def score(self, net):
        return _sat_add(_sat_add(self.cc0[net], self.cc1[net]), self.co[net])


@dataclass
class NetStats:
    p: dict

    @property
    def tp(self):
        """Per-net transition probability 2*p*(1-p)."""
        return {net: 2.0 * v * (1.0 - v) for net, v in self.p.items()}


def _sat_add(*vals):
    s = sum(vals)
    return SCOAP_CAP if s >= SCOAP_CAP else s


def scoap(n: Netlist) -> ScoapValues:
    """Goldstein controllabilities (forward) and observabilities (backward).

    PI nets have CC0=CC1=1; constants are trivially controllable to their
    value only; PO nets have CO=0; nets with no path to a PO saturate.
    """
    cc0 = {CONST0: 1, CONST1: SCOAP_CAP}
    cc1 = {CONST0: SCOAP_CAP, CONST1: 1}
    for p in n.inputs:
        cc0[p] = 1
        cc1[p] = 1
    # sums are exact Python ints, capped once at the end like _sat_add
    for g in n.topo_gates:
        op, inv = GATE_OPS[g.kind]
        ins = g.inputs
        if op is None:
            c0, c1 = cc0[ins[0]] + 1, cc1[ins[0]] + 1
        elif op is xor:  # parity DP over the inputs
            even, odd = 0, SCOAP_CAP
            for i in ins:
                z, o = cc0[i], cc1[i]
                even, odd = (min(_sat_add(even, z), _sat_add(odd, o)),
                             min(_sat_add(even, o), _sat_add(odd, z)))
            c0, c1 = even + 1, odd + 1
        else:  # the cheapest controlling input, or every input at the other
            ctl, non = (cc0, cc1) if op is and_ else (cc1, cc0)
            low, total = SCOAP_CAP, 1
            for i in ins:
                if ctl[i] < low:
                    low = ctl[i]
                total += non[i]
            c0, c1 = (low + 1, total) if op is and_ else (total, low + 1)
        if inv:
            c0, c1 = c1, c0
        cc0[g.output] = c0 if c0 < SCOAP_CAP else SCOAP_CAP
        cc1[g.output] = c1 if c1 < SCOAP_CAP else SCOAP_CAP

    # an input's side cost is its row's total less its own entry; a
    # candidate at or above SCOAP_CAP never beats a value, so none is capped
    co = {net: SCOAP_CAP for net in n.nets}
    for o in n.outputs:
        co[o] = 0
    for g in reversed(n.topo_gates):
        op = GATE_OPS[g.kind][0]
        ins = g.inputs
        if op is and_:
            side = cc1
        elif op is or_:
            side = cc0
        elif op is xor:
            side = {i: min(cc0[i], cc1[i]) for i in ins}
        else:
            side = dict.fromkeys(ins, 0)
        total = co[g.output] + 1
        for i in ins:
            total += side[i]
        for i in ins:
            cand = total - side[i]
            if cand < co[i]:
                co[i] = cand
    return ScoapValues(cc0, cc1, co)


def signal_prob(n: Netlist, vectors: int, seed: int = 0) -> NetStats:
    """Per-net probability of 1 under uniform random PI vectors.

    Deterministic for a fixed seed; transition probability is the
    per-vector toggle chance 2*p*(1-p).
    """
    _check(vectors, "vectors", "int", low=1)
    _check(seed, "seed", "int")
    return _ones_fraction(n, vectors, seed)


def exact_signal_prob(n: Netlist) -> NetStats:
    """Exact probability over all 2^PI vectors (at most EXHAUSTIVE_PIS PIs)."""
    if len(n.inputs) > EXHAUSTIVE_PIS:
        raise ValueError(f"exact signal probability is limited to "
                         f"{EXHAUSTIVE_PIS} PIs")
    return _ones_fraction(n, None, 0)


def _ones_fraction(n, vectors, seed):
    """Per-net share of ones over sweep([(n, None)], vectors, seed).  Each
    chunk's words are popped, so they are freed before the next chunk."""
    ones = dict.fromkeys(n.nets, 0)
    for _, _, vals in sweep([(n, None)], vectors, seed, chunk_bits=16):
        for net, v in vals.pop().items():
            ones[net] += v.bit_count()
    total = 1 << len(n.inputs) if vectors is None else vectors
    return NetStats({net: c / total for net, c in ones.items()})


RARE_METRICS = ("signal-prob-low", "signal-prob-high", "scoap-hard")


def rare_nets(analysis, metric: str, threshold) -> tuple:
    """Partition nets into (rare, regular) under the chosen metric.

    rare is sorted rarest-first with net-id tie-break; regular is the
    complement in net-id order.  Constant nets are excluded from both.
    Metrics: signal-prob-low (p < t), signal-prob-high (p > 1-t),
    scoap-hard (CC0+CC1+CO >= t).
    """
    _check(metric, "metric", "str", choices=RARE_METRICS)
    if metric == "scoap-hard":
        if not isinstance(analysis, ScoapValues):
            raise TypeError("scoap-hard needs ScoapValues")
        nets = [net for net in analysis.cc0 if net not in (CONST0, CONST1)]
        scores = {net: analysis.score(net) for net in nets}
        rare = sorted((net for net in nets if scores[net] >= threshold),
                      key=lambda net: (-scores[net], net))
    else:
        if not isinstance(analysis, NetStats):
            raise TypeError(f"{metric} needs NetStats")
        nets = [net for net in analysis.p if net not in (CONST0, CONST1)]
        p = analysis.p
        if metric == "signal-prob-low":
            # threshold 1.0 selects every net (p == 1.0 included)
            rare = sorted((net for net in nets
                           if p[net] < threshold or threshold >= 1.0),
                          key=lambda net: (p[net], net))
        else:
            rare = sorted((net for net in nets
                           if p[net] > 1.0 - threshold or threshold >= 1.0),
                          key=lambda net: (-p[net], net))
    rare_set = set(rare)
    regular = sorted(net for net in nets if net not in rare_set)
    return rare, regular
