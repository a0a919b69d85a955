"""Testability and activity analysis for rare-net identification.

SCOAP controllability/observability follows the classic Goldstein rules
with saturating integer arithmetic; signal probability is estimated by
seeded bit-parallel random simulation (or computed exactly for small PI
counts).  rare_nets() turns either analysis into the rare/regular net
partition that drives trigger selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import and_, or_

from .netlist import CONST0, CONST1, GATE_OPS, Netlist, simulate_packed, stimuli

SCOAP_CAP = 2**31 - 1


@dataclass
class ScoapValues:
    cc0: dict
    cc1: dict
    co: dict
    saturated: bool = False

    def score(self, net):
        return _sat_add(_sat_add(self.cc0[net], self.cc1[net]), self.co[net])


@dataclass
class NetStats:
    p: dict
    sample_count: int
    tp: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tp:
            self.tp = {net: 2.0 * v * (1.0 - v) for net, v in self.p.items()}


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
    saturated = False
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
        saturated = saturated or c0 == SCOAP_CAP or c1 == SCOAP_CAP
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
    saturated = saturated or any(v == SCOAP_CAP for v in co.values())
    return ScoapValues(cc0, cc1, co, saturated)


def signal_prob(n: Netlist, vectors: int, seed: int = 0) -> NetStats:
    """Per-net probability of 1 under uniform random PI vectors.

    Deterministic for a fixed seed; transition probability is the
    per-vector toggle chance 2*p*(1-p).
    """
    if vectors < 1:
        raise ValueError("vectors must be >= 1")
    return _ones_fraction(n, vectors, seed)


def exact_signal_prob(n: Netlist) -> NetStats:
    """Exact probability over all 2^PI vectors (PI count capped at 24)."""
    if len(n.inputs) > 24:
        raise ValueError("exact signal probability is limited to 24 PIs")
    return _ones_fraction(n, None, 0)


def _ones_fraction(n, vectors, seed):
    """Per-net share of ones over stimuli(n.inputs, vectors, seed)."""
    ones = {net: 0 for net in n.nets}
    for patterns, width in stimuli(n.inputs, vectors, seed, chunk_bits=16):
        vals = simulate_packed(n, patterns, width)
        for net in n.nets:
            ones[net] += vals[net].bit_count()
    total = 1 << len(n.inputs) if vectors is None else vectors
    return NetStats({net: c / total for net, c in ones.items()}, total)


RARE_METRICS = ("signal-prob-low", "signal-prob-high", "scoap-hard")


def rare_nets(analysis, metric: str, threshold) -> tuple:
    """Partition nets into (rare, regular) under the chosen metric.

    rare is sorted rarest-first with net-id tie-break; regular is the
    complement in net-id order.  Constant nets are excluded from both.
    Metrics: signal-prob-low (p < t), signal-prob-high (p > 1-t),
    scoap-hard (CC0+CC1+CO >= t).
    """
    if metric not in RARE_METRICS:
        raise ValueError(f"unknown metric '{metric}' (choose from {RARE_METRICS})")
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
