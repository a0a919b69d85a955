"""Combinational equivalence checking.

Exhaustive bit-parallel enumeration decides circuits up to a configurable
PI bound (default EXHAUSTIVE_PIS, chunked so memory stays flat); above
it, randomized sampling gives an explicitly non-definitive
"no-mismatch-found" verdict.  An exhaustive check that would sweep more
than SWEEP_CHUNKS chunks first merges the nodes of one joint AIG that
truth tables over small cuts prove equal, and sweeps only the outputs
left unproven.  The Trojan contract's clean side is proven by cofactor
at any PI count, and swept as above only when that proof does not close.
Counterexamples are always re-verified by scalar simulation before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .aig import (TRUE, AigBuilder, add_netlist, cone_tt, from_aig,
                  lit_not, merge_proven)
from .netlist import (CHUNK_VARS, EXHAUSTIVE_PIS, MAX_TT_INPUTS,
                      SWEEP_CHUNKS, Netlist, NetlistError, _check, decode,
                      simulate, sweep, trigger_word)

SIG_BITS = 2048    # random vectors that sort nodes into candidate classes
PROOF_TRIES = 4    # most class members a new node is proven against


class InterfaceMismatchError(Exception):
    pass


@dataclass
class CheckConfig:
    exhaustive_bound: int = EXHAUSTIVE_PIS
    sample_vectors: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _check(self.sample_vectors, "sample_vectors", "int", low=1)
        _check(self.exhaustive_bound, "exhaustive_bound", "int", low=0)
        _check(self.seed, "seed", "int")


@dataclass
class EquivVerdict:
    mode: str            # "exhaustive" or "sampled"
    result: str          # "equivalent" | "no-mismatch-found" | "counterexample"
    counterexample: dict = None
    vectors: int = 0

    @property
    def equivalent(self):
        return self.result == "equivalent"


def _check_interface(a: Netlist, b: Netlist):
    if a.inputs != b.inputs or a.outputs != b.outputs:
        diff_i = set(a.inputs) ^ set(b.inputs)
        diff_o = set(a.outputs) ^ set(b.outputs)
        raise InterfaceMismatchError(
            f"PI/PO interfaces differ (inputs: {sorted(diff_i) or 'order'}, "
            f"outputs: {sorted(diff_o) or 'order'})")


def _first_divergence(a: Netlist, b: Netlist, cfg: CheckConfig, trigger=None):
    """Search the input space for the first assignment on which a PO of
    ``a`` and ``b`` differs; with a ``trigger``, only where that trigger is
    inactive in ``b``.  Exhaustive up to the configured PI bound, seeded
    sampling above it.  Returns (mode, vectors checked, assignment or None).
    A plain check of more than SWEEP_CHUNKS chunks sweeps only the PO
    pairs _unproven() leaves; proven pairs never differ, so the first
    assignment found is the same.
    """
    mode, total, vectors = "sampled", cfg.sample_vectors, cfg.sample_vectors
    if len(a.inputs) <= cfg.exhaustive_bound:
        mode, total, vectors = "exhaustive", 1 << len(a.inputs), None
    keep_a = frozenset(a.outputs)
    keep_b = keep_a.union(net for net, _ in trigger or ())
    sims, pairs = [(a, keep_a), (b, keep_b)], [(po, po) for po in a.outputs]
    if vectors is None and trigger is None and total > SWEEP_CHUNKS << CHUNK_VARS:
        miter, unproven = _unproven(a, b, cfg.seed)
        if not unproven:
            return mode, total, None
        sims, pairs = [(miter, frozenset(miter.outputs))], unproven.values()
    for patterns, width, vals in sweep(sims, vectors, cfg.seed):
        va, vb = vals[0], vals[-1]
        diff = 0
        for x, y in pairs:
            diff |= va[x] ^ vb[y]
        if trigger is not None:
            diff &= ~trigger_word(vb, trigger, width)
        if diff:
            return mode, total, decode(patterns, diff, 1)[0]
    return mode, total, None


def _joint(a: Netlist, b: Netlist):
    """``a`` and ``b`` built into one hashing AIG over their shared PIs:
    (graph, a's PO literals, b's PO literals).  Repeated inputs are
    refused as the sweep refuses them."""
    if len(set(a.inputs)) != len(a.inputs):
        raise NetlistError("simulate_packed needs distinct primary inputs")
    jb = AigBuilder(a.inputs)
    lits_a = add_netlist(jb, a)
    lits_b = add_netlist(jb, b)
    return (jb.build(), [lits_a[o] for o in a.outputs],
            [lits_b[o] for o in b.outputs])


def _unproven(a: Netlist, b: Netlist, seed):
    """Merge the joint AIG of ``a`` and ``b`` with aig.merge_proven, under
    SIG_BITS signature bits drawn from ``seed`` and _same() as the proof.
    Returns the netlist of the merged graph cut down to the PO pairs whose
    two literals still differ, and a dict from each such PO of ``a`` to
    its pair of outputs in that netlist, which are named by their
    literals."""
    g, pos_a, pos_b = _joint(a, b)
    r, node_map = merge_proven(g, SIG_BITS, seed, _same, PROOF_TRIES)
    pairs = {}
    for po, la, lb in zip(a.outputs, pos_a, pos_b):
        x = node_map[la >> 1] ^ (la & 1)
        y = node_map[lb >> 1] ^ (lb & 1)
        if x != y:
            pairs[po] = x, y
    for l in dict.fromkeys(l for pair in pairs.values() for l in pair):
        r.add_po(l, l)
    return from_aig(r.build(), name=a.name), pairs


def _same(fan0, fan1, first, dead, support, x, c, phase):
    """Whether node ``x`` equals node ``c`` (complemented when ``phase``)
    in the merged graph: their truth tables agree over the pair's PI
    support when it has at most MAX_TT_INPUTS PIs, else over a cut where
    their cones meet, deepened by _deepen() on each mismatch while it has
    at most MAX_TT_INPUTS leaves.  Agreement over a cut implies equality;
    False only leaves the two apart."""
    pis = support[x] | support[c]
    if pis.bit_count() <= MAX_TT_INPUTS:
        leaves = {k + 1 for k in range(pis.bit_length()) if pis >> k & 1}
    else:
        leaves = _meet(fan0, fan1, first, x, c) if c else None
    while leaves is not None and len(leaves) <= MAX_TT_INPUTS:
        order = sorted(leaves)
        tx = cone_tt(fan0, fan1, first, dead, x, order)
        tc = cone_tt(fan0, fan1, first, dead, c, order)
        if tx is None or tc is None:
            return False
        if tx == (tc ^ (1 << (1 << len(order))) - 1 if phase else tc):
            return True
        if order[-1] < first:   # over PIs alone the tables are exact
            return False
        leaves = _deepen(fan0, fan1, first, support, leaves)
    return False


def _deepen(fan0, fan1, first, support, leaves):
    """``leaves`` with one AND leaf replaced by its fanins or by its PI
    support, whichever leaves fewer; of all such cuts the smallest, the
    one that replaces the latest node on a tie."""
    best = None
    for v in leaves:
        if v < first:
            continue
        rest = leaves - {v}
        fanins = rest | {fan0[v] >> 1, fan1[v] >> 1}
        s = support[v]
        below = rest | {k + 1 for k in range(s.bit_length()) if s >> k & 1}
        for cut in (fanins, below):
            key = (len(cut), -v)
            if best is None or key < best[0]:
                best = key, cut
    return best[1]


def _meet(fan0, fan1, first, x, c):
    """The leaves where the cones of AND ``x`` and node ``c`` meet: walking
    down from both in reverse node order, a node reached from both, or a
    PI, is a leaf and every other node is expanded.  None as soon as
    more than MAX_TT_INPUTS nodes are sure to be leaves."""
    side = {x: 1, c: 2}
    heap = [-x, -c]
    heapify(heap)
    leaves = set()
    sure = c < first   # queued nodes that will be leaves
    while heap:
        u = -heappop(heap)
        s = side[u]
        if s == 3 or u < first:
            leaves.add(u)
            sure -= 1
            continue
        for v in (fan0[u] >> 1, fan1[u] >> 1):
            t = side.get(v)
            if t is None:
                side[v] = s
                heappush(heap, -v)
                sure += v < first
            elif t != 3 and t | s == 3:
                side[v] = 3
                sure += v >= first
        if len(leaves) + sure > MAX_TT_INPUTS:
            return None
    return leaves


def check_equivalence(a: Netlist, b: Netlist, config: CheckConfig = None) -> EquivVerdict:
    """Definitive exhaustive verdict up to the configured PI bound;
    sampled (non-definitive) above it."""
    cfg = config or CheckConfig()
    _check_interface(a, b)
    mode, total, stim = _first_divergence(a, b, cfg)
    if stim is None:
        result = "equivalent" if mode == "exhaustive" else "no-mismatch-found"
        return EquivVerdict(mode, result, None, total)
    va, vb = simulate(a, stim), simulate(b, stim)
    if all(va[po] == vb[po] for po in a.outputs):
        raise RuntimeError("counterexample does not reproduce in simulate()")
    return EquivVerdict(mode, "counterexample", stim, total)


@dataclass
class TrojanVerdict:
    ok: bool
    reason: str = ""
    offending: dict = None
    mode: str = ""       # "exhaustive", "proven" or "sampled"


def _cofactor_proven(golden: Netlist, infected: Netlist, rec):
    """Whether clause (i) of the Trojan contract holds by structure, at
    any PI count.  In one hashing AIG over the golden's PIs,
    ``rec.trigger_net``'s literal must be the strashed AND of the trigger
    literals, both as the infected circuit computes them, and with every
    read of ``trigger_net`` tied to FALSE each infected PO literal must be
    the golden's.  Wherever the trigger is inactive the net is already
    FALSE, so there the infected circuit is its tied cofactor, which is
    the golden.  False leaves the contract to the sweep, also for repeated
    input names, which the sweep refuses."""
    if len(set(golden.inputs)) != len(golden.inputs):
        return False
    jb = AigBuilder(golden.inputs)
    lits_g = add_netlist(jb, golden)
    built = add_netlist(jb, infected)
    acc = TRUE
    for net, pol in rec.trigger:
        acc = jb.and2(acc, built[net] if pol else lit_not(built[net]))
    if acc != built.get(rec.trigger_net):
        return False
    tied = add_netlist(jb, infected, tie=rec.trigger_net)
    return all(tied[po] == lits_g[po] for po in golden.outputs)


def check_trojan_semantics(golden: Netlist, infected: Netlist, rec,
                           config: CheckConfig = None) -> TrojanVerdict:
    """Verify the two-sided contract of an inserted Trojan.

    (i) on every input with the trigger inactive, the infected circuit
    agrees with the golden one; (ii) the stored witness activates the
    trigger and flips at least one output.  A record with an empty
    trigger, without a witness, with one that leaves a PI unbound, or
    whose trigger names a net the infected circuit lacks fails.

    Clause (i) is proven by cofactor first (_cofactor_proven), with no
    sweep; ``mode`` then reads "exhaustive" within the configured PI bound
    and "proven" above it.  If the proof does not close, a sweep masked by
    the trigger decides it, exhaustive ("exhaustive") within the bound and
    sampled ("sampled", not definitive) above it, and supplies the
    offending input of a failure.
    """
    cfg = config or CheckConfig()
    _check_interface(golden, infected)
    if not rec.trigger:
        return TrojanVerdict(False, "record names no trigger nets")
    if rec.witness is None:
        return TrojanVerdict(False, "unproven HT: record carries no witness")
    unbound = [p for p in golden.inputs if p not in rec.witness]
    if unbound:
        return TrojanVerdict(False, f"witness does not bind PIs {unbound}")
    wit = {p: rec.witness[p] & 1 for p in golden.inputs}
    vg = simulate(golden, wit)
    vi = simulate(infected, wit)
    absent = [net for net, _ in rec.trigger if net not in vi]
    if absent:
        return TrojanVerdict(False, f"infected lacks trigger nets {absent}", wit)
    act = all((vi[net] if pol else 1 - vi[net]) for net, pol in rec.trigger)
    if not act:
        return TrojanVerdict(False, "witness does not activate the trigger", wit)
    if all(vg[po] == vi[po] for po in golden.outputs):
        return TrojanVerdict(False, "witness does not flip any output", wit)

    if _cofactor_proven(golden, infected, rec):
        within = len(golden.inputs) <= cfg.exhaustive_bound
        return TrojanVerdict(True, "", None,
                             "exhaustive" if within else "proven")
    mode, _, stim = _first_divergence(golden, infected, cfg, rec.trigger)
    if stim is not None:
        return TrojanVerdict(
            False, "infected diverges while trigger inactive", stim, mode)
    return TrojanVerdict(True, "", None, mode)
