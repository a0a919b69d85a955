"""Combinational equivalence checking.

Exhaustive bit-parallel enumeration decides circuits up to a configurable
PI bound (default EXHAUSTIVE_PIS, chunked so memory stays flat); above
it, randomized sampling gives an explicitly non-definitive
"no-mismatch-found" verdict.  Counterexamples are always re-verified by
scalar simulation before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import (EXHAUSTIVE_PIS, Netlist, _check, decode, simulate,
                      sweep, trigger_word)


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
    """
    mode, total, vectors = "sampled", cfg.sample_vectors, cfg.sample_vectors
    if len(a.inputs) <= cfg.exhaustive_bound:
        mode, total, vectors = "exhaustive", 1 << len(a.inputs), None
    keep_a = frozenset(a.outputs)
    keep_b = keep_a.union(net for net, _ in trigger or ())
    for patterns, width, (va, vb) in sweep([(a, keep_a), (b, keep_b)],
                                           vectors, cfg.seed):
        diff = 0
        for po in a.outputs:
            diff |= va[po] ^ vb[po]
        if trigger is not None:
            diff &= ~trigger_word(vb, trigger, width)
        if diff:
            return mode, total, decode(patterns, diff, 1)[0]
    return mode, total, None


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
    mode: str = ""


def check_trojan_semantics(golden: Netlist, infected: Netlist, rec,
                           config: CheckConfig = None) -> TrojanVerdict:
    """Verify the two-sided contract of an inserted Trojan.

    (i) on every checked input with the trigger inactive, the infected
    circuit agrees with the golden one; (ii) the stored witness activates
    the trigger and flips at least one output.  A record without a witness,
    with one that leaves a PI unbound, or whose trigger names a net the
    infected circuit lacks fails.
    """
    cfg = config or CheckConfig()
    _check_interface(golden, infected)
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

    mode, _, stim = _first_divergence(golden, infected, cfg, rec.trigger)
    if stim is not None:
        return TrojanVerdict(
            False, "infected diverges while trigger inactive", stim, mode)
    return TrojanVerdict(True, "", None, mode)
