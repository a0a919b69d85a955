"""Independent scalar evaluator and the benchmark's output checks.

The evaluator follows the Verilog primitive semantics of the eight gate
kinds and shares no code with htforge's simulators, so the checks below do
not trust the code under test.  Every check returns a list of failure
messages; an empty list means the output is correct.
"""

import json
import math
import random

from htforge.netlist import CONST0, CONST1, parse_netlist


def evaluate(n, stim):
    """Value of every net for one 0/1 assignment of the primary inputs."""
    vals = {CONST0: 0, CONST1: 1}
    vals.update((p, stim[p] & 1) for p in n.inputs)
    pending = list(n.gates)
    while pending:
        later = []
        for g in pending:
            if any(i not in vals for i in g.inputs):
                later.append(g)
                continue
            vs = [vals[i] for i in g.inputs]
            k = g.kind
            if k in ("BUF", "NOT"):
                v = vs[0]
            elif k in ("AND", "NAND"):
                v = int(all(vs))
            elif k in ("OR", "NOR"):
                v = int(any(vs))
            else:
                v = sum(vs) & 1
            vals[g.output] = v ^ (k in ("NOT", "NAND", "NOR", "XNOR"))
        if len(later) == len(pending):
            raise ValueError(f"{n.name}: cyclic or undriven gates")
        pending = later
    return vals


def outputs(n, stim):
    vals = evaluate(n, stim)
    return tuple(vals[o] for o in n.outputs)


def random_stimuli(pis, count, seed):
    rng = random.Random(seed)
    return [{p: rng.getrandbits(1) for p in pis} for _ in range(count)]


def check_variant(golden, text, entry, infected, recipe_id, vectors, seed):
    """Check one forged variant against its golden and its key entry."""
    fails = []
    try:
        v = parse_netlist(text)
    except Exception as e:   # any parse failure is a wrong output
        return [f"variant does not re-parse: {e}"]
    if (v.inputs, v.outputs) != (golden.inputs, golden.outputs):
        return ["variant changed the golden's PI/PO interface"]
    if entry["k"] != int(infected) or entry["recipe_id"] != recipe_id:
        fails.append(f"key says k={entry['k']} recipe={entry['recipe_id']}, "
                     f"op asked k={int(infected)} recipe={recipe_id}")
    trigger = ()
    if infected:
        rec = entry["trojan"] or {}
        trigger = [tuple(t) for t in rec.get("trigger", ())]
        wit = rec.get("witness")
        if not trigger or not wit:
            return fails + ["infected entry lacks a trigger or witness"]
        gw = evaluate(golden, wit)
        if not all(gw[net] == pol for net, pol in trigger):
            fails.append("witness does not drive every trigger net")
        if outputs(v, wit) == tuple(gw[o] for o in golden.outputs):
            fails.append("witness does not flip a primary output")
    for stim in random_stimuli(golden.inputs, vectors, seed):
        gv = evaluate(golden, stim)
        if trigger and all(gv[net] == pol for net, pol in trigger):
            continue   # trigger active: the payload may flip outputs
        if outputs(v, stim) != tuple(gv[o] for o in golden.outputs):
            fails.append(f"variant differs from golden at {stim}")
            break
    return fails


def check_features(vec, ref):
    """A feature vector is 32 finite entries and equals the reference."""
    if len(vec) != 32 or not all(math.isfinite(x) for x in vec):
        return ["feature vector is not 32 finite entries"]
    if ref is not None and list(vec) != list(ref):
        return ["re-extraction gave a different feature vector"]
    return []


def check_pca(model):
    ev = list(model.explained_variance)
    if any(b > a for a, b in zip(ev, ev[1:])):
        return ["PCA explained variance increases"]
    return []


def check_score(report, key_text, verdicts, alpha):
    """Recount the confusion matrix and conf_val from the key text."""
    tp = tn = fp = fn = 0
    for eid, truth in json.loads(key_text)["entries"].items():
        said = verdicts[eid] == "infected"
        if truth["k"] == 1:
            tp, fn = tp + said, fn + (not said)
        else:
            fp, tn = fp + said, tn + (not said)
    fp_rate = fp / (fp + tn) if fp + tn else 0.0
    fn_rate = fn / (fn + tp) if fn + tp else 0.0
    want = (1.0 - fp_rate) / (1.0 / alpha + fn_rate)
    got = (report.tp, report.tn, report.fp, report.fn)
    if got != (tp, tn, fp, fn):
        return [f"judge counts {got} != recount {(tp, tn, fp, fn)}"]
    if report.conf_val != want:
        return [f"conf_val {report.conf_val} != recount {want}"]
    return []
