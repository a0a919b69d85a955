"""Span recorder for the traced run, installed from outside htforge.

Each entry of WRAPPED names a span and the function it times.  install()
replaces that function at every binding site, i.e. every htforge module
attribute that holds it (``htforge.judge.check_equivalence`` and
``htforge.equiv.check_equivalence`` are separate bindings), so calls made
through module globals are caught; the source tree is not edited.  A
function that no longer exists is reported as absent instead of failing.

Spans are kept in memory with the op id and parent span, so self time
(duration minus the time covered by direct children) and the layer a
simulation call serves can be worked out after the run.
"""

import functools
import importlib
import json
import sys
import time

# span name -> (defining module, function name)
WRAPPED = {
    "netlist.parse_netlist": ("htforge.netlist", "parse_netlist"),
    "netlist.write_netlist": ("htforge.netlist", "write_netlist"),
    "netlist.simulate": ("htforge.netlist", "simulate"),
    "netlist.simulate_packed": ("htforge.netlist", "simulate_packed"),
    "aig.to_aig": ("htforge.aig", "to_aig"),
    "aig.from_aig": ("htforge.aig", "from_aig"),
    "restructure.apply_recipe": ("htforge.restructure", "apply_recipe"),
    "restructure.strash": ("htforge.aig", "strash"),
    "restructure.balance": ("htforge.restructure", "balance"),
    "restructure.rewrite": ("htforge.restructure", "rewrite"),
    "restructure.refactor": ("htforge.restructure", "refactor"),
    "restructure.resubstitute": ("htforge.restructure", "resubstitute"),
    "restructure.fraig": ("htforge.restructure", "fraig"),
    "analysis.signal_prob": ("htforge.analysis", "signal_prob"),
    "analysis.exact_signal_prob": ("htforge.analysis", "exact_signal_prob"),
    "analysis.scoap": ("htforge.analysis", "scoap"),
    "analysis.rare_nets": ("htforge.analysis", "rare_nets"),
    "trojan.insert_trojan": ("htforge.trojan", "insert_trojan"),
    "trojan.find_trigger_witness": ("htforge.trojan", "find_trigger_witness"),
    "equiv.check_equivalence": ("htforge.equiv", "check_equivalence"),
    "equiv.check_trojan_semantics": ("htforge.equiv", "check_trojan_semantics"),
    "judge.forge_benchmark": ("htforge.judge", "forge_benchmark"),
    "judge.score_submission": ("htforge.judge", "score_submission"),
    "analytics.extract_features": ("htforge.analytics", "extract_features"),
    "analytics.pca_fit": ("htforge.analytics", "pca_fit"),
    "analytics.pca_project": ("htforge.analytics", "pca_project"),
}


def _gate_evals(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    width = args[2] if len(args) > 2 else kwargs["width"]
    return {"gate_evals": len(n.gates) * width}


def _verdict(args, kwargs, result):
    return {"mode": result.mode, "vectors": getattr(result, "vectors", 0)}


def _nodes_removed(args, kwargs, result):
    return {"nodes_removed": sum(r.nodes_before - r.nodes_after
                                 for r in result[1])}


# span name -> facts taken from the call's arguments and result
FACTS = {
    "netlist.simulate_packed": _gate_evals,
    "equiv.check_equivalence": _verdict,
    "equiv.check_trojan_semantics": _verdict,
    "restructure.apply_recipe": _nodes_removed,
}


class Recorder:
    """Spans of the ops run while it is installed: (op, id, parent, name,
    start, end, ok, facts)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.absent = []
        self._patched = []

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        self.op = None

    def _wrap(self, name, fn):
        facts = FACTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            stack.append(sid)
            spans.append(None)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (self.op, sid, parent, name, t0,
                              time.perf_counter(), False, None)
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            spans[sid] = (self.op, sid, parent, name, t0, t1, True,
                          facts(args, kwargs, result) if facts else None)
            return result
        return wrapper

    def install(self):
        """Wrap every WRAPPED function at all its htforge binding sites."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "htforge" or k.startswith("htforge."))]
        self.absent = []
        for name, (modname, attr) in WRAPPED.items():
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched = []

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for op, sid, parent, name, t0, t1, ok, facts in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                    "name": name, "start": t0, "end": t1,
                                    "ok": ok, "facts": facts}) + "\n")


def summarize(spans):
    """Per span name: calls, failures, total and self time; simulation time
    and gate evaluations per serving layer; verdict and pass facts."""
    by_name = {}
    child_time = [0.0] * len(spans)
    for op, sid, parent, name, t0, t1, ok, facts in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    sim_by_layer = {}
    totals = {"gate_evals": 0, "vectors": 0, "nodes_removed": 0,
              "verdicts": 0, "exhaustive": 0}
    for op, sid, parent, name, t0, t1, ok, facts in spans:
        s = by_name.setdefault(name, {"calls": 0, "failed": 0,
                                      "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["failed"] += not ok
        s["total_s"] += t1 - t0
        s["self_s"] += t1 - t0 - child_time[sid]
        if name == "netlist.simulate_packed":
            layer = "netlist"
            up = parent
            while up is not None and layer == "netlist":
                layer = spans[up][3].split(".")[0]
                up = spans[up][2]
            sim_by_layer[layer] = sim_by_layer.get(layer, 0.0) + t1 - t0
        if facts:
            totals["gate_evals"] += facts.get("gate_evals", 0)
            totals["vectors"] += facts.get("vectors", 0)
            totals["nodes_removed"] += facts.get("nodes_removed", 0)
            if "mode" in facts:
                totals["verdicts"] += 1
                totals["exhaustive"] += facts["mode"] == "exhaustive"
    return by_name, sim_by_layer, totals
