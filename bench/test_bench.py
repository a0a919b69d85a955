"""Tests of the benchmark's own generators, oracle and tracer.

Run with:  PYTHONPATH=src:bench python -m pytest -q bench
"""

import itertools
import random

import pytest

import gen
import htforge
import oracle
import tracer
from htforge.netlist import simulate, write_netlist


def _word(vals, names):
    return sum(vals[nm] << k for k, nm in enumerate(names))


def _stim(**buses):
    stim = {}
    for name, (value, width) in buses.items():
        stim.update({f"{name}{k}": (value >> k) & 1 for k in range(width)})
    return stim


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_array_multiplier_matches_integer_product(n):
    m = gen.array_multiplier(n)
    assert len(m.inputs) == 2 * n and len(m.outputs) == 2 * n
    pairs = (itertools.product(range(1 << n), repeat=2) if n <= 4 else
             [(random.Random(k).getrandbits(n), random.Random(-k).getrandbits(n))
              for k in range(300)] + [((1 << n) - 1, (1 << n) - 1)])
    for a, b in pairs:
        vals = oracle.evaluate(m, _stim(a=(a, n), b=(b, n)))
        assert _word(vals, m.outputs) == a * b


@pytest.mark.parametrize("n", [1, 4, 16])
def test_ripple_adder_matches_integer_sum(n):
    m = gen.ripple_adder(n)
    rng = random.Random(n)
    for _ in range(300):
        a, b, c = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        stim = _stim(a=(a, n), b=(b, n))
        stim["cin"] = c
        assert _word(oracle.evaluate(m, stim), m.outputs) == a + b + c


@pytest.mark.parametrize("n", [1, 3, 13])
def test_comparator_matches_integer_order(n):
    m = gen.comparator(n)
    rng = random.Random(n)
    cases = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(300)]
    cases += [(a, a) for a, _ in cases[:50]]
    for a, b in cases:
        vals = oracle.evaluate(m, _stim(a=(a, n), b=(b, n)))
        assert (vals["gt"], vals["eq"], vals["lt"]) == (a > b, a == b, a < b)


@pytest.mark.parametrize("sel_bits", [1, 2, 5])
def test_mux_tree_selects_data_bit(sel_bits):
    m = gen.mux_tree(sel_bits)
    rng = random.Random(sel_bits)
    for _ in range(300):
        d, s = rng.getrandbits(1 << sel_bits), rng.getrandbits(sel_bits)
        vals = oracle.evaluate(m, _stim(d=(d, 1 << sel_bits), s=(s, sel_bits)))
        assert vals["y"] == (d >> s) & 1


def test_oracle_agrees_with_scalar_simulate():
    for n in (gen.random_netlist(3, 12, 120), gen.rarity_netlist(4),
              gen.array_multiplier(4), gen.comparator(5)):
        for stim in oracle.random_stimuli(n.inputs, 64, seed=1):
            assert oracle.evaluate(n, stim) == simulate(n, stim)


def test_generators_match_requested_shape():
    r = gen.random_netlist(9, 14, 150)
    assert len(r.inputs) == 14 and len(r.gates) == 150
    assert len(gen.rarity_netlist(9, pis_per_branch=5).inputs) == 20
    assert len(gen.mux_tree(5).inputs) == 37
    assert len(gen.comparator(13).inputs) == 26
    assert len(gen.ripple_adder(16).inputs) == 33


def test_oracle_rejects_a_wrong_variant():
    golden = gen.ripple_adder(4)
    gates = list(golden.gates)
    k = next(i for i, g in enumerate(gates) if g.kind == "XOR")
    gates[k] = gates[k].__class__("XNOR", gates[k].output, gates[k].inputs,
                                  gates[k].name)
    broken = golden.__class__(golden.name, golden.inputs, golden.outputs,
                              tuple(gates))
    entry = {"k": 0, "recipe_id": 1, "trojan": None}
    ok = oracle.check_variant(golden, write_netlist(golden), entry, False, 1,
                              32, seed=0)
    bad = oracle.check_variant(golden, write_netlist(broken), entry, False, 1,
                               32, seed=0)
    assert ok == [] and bad and "differs" in bad[0]
    assert oracle.check_variant(golden, write_netlist(golden), entry, True, 1,
                                32, seed=0)


def test_tracer_wraps_every_binding_and_restores():
    import htforge.equiv
    import htforge.judge
    orig = htforge.equiv.check_equivalence
    rec = tracer.Recorder()
    rec.install()
    try:
        assert htforge.judge.check_equivalence is not orig
        assert htforge.judge.check_equivalence is htforge.equiv.check_equivalence
        n = gen.random_netlist(1, 6, 20)
        htforge.check_equivalence(n, n)   # outside an op: not recorded
        rec.begin_op(0)
        htforge.check_equivalence(n, n)
        rec.end_op()
    finally:
        rec.uninstall()
    assert htforge.judge.check_equivalence is orig
    assert htforge.check_equivalence is orig
    by, sim, tot = tracer.summarize(rec.spans)
    s = by["equiv.check_equivalence"]
    assert s["calls"] == 1 and 0 <= s["self_s"] <= s["total_s"]
    assert sim["equiv"] > 0 and tot["verdicts"] == tot["exhaustive"] == 1
    assert tot["gate_evals"] == 2 * len(n.gates) * (1 << 6)


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracer.WRAPPED, "netlist.gone",
                        ("htforge.netlist", "no_such_function"))
    rec = tracer.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == ["netlist.gone"]


def test_summarize_subtracts_children_and_attributes_simulation():
    spans = [(0, 0, None, "a.f", 0.0, 10.0, True, None),
             (0, 1, 0, "netlist.simulate_packed", 1.0, 4.0, True,
              {"gate_evals": 5}),
             (0, 2, 0, "b.g", 5.0, 7.0, True, None),
             (0, 3, 2, "netlist.simulate_packed", 5.5, 6.0, True,
              {"gate_evals": 1})]
    by, sim, tot = tracer.summarize(spans)
    assert by["a.f"]["self_s"] == 5.0 and by["b.g"]["self_s"] == 1.5
    assert sim == {"a": 3.0, "b": 0.5} and tot["gate_evals"] == 6


def test_benchmark_json_names_what_run_reports():
    import json
    import os
    import run
    from workloads import Op
    root = os.path.dirname(os.path.dirname(os.path.abspath(run.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    recs = [run.Record(0, 0, k, Op("g", inf, 1), 0.0, 1.0, None, False)
            for k, inf in enumerate((False, True))]
    for r in recs:
        r.seconds = 1.0
    e2e = run.end_to_end(recs, 0, 2, 1.0)
    layers, _ = run.per_layer(recs, [])
    for names, got in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert [m["name"] for m in names] == list(got)
        assert all(m["unit"] == got[m["name"]][1] for m in names)


class _Stuck:
    """A workload whose only op never returns."""

    def round(self, r):
        from workloads import Op
        return [Op("g", False, 1)]

    def run(self, op, r, slot):
        while True:
            pass


def test_an_op_that_never_returns_fails_instead_of_hanging(monkeypatch):
    import signal
    import run
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    old = signal.signal(signal.SIGALRM, run._op_timeout)
    try:
        records, _ = run.run_loop(_Stuck(), 0, None, run.Speed())
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(records) == 1 and isinstance(records[0].result, run.OpTimeout)
