"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Seeds are frozen; every expected value is either exact
arithmetic or comes from an independent oracle coded in the test layer.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from htforge.analysis import scoap
from htforge.analytics import (
    StrategyProfile,
    expected_seek_length,
    ht_space_size,
    pca_fit,
    pca_project,
    seek_simulate,
)
from htforge.aig import strash, to_aig
from htforge.equiv import CheckConfig, check_equivalence, check_trojan_semantics
from htforge.judge import (
    ForgeConfig,
    Submission,
    confidence_value,
    forge_benchmark,
    score_submission,
)
from htforge.netlist import parse_netlist, simulate
from htforge.restructure import (
    RECIPES,
    apply_recipe,
    balance,
    fraig,
    refactor,
    resubstitute,
    rewrite,
)
from htforge.trojan import (
    InsertionError,
    TrojanSpec,
    activation_estimate,
    find_trigger_witness,
    insert_trojan,
)

from conftest import C17, FULL_ADDER, random_netlist, rarity_netlist
from test_analysis import oracle_scoap
from test_restructure import _and_chain


def _report(num, text):
    print(f"\nACCEPTANCE {num:>2} PASS: {text}")


def _corpus_50():
    """Frozen 50-circuit corpus: <= 12 PIs, 20..200 gates."""
    rng = random.Random(20260101)
    out = []
    for k in range(50):
        n_pis = rng.randint(4, 12)
        n_gates = rng.randint(20, 200)
        out.append(random_netlist(1000 + 37 * k, n_pis=n_pis, n_gates=n_gates,
                                  name=f"c{k}"))
    return out


def test_criterion_01_equivalence_preservation():
    t0 = time.perf_counter()
    corpus = _corpus_50()
    passes = 0
    for ci, n in enumerate(corpus):
        for rid in range(1, 19):
            out, _ = apply_recipe(n, RECIPES[rid], seed=ci)
            verdict = check_equivalence(n, out)
            assert verdict.mode == "exhaustive"
            assert verdict.result == "equivalent", (ci, rid)
            passes += 1
    elapsed = time.perf_counter() - t0
    assert passes == 900
    assert elapsed < 120, f"took {elapsed:.1f}s (budget 120s)"
    _report(1, f"900/900 exhaustive equivalence passes in {elapsed:.1f}s")


def _insertion_corpus_12pi(count):
    """Deterministic (netlist, spec) pairs on <= 12-PI circuits."""
    rng = random.Random(777)
    pairs = []
    k = 0
    while len(pairs) < count:
        n = random_netlist(5000 + 11 * k, n_pis=rng.randint(6, 12),
                           n_gates=rng.randint(30, 90), name=f"t{k}")
        q = rng.choice((2, 3, 4))
        spec = TrojanSpec(q=q, rare_count=0, metric="signal-prob-low",
                          threshold=0.2, seed=3000 + k, sample_vectors=4096)
        k += 1
        pairs.append((n, spec))
    return pairs


def test_criterion_02_trojan_semantics():
    t0 = time.perf_counter()
    cfg = CheckConfig()
    done = 0
    k = 0
    pairs = _insertion_corpus_12pi(120)
    for n, spec in pairs:
        if done >= 100:
            break
        try:
            infected, rec = insert_trojan(n, spec)
        except InsertionError:
            continue
        verdict = check_trojan_semantics(n, infected, rec, cfg)
        assert verdict.mode == "exhaustive"
        assert verdict.ok, (n.name, verdict.reason)
        # stored witness re-verifies a PO flip
        vg = simulate(n, rec.witness)
        vi = simulate(infected, rec.witness)
        assert any(vg[po] != vi[po] for po in n.outputs), n.name
        done += 1
    elapsed = time.perf_counter() - t0
    assert done == 100
    assert elapsed < 60, f"took {elapsed:.1f}s (budget 60s)"
    _report(2, f"100/100 insertions exhaustively stealthy, witnesses "
               f"re-verify, in {elapsed:.1f}s")


def test_criterion_03_trigger_rarity():
    """24-PI multi-branch circuits; q=4 triggers drawn entirely from the
    sub-0.05 rare set must stay silent over 10k uniform vectors in at
    least 95 of 100 insertions, yet every witness search must succeed."""
    zero_hits = 0
    witnesses = 0
    total = 0
    for ci in range(10):
        n = rarity_netlist(6000 + ci)
        done_for_circuit = 0
        seed = 0
        while done_for_circuit < 10 and seed < 40:
            spec = TrojanSpec(q=4, rare_count=4, metric="signal-prob-low",
                              threshold=0.05, seed=ci * 1000 + seed,
                              sample_vectors=20_000)
            seed += 1
            try:
                infected, rec = insert_trojan(n, spec)
            except InsertionError:
                continue
            done_for_circuit += 1
            total += 1
            est = activation_estimate(infected, rec, 10_000,
                                      seed=ci * 77 + seed)
            if est == 0.0:
                zero_hits += 1
            wit = find_trigger_witness(infected, rec)
            if wit is not None:
                witnesses += 1
    assert total == 100
    assert witnesses == 100, f"witness search succeeded {witnesses}/100"
    assert zero_hits >= 95, f"zero activations in only {zero_hits}/100"
    _report(3, f"q=4 rare triggers: {zero_hits}/100 silent over 10k vectors, "
               f"{witnesses}/100 witnesses found")


def test_criterion_04_confidence_value_exactness():
    assert confidence_value(0.0, 0.0, 10) == 10.0
    assert confidence_value(0.2, 0.3, 10) == 2.0
    rng = random.Random(4)
    for _ in range(10_000):
        fp = rng.random()
        fn = rng.random()
        alpha = rng.uniform(0.05, 100)
        d = rng.uniform(1e-9, 0.5)
        base = confidence_value(fp, fn, alpha)
        if fp + d <= 1.0:
            assert confidence_value(fp + d, fn, alpha) < base
        if fn + d <= 1.0:
            assert confidence_value(fp, fn + d, alpha) < base
        assert confidence_value(fp, fn, alpha + d) > base
    _report(4, "confidence value exact at (0,0,10)->10.0 and "
               "(0.2,0.3,10)->2.0; monotone on 10,000 random triples")


def _brute_subset_counts(max_total, max_q):
    """Oracle: per (r, g, q) explicit enumeration of q-subsets of r+g
    labeled nets."""
    table = {}
    for r in range(max_total + 1):
        for g in range(max_total + 1 - r):
            nets = [("rare", i) for i in range(r)] + \
                   [("reg", i) for i in range(g)]
            for q in range(2, max_q + 1):
                table[(r, g, q)] = sum(
                    1 for _ in itertools.combinations(nets, q))
    return table


def test_criterion_05_space_size_oracle():
    table = _brute_subset_counts(12, 5)

    def brute(profile):
        return sum(table[(r, g, q)]
                   for q in range(2, profile.max_width + 1)
                   for r, g in profile.strategies)

    pairs = [(r, g) for r in range(13) for g in range(13 - r)]
    # exhaustive N=1 grid
    for (r, g) in pairs:
        for m in range(2, 6):
            p = StrategyProfile(((r, g),), m)
            assert ht_space_size(p) == brute(p), (r, g, m)
    # exhaustive N=2 grid
    for (r1, g1) in pairs:
        for (r2, g2) in pairs:
            p = StrategyProfile(((r1, g1), (r2, g2)), 5)
            assert ht_space_size(p) == brute(p)
    # N=3: exhaustive on the r+g<=8 sub-grid plus 1000 random full-range
    small = [(r, g) for r in range(9) for g in range(9 - r)]
    for combo in itertools.product(small, repeat=3):
        p = StrategyProfile(combo, 4)
        assert ht_space_size(p) == brute(p)
    rng = random.Random(5)
    for _ in range(1000):
        combo = tuple(rng.choice(pairs) for _ in range(3))
        m = rng.randint(2, 5)
        p = StrategyProfile(combo, m)
        assert ht_space_size(p) == brute(p)
    # Vandermonde identity on every tested (r, g, q)
    for (r, g) in pairs:
        for q in range(2, 6):
            inner = sum(math.comb(r, pp) * math.comb(g, q - pp)
                        for pp in range(q + 1))
            assert inner == math.comb(r + g, q)
    _report(5, "search-space count matches subset enumeration on the "
               "exhaustive N<=2 grid, N=3 sub-grid + 1000 samples; "
               "Vandermonde holds")


def test_criterion_06_pass_metrics():
    chain = strash(to_aig(_and_chain(8)))
    assert chain.max_level == 7
    assert balance(chain).max_level == 3

    g = strash(to_aig(random_netlist(606, n_pis=8, n_gates=60)))
    g2 = strash(g)
    assert g.fan0 == g2.fan0 and g.fan1 == g2.fan1 and g.pos == g2.pos
    dup = parse_netlist("module m(a,b,x,y); input a,b; output x,y;"
                        " and g1(x,a,b); and g2(y,b,a); endmodule")
    assert strash(to_aig(dup)).n_ands == 1

    corpus = _corpus_50()
    for ci, n in enumerate(corpus):
        base = strash(to_aig(n))
        for fn in (rewrite, refactor, resubstitute, fraig):
            out = fn(base, seed=ci)
            assert out.n_ands <= base.n_ands, (ci, fn.__name__)
    _report(6, "balance 7->3 on the 8-literal chain; strash idempotent and "
               "commutation-merging; no size increase in 200 pass runs")


def test_criterion_07_scoap_oracle():
    circuits = [parse_netlist(C17)]
    for k in range(20):
        circuits.append(random_netlist(7000 + 31 * k, n_pis=4, n_gates=10))
    for n in circuits:
        sc = scoap(n)
        cc0, cc1, co = oracle_scoap(n)
        for net in n.nets:
            assert sc.cc0[net] == cc0[net], (n.name, net)
            assert sc.cc1[net] == cc1[net], (n.name, net)
            assert sc.co[net] == co[net], (n.name, net)
    _report(7, "SCOAP matches the independent rule-by-rule oracle on c17 "
               "and 20 random circuits")


def _acceptance_forge_cfg():
    golden = (
        ("adder", parse_netlist(FULL_ADDER)),
        ("c17", parse_netlist(C17)),
        ("r1", random_netlist(8100, n_pis=8, n_gates=40, name="r1")),
        ("r2", random_netlist(8200, n_pis=10, n_gates=60, name="r2")),
    )
    return ForgeConfig(golden=golden, nb=10, infection_rate=0.5,
                       master_seed=88, set_name="acc", threshold=0.2,
                       sample_vectors=4096, release_date="2026-03-01")


def test_criterion_08_judge_round_trip():
    cfg = _acceptance_forge_cfg()
    bench, key = forge_benchmark(cfg)
    assert len(bench.entries) == 40
    truth = Submission({eid: ("infected" if v["k"] else "clean")
                        for eid, v in key.entries.items()})
    rep = score_submission(truth, key, 10)
    assert rep.tp + rep.tn == 40 and rep.fp == 0 and rep.fn == 0
    all_inf = Submission({eid: "infected" for eid in key.entries})
    rep2 = score_submission(all_inf, key, 10)
    assert rep2.fp_rate == 1.0
    assert rep2.conf_val == 0.0
    rng = random.Random(8)
    for _ in range(1000):
        sub = Submission({eid: rng.choice(["infected", "clean"])
                          for eid in key.entries})
        r = score_submission(sub, key, 10)
        assert r.tp + r.tn + r.fp + r.fn == 40
    _report(8, "40-entry set: key self-score perfect, all-infected scores "
               "0.0, accounting identity on 1000 random submissions")


def test_criterion_09_pca_properties():
    rng = np.random.default_rng(9)
    u = rng.normal(size=32)
    v = rng.normal(size=32)
    coef = rng.normal(size=(60, 2))
    rows = coef[:, :1] * u + coef[:, 1:] * v   # exact rank 2
    model = pca_fit(rows, 10)
    assert np.all(np.array(model.explained_variance[2:]) < 1e-9)
    comps = np.array(model.components)
    gram = comps @ comps.T
    assert np.abs(gram - np.eye(10)).max() < 1e-9
    proj = np.array(pca_project(model, rows))
    cov = proj.T @ proj / (rows.shape[0] - 1)
    assert np.abs(cov - np.diag(model.explained_variance)).max() < 1e-8
    _report(9, "rank-2 synthetic data: PC3+ variance < 1e-9, orthonormal "
               "within 1e-9, projection covariance diagonal within 1e-8")


def _brute_seek_expectation(n, k):
    total = Fraction(0)
    count = 0
    for hidden in itertools.combinations(range(n), k):
        hidden = frozenset(hidden)
        for perm in itertools.permutations(range(n)):
            left = set(hidden)
            for pos, node in enumerate(perm, start=1):
                left.discard(node)
                if not left:
                    total += pos
                    break
            count += 1
    return total / count


def test_criterion_10_seeker_game():
    res = seek_simulate(100, 1, trials=100_000, seed=10)
    assert 49.5 <= res.mean <= 51.5, res.mean
    for n in range(1, 7):
        for k in range(1, n + 1):
            exact = expected_seek_length(n, k)
            brute = _brute_seek_expectation(n, k)
            assert abs(float(exact) - float(brute)) < 1e-12, (n, k)
    _report(10, f"k=1 mean over 100k trials = {res.mean:.3f} (within "
                "[49.5, 51.5]); analytic matches brute force for n <= 6")


def test_criterion_11_bench_determinism(tmp_path):
    cfg = _acceptance_forge_cfg()
    b1, k1 = forge_benchmark(cfg)
    b2, k2 = forge_benchmark(cfg)
    d1 = tmp_path / "s1"
    d2 = tmp_path / "s2"
    b1.write_dir(str(d1))
    b2.write_dir(str(d2))

    def checksums(root):
        out = {}
        for base, _, files in os.walk(root):
            for f in sorted(files):
                p = os.path.join(base, f)
                rel = os.path.relpath(p, root)
                out[rel] = hashlib.sha256(open(p, "rb").read()).hexdigest()
        return out

    assert checksums(d1) == checksums(d2)
    assert k1.to_json_text() == k2.to_json_text()
    assert json.loads(b1.manifest_text()) == json.loads(b2.manifest_text())
    _report(11, "re-forging with an identical config is byte-identical "
                "(set files and key)")
