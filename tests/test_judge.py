import json
import random

import pytest

from htforge.judge import (
    AnswerKey,
    ConfusionReport,
    DeferredReceipt,
    ForgeConfig,
    JudgeError,
    Submission,
    confidence_value,
    export_answer_key,
    forge_benchmark,
    judge_window,
    score_submission,
)
from htforge.netlist import parse_netlist, simulate
from htforge.trojan import TrojanRecord

from conftest import C17, FULL_ADDER, random_netlist


def _small_cfg(rate=0.5, seed=7, nb=3):
    golden = (
        ("adder", parse_netlist(FULL_ADDER)),
        ("c17", parse_netlist(C17)),
        ("r1", random_netlist(100, n_pis=8, n_gates=40)),
        ("r2", random_netlist(200, n_pis=10, n_gates=60)),
    )
    return ForgeConfig(golden=golden, nb=nb, infection_rate=rate,
                       master_seed=seed, set_name="demo",
                       sample_vectors=4096, threshold=0.2,
                       release_date="2026-02-01")


@pytest.fixture(scope="module")
def forged():
    cfg = _small_cfg()
    bench, key = forge_benchmark(cfg)
    return cfg, bench, key


def test_confidence_value_exact_points():
    assert confidence_value(0.0, 0.0, 10) == 10.0
    assert confidence_value(0.2, 0.3, 10) == 2.0
    assert confidence_value(1.0, 0.0, 10) == 0.0


def test_confidence_value_rejects_bad_alpha():
    with pytest.raises(ValueError):
        confidence_value(0.1, 0.1, 0)
    with pytest.raises(ValueError):
        confidence_value(0.1, 0.1, -2)


def test_confidence_value_monotone():
    rng = random.Random(1)
    for _ in range(2000):
        fp = rng.random()
        fn = rng.random()
        alpha = rng.uniform(0.1, 50)
        d = rng.uniform(1e-6, 1 - max(fp, fn) - 1e-9) if max(fp, fn) < 1 else 1e-6
        base = confidence_value(fp, fn, alpha)
        if fp + d <= 1:
            assert confidence_value(fp + d, fn, alpha) < base
        if fn + d <= 1:
            assert confidence_value(fp, fn + d, alpha) < base
        assert confidence_value(fp, fn, alpha + 1) > base


def test_forge_counts_and_interfaces(forged):
    cfg, bench, key = forged
    assert len(bench.entries) == len(cfg.golden) * cfg.nb
    assert set(key.entries) == {eid for eid, _ in bench.entries}
    by_name = dict(cfg.golden)
    for eid, text in bench.entries:
        n = parse_netlist(text)
        g = by_name[key.entries[eid]["golden"]]
        assert n.inputs == g.inputs and n.outputs == g.outputs


def test_forge_deterministic(forged):
    cfg, bench, key = forged
    bench2, key2 = forge_benchmark(cfg)
    assert bench.manifest_text() == bench2.manifest_text()
    assert key.to_json_text() == key2.to_json_text()
    assert [t for _, t in bench.entries] == [t for _, t in bench2.entries]


def test_forge_rate_zero_all_clean():
    cfg = _small_cfg(rate=0.0, seed=3, nb=2)
    bench, key = forge_benchmark(cfg)
    assert all(v["k"] == 0 for v in key.entries.values())
    sub = Submission("demo", {eid: "clean" for eid in key.entries})
    rep = score_submission(sub, key, 10)
    assert rep.fp == 0 and rep.fn == 0
    assert rep.tn == len(key.entries)


def test_forge_rate_one_witnesses_reverify():
    cfg = _small_cfg(rate=1.0, seed=11, nb=2)
    bench, key = forge_benchmark(cfg)
    texts = dict(bench.entries)
    by_name = dict(cfg.golden)
    for eid, entry in key.entries.items():
        assert entry["k"] == 1
        rec = TrojanRecord.from_json_dict(entry["trojan"])
        golden = by_name[entry["golden"]]
        variant = parse_netlist(texts[eid])
        vg = simulate(golden, rec.witness)
        vv = simulate(variant, rec.witness)
        assert any(vg[po] != vv[po] for po in golden.outputs)


def test_key_checksum_binds_manifest(forged):
    _, bench, key = forged
    import hashlib
    assert key.manifest_sha256 == hashlib.sha256(
        bench.manifest_text().encode()).hexdigest()


def test_blindness_no_trojan_markers(forged):
    cfg, bench, key = forged
    for eid, text in bench.entries:
        low = text.lower()
        for token in ("tj", "trojan", "trig", "victim", "payload", "ht"):
            assert token not in low, (eid, token)
        assert key.entries[eid]["golden"] not in text


def test_blindness_ids_are_permuted(forged):
    cfg, bench, key = forged
    # generation order (golden-major) must not equal id order
    golden_of = [key.entries[eid]["golden"] for eid, _ in bench.entries]
    names = [nm for nm, _ in cfg.golden]
    gen_order = [nm for nm in names for _ in range(cfg.nb)]
    assert golden_of != gen_order


def test_score_validates_coverage(forged):
    _, _, key = forged
    ids = list(key.entries)
    with pytest.raises(JudgeError, match="cover"):
        score_submission(Submission("demo", {ids[0]: "clean"}), key, 10)
    full = {eid: "clean" for eid in ids}
    full["nonexistent"] = "clean"
    with pytest.raises(JudgeError, match="cover"):
        score_submission(Submission("demo", full), key, 10)
    with pytest.raises(JudgeError, match="alpha"):
        score_submission(
            Submission("demo", {eid: "clean" for eid in ids}), key, 0)


def test_score_accounting_identity(forged):
    _, _, key = forged
    rng = random.Random(5)
    ids = list(key.entries)
    infected_total = sum(v["k"] for v in key.entries.values())
    clean_total = len(ids) - infected_total
    for _ in range(200):
        sub = Submission("demo", {eid: rng.choice(["infected", "clean"])
                                  for eid in ids})
        rep = score_submission(sub, key, 10)
        assert rep.tp + rep.tn + rep.fp + rep.fn == len(ids)
        assert rep.tp + rep.fn == infected_total
        assert rep.tn + rep.fp == clean_total


def test_score_hides_per_entry_until_expiry(forged):
    _, _, key = forged
    sub = Submission("demo", {eid: "clean" for eid in key.entries})
    rep = score_submission(sub, key, 10, now="2027-01-01")
    assert rep.per_entry is None
    rep2 = score_submission(sub, key, 10, now="2029-02-01")
    assert rep2.per_entry is not None
    assert set(rep2.per_entry) == set(key.entries)


def test_per_golden_breakdown(forged):
    cfg, _, key = forged
    sub = Submission("demo", {eid: "infected" for eid in key.entries})
    rep = score_submission(sub, key, 10)
    assert set(rep.per_golden) == {nm for nm, _ in cfg.golden}
    assert sum(s["tp"] + s["fp"] for s in rep.per_golden.values()) == \
        len(key.entries)


def test_submission_csv_round_trip():
    sub = Submission("demo", {"b0001": "infected", "b0000": "clean"})
    text = sub.to_csv_text()
    assert text.splitlines()[0] == "circuit_id,label"
    back = Submission.from_csv_text(text)
    assert back.verdicts == sub.verdicts
    with pytest.raises(JudgeError):
        Submission.from_csv_text("id,verdict\nb0,clean\n")
    with pytest.raises(JudgeError):
        Submission.from_csv_text("circuit_id,label\nb0,maybe\n")
    with pytest.raises(JudgeError):
        Submission.from_csv_text("circuit_id,label\nb0,clean\nb0,clean\n")


def test_key_json_round_trip(forged):
    _, _, key = forged
    back = AnswerKey.from_json_text(key.to_json_text())
    assert back == key


def test_benchmark_set_dir_round_trip(forged, tmp_path):
    _, bench, _ = forged
    bench.write_dir(str(tmp_path / "set"))
    from htforge.judge import BenchmarkSet
    loaded = BenchmarkSet.load_dir(str(tmp_path / "set"))
    assert loaded.entries == bench.entries


def test_judge_window_policy(forged):
    _, _, key = forged
    sub = Submission("demo", {eid: "clean" for eid in key.entries},
                     timestamp="2026-03-10")
    deferred = judge_window(sub, key, 10, now="2026-03-20")
    assert isinstance(deferred, DeferredReceipt)
    assert deferred.release_date == "2026-04-01"
    report = judge_window(sub, key, 10, now="2026-04-01")
    assert isinstance(report, ConfusionReport)
    late = Submission("demo", dict(sub.verdicts), timestamp="2030-01-01")
    with pytest.raises(JudgeError, match="retired"):
        judge_window(late, key, 10, now="2030-01-02")


def test_key_export_sealed(forged):
    _, _, key = forged
    with pytest.raises(JudgeError, match="sealed"):
        export_answer_key(key, "2027-05-05")
    text = export_answer_key(key, "2029-02-01")
    assert json.loads(text)["set_name"] == "demo"


def test_forge_config_validation():
    golden = (("adder", parse_netlist(FULL_ADDER)),)
    with pytest.raises(ValueError):
        ForgeConfig(golden=golden, nb=0, infection_rate=0.5)
    with pytest.raises(ValueError):
        ForgeConfig(golden=golden, nb=1)
    with pytest.raises(ValueError):
        ForgeConfig(golden=golden, nb=1, infection_rate=1.5)
    cfg = ForgeConfig(golden=golden, nb=1, infection_rate=0.5,
                      release_date="2026-02-01")
    assert cfg.expiry_date == "2029-02-01"


def test_forge_exact_counts():
    golden = (("adder", parse_netlist(FULL_ADDER)),
              ("r1", random_netlist(100, n_pis=8, n_gates=40)))
    cfg = ForgeConfig(golden=golden, nb=4,
                      infected_counts={"adder": 1, "r1": 3},
                      master_seed=9, sample_vectors=4096, threshold=0.2,
                      release_date="2026-02-01")
    _, key = forge_benchmark(cfg)
    counts = {"adder": 0, "r1": 0}
    for v in key.entries.values():
        counts[v["golden"]] += v["k"]
    assert counts == {"adder": 1, "r1": 3}
