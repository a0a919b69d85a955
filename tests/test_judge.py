import json
import random

import pytest

from htforge.judge import (
    AnswerKey,
    BenchmarkSet,
    ForgeConfig,
    JudgeError,
    Submission,
    confidence_value,
    forge_benchmark,
    score_submission,
)
from htforge.netlist import parse_netlist, simulate

from conftest import (C17, FULL_ADDER, random_netlist, rarity_netlist,
                      record_from_json_dict)


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
    sub = Submission({eid: "clean" for eid in key.entries})
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
        rec = record_from_json_dict(entry["trojan"])
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
        score_submission(Submission({ids[0]: "clean"}), key, 10)
    full = {eid: "clean" for eid in ids}
    full["nonexistent"] = "clean"
    with pytest.raises(JudgeError, match="cover"):
        score_submission(Submission(full), key, 10)
    with pytest.raises(JudgeError, match="alpha"):
        score_submission(
            Submission({eid: "clean" for eid in ids}), key, 0)


@pytest.mark.parametrize("label", ["Infected", "CLEAN", "", "yes", None, 1])
def test_score_rejects_a_label_that_is_neither_verdict(label):
    # a Submission built in code is not checked by from_csv_text: a label
    # other than the two verdicts would otherwise score as clean
    key = AnswerKey("s", "0" * 64, 0, "2026-01-01", "2029-01-01",
                    {"b0000": {"golden": "adder", "k": 1},
                     "b0001": {"golden": "adder", "k": 0}})
    rep = score_submission(Submission({"b0000": "infected",
                                       "b0001": "clean"}), key, 10)
    assert (rep.tp, rep.tn, rep.fp, rep.fn) == (1, 1, 0, 0)
    with pytest.raises(JudgeError) as err:
        score_submission(Submission({"b0000": label, "b0001": "clean"}),
                         key, 10)
    assert str(err.value) == ("verdict for id b0000 must be 'infected' or "
                              f"'clean', got {label!r}")


def test_score_accounting_identity(forged):
    _, _, key = forged
    rng = random.Random(5)
    ids = list(key.entries)
    infected_total = sum(v["k"] for v in key.entries.values())
    clean_total = len(ids) - infected_total
    for _ in range(200):
        sub = Submission({eid: rng.choice(["infected", "clean"])
                          for eid in ids})
        rep = score_submission(sub, key, 10)
        assert rep.tp + rep.tn + rep.fp + rep.fn == len(ids)
        assert rep.tp + rep.fn == infected_total
        assert rep.tn + rep.fp == clean_total


def test_score_hides_per_entry_until_expiry(forged):
    _, _, key = forged
    sub = Submission({eid: "clean" for eid in key.entries})
    rep = score_submission(sub, key, 10, now="2027-01-01")
    assert rep.per_entry is None
    rep2 = score_submission(sub, key, 10, now="2029-02-01")
    assert rep2.per_entry is not None
    assert set(rep2.per_entry) == set(key.entries)


def test_score_labels_every_outcome(forged):
    # an independent recount: each entry's outcome from its truth and label
    _, _, key = forged
    rng = random.Random(1)
    sub = Submission({eid: rng.choice(["infected", "clean"])
                      for eid in key.entries})
    rep = score_submission(sub, key, 10, now=key.expiry_date)
    names = {(1, "infected"): "TP", (1, "clean"): "FN",
             (0, "infected"): "FP", (0, "clean"): "TN"}
    slots = {}
    for eid, truth in key.entries.items():
        label = sub.verdicts[eid]
        outcome = names[truth["k"], label]
        assert rep.per_entry[eid] == {"k": truth["k"], "label": label,
                                      "outcome": outcome}
        slot = slots.setdefault(truth["golden"],
                                {"tp": 0, "tn": 0, "fp": 0, "fn": 0})
        slot[outcome.lower()] += 1
    assert {e["outcome"] for e in rep.per_entry.values()} == \
        {"TP", "TN", "FP", "FN"}
    assert rep.per_golden == slots
    assert [rep.tp, rep.tn, rep.fp, rep.fn] == [
        sum(s[o] for s in slots.values()) for o in ("tp", "tn", "fp", "fn")]


def test_per_golden_breakdown(forged):
    cfg, _, key = forged
    sub = Submission({eid: "infected" for eid in key.entries})
    rep = score_submission(sub, key, 10)
    assert set(rep.per_golden) == {nm for nm, _ in cfg.golden}
    assert sum(s["tp"] + s["fp"] for s in rep.per_golden.values()) == \
        len(key.entries)


def test_submission_csv_round_trip():
    sub = Submission({"b0001": "infected", "b0000": "clean"})
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
    loaded = BenchmarkSet.load_dir(str(tmp_path / "set"))
    assert loaded.entries == bench.entries
    assert loaded.manifest == bench.manifest


def _tampered_set(bench, tmp_path, edit):
    """Write ``bench`` and apply ``edit`` to its manifest dict."""
    root = tmp_path / "set"
    bench.write_dir(str(root))
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return str(root)


def test_benchmark_set_load_rejects_a_path_outside_circuits(forged, tmp_path):
    _, bench, _ = forged
    (tmp_path / "outside.v").write_text(bench.entries[0][1])
    sha = bench.manifest["entries"][0]["sha256"]

    def escape(e):
        return lambda m: m["entries"][0].update(e, sha256=sha)
    for e in ({"file": "../../outside.v"},
              {"id": "../../outside", "file": "../../outside.v"}):
        root = _tampered_set(bench, tmp_path, escape(e))
        with pytest.raises(JudgeError, match="not circuits/<id>.v"):
            BenchmarkSet.load_dir(root)


def test_benchmark_set_load_checks_each_circuit_sha256(forged, tmp_path):
    _, bench, _ = forged
    root = tmp_path / "set"
    bench.write_dir(str(root))
    eid, text = bench.entries[-1]
    (root / "circuits" / f"{eid}.v").write_text(text + "\n")
    with pytest.raises(JudgeError, match=f"circuit '{eid}' does not match"):
        BenchmarkSet.load_dir(str(root))


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.pop("entries"), "manifest 'entries'"),
    (lambda m: m.pop("set_name"), "manifest 'set_name'"),
    (lambda m: m["entries"][0].pop("sha256"), "manifest entry 'sha256'"),
    (lambda m: m["entries"].__setitem__(1, "b0001.v"), "manifest entry must"),
], ids=["entries", "set_name", "sha256", "entry-not-a-dict"])
def test_benchmark_set_load_names_a_missing_field(forged, tmp_path, edit,
                                                  field):
    _, bench, _ = forged
    with pytest.raises(JudgeError, match=field):
        BenchmarkSet.load_dir(_tampered_set(bench, tmp_path, edit))


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


@pytest.mark.parametrize("fields, message", [
    pytest.param({"infection_rate": 1.0, "threshold": float("nan")},
                 "threshold must be a finite number, got nan", id="nan-threshold"),
    pytest.param({"infected_counts": {"r": 3}},
                 "infected_counts['r'] must be one of range(0, 3), got 3",
                 id="count-above-nb"),
    pytest.param({"infection_rate": 0.0, "metric": "bogus"},
                 "metric must be one of ('signal-prob-low', 'signal-prob-high', "
                 "'scoap-hard'), got 'bogus'", id="unknown-metric"),
])
def test_forge_config_rejects_at_construction(fields, message):
    # a NaN threshold selects no rare net, so every variant would be forged
    # with rare_count_used 0 and the key would hold a NaN, which is not JSON
    golden = (("r", rarity_netlist(1, pis_per_branch=4)),)
    with pytest.raises(ValueError) as info:
        ForgeConfig(golden=golden, nb=2, **fields)
    assert str(info.value) == message


def test_forge_config_keeps_values_as_given():
    # the fingerprint hashes the fields, so a check must not convert them
    cfg = ForgeConfig(golden=(("adder", parse_netlist(FULL_ADDER)),), nb=1,
                      infection_rate=1, threshold=0, recipe_pool=[3, 1])
    assert (cfg.infection_rate, cfg.threshold, cfg.recipe_pool) == (1, 0, (3, 1))
    assert type(cfg.threshold) is int and type(cfg.infection_rate) is int


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
