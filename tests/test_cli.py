import hashlib
import json
import os
import random
from xml.etree import ElementTree

import pytest

from htforge.cli import run

from conftest import C17, FULL_ADDER


@pytest.fixture
def adder_file(tmp_path):
    p = tmp_path / "adder.v"
    p.write_text(FULL_ADDER)
    return str(p)


@pytest.fixture
def c17_file(tmp_path):
    p = tmp_path / "c17.v"
    p.write_text(C17)
    return str(p)


def test_parse_json(adder_file, capsys):
    assert run(["parse", adder_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["name"] == "full_adder"
    assert len(out["gates"]) == 5
    assert out["inputs"] == ["a", "b", "cin"]


def test_parse_summary(adder_file, capsys):
    assert run(["parse", adder_file]) == 0
    assert "5 gates" in capsys.readouterr().out


def test_parse_rejects_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.v"
    p.write_text("module m(a); input a; always @(a) x = a; endmodule")
    assert run(["parse", str(p)]) == 2
    assert "sequential/behavioral" in capsys.readouterr().err


def test_aig_export(adder_file, capsys):
    assert run(["aig", "export", adder_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("aag ")


def test_restructure_and_report(adder_file, tmp_path, capsys):
    out_v = str(tmp_path / "out.v")
    report = str(tmp_path / "report.json")
    assert run(["restructure", adder_file, "--recipe", "7", "--seed", "3",
                "-o", out_v, "--report", report]) == 0
    rep = json.loads(open(report).read())
    assert [p["pass"] for p in rep["passes"]] == \
        ["strash", "balance", "rewrite", "refactor"]
    assert {p["check_mode"] for p in rep["passes"]} == {"exhaustive"}
    assert rep["provenance"]["seed"] == 3
    # equivalent output
    assert run(["equiv", adder_file, out_v]) == 0


def test_restructure_deterministic(adder_file, tmp_path):
    a = str(tmp_path / "a.v")
    b = str(tmp_path / "b.v")
    run(["restructure", adder_file, "--recipe", "14", "--seed", "5", "-o", a])
    run(["restructure", adder_file, "--recipe", "14", "--seed", "5", "-o", b])
    assert open(a).read() == open(b).read()


def test_recipe_file(adder_file, tmp_path):
    rf = tmp_path / "recipe.json"
    rf.write_text(json.dumps([{"pass": "balance", "seed": 1},
                              {"pass": "rewrite"}]))
    out_v = str(tmp_path / "out.v")
    assert run(["restructure", adder_file, "--recipe-file", str(rf),
                "-o", out_v]) == 0
    assert run(["equiv", adder_file, out_v]) == 0


@pytest.mark.parametrize("steps, message", [
    pytest.param([{"params": {}}],
                 "recipe step 0: 'pass' must be a str, got None",
                 id="steps0-recipe step 0: needs a string 'pass'"),
    pytest.param(["rewrite"], "recipe step 0 must be a dict, got 'rewrite'",
                 id="steps1-recipe step 0: needs a string 'pass'"),
    pytest.param({"pass": "rewrite"},
                 "recipe must be a list, got {'pass': 'rewrite'}",
                 id="steps2-a recipe must be a list of steps"),
    pytest.param([{"pass": "rewrite", "params": {"cut_size": "x"}}],
                 "param 'cut_size' for pass 'rewrite' must be an int, got 'x'",
                 id="steps3-recipe step 0: 'params' must map names to ints"),
    pytest.param([{"pass": "rewrite", "params": {"max_cuts": 400}}],
                 "param 'max_cuts' for pass 'rewrite' must be <= 16, got 400",
                 id="steps4-a param above its bound"),
])
def test_recipe_file_malformed_is_a_usage_error(adder_file, tmp_path, capsys,
                                                 steps, message):
    rf = tmp_path / "recipe.json"
    rf.write_text(json.dumps(steps))
    assert run(["restructure", adder_file, "--recipe-file", str(rf),
                "-o", str(tmp_path / "out.v")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_equiv_exit_codes(adder_file, c17_file, tmp_path, capsys):
    assert run(["equiv", adder_file, adder_file]) == 0
    capsys.readouterr()
    # inequivalent same-interface pair
    other = tmp_path / "other.v"
    other.write_text(FULL_ADDER.replace("or  g5 (cout, t2, t3);",
                                        "and g5 (cout, t2, t3);"))
    assert run(["equiv", adder_file, str(other)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["result"] == "counterexample"
    assert verdict["counterexample"] is not None
    # interface mismatch is a usage error
    assert run(["equiv", adder_file, c17_file]) == 2


def test_equiv_inconclusive_above_bound(adder_file, capsys):
    assert run(["equiv", adder_file, adder_file,
                "--exhaustive-bound", "2", "--vectors", "500"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["result"] == "no-mismatch-found"
    assert verdict["vectors"] == 500


@pytest.mark.parametrize("argv, message", [
    (["equiv", "{a}", "{a}", "--exhaustive-bound", "2", "--vectors", "0"],
     "sample_vectors must be >= 1, got 0"),
    (["equiv", "{a}", "{a}", "--vectors", "-5"],
     "sample_vectors must be >= 1, got -5"),
    (["equiv", "{a}", "{a}", "--exhaustive-bound", "-1"],
     "exhaustive_bound must be >= 0, got -1"),
    (["restructure", "{a}", "--recipe", "3", "--vectors", "0", "-o", "{out}"],
     "sample_vectors must be >= 1, got 0"),
], ids=["equiv-sampled", "equiv-negative", "equiv-bound", "restructure"])
def test_zero_vector_check_is_a_usage_error(adder_file, tmp_path, capsys,
                                            argv, message):
    out_v = tmp_path / "out.v"
    argv = [a.format(a=adder_file, out=out_v) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_v.exists()


def test_insert_writes_record(c17_file, tmp_path):
    out_v = str(tmp_path / "inf.v")
    rec = str(tmp_path / "rec.json")
    assert run(["insert", c17_file, "--q", "2", "--rare-count", "0",
                "--threshold", "0.3", "--vectors", "4096", "--seed", "2",
                "-o", out_v, "--record", rec]) == 0
    d = json.loads(open(rec).read())
    assert d["record"]["q"] == 2
    assert d["record"]["witness"]
    # infected differs from golden
    assert run(["equiv", c17_file, out_v]) == 1


def test_analyze_json(c17_file, tmp_path):
    out = str(tmp_path / "a.json")
    assert run(["analyze", c17_file, "--scoap", "--sigprob", "2000",
                "--json", out]) == 0
    d = json.loads(open(out).read())
    row = {r["net"]: r for r in d["nets"]}
    assert row["N22"]["co"] == 0
    assert {"cc0", "cc1", "co", "p", "tp"} <= set(row["N10"])


def test_analyze_exact_needs_no_sigprob(c17_file, tmp_path):
    out = str(tmp_path / "a.json")
    assert run(["analyze", c17_file, "--exact", "--json", out]) == 0
    row = {r["net"]: r for r in json.loads(open(out).read())["nets"]}
    assert row["N1"]["p"] == 0.5 and row["N10"]["p"] == 0.75


def test_analyze_exact_is_part_of_the_config_hash(c17_file, tmp_path):
    hashes = []
    for flags in (["--exact"], []):
        out = str(tmp_path / "a.json")
        assert run(["analyze", c17_file, *flags, "--json", out]) == 0
        hashes.append(json.loads(open(out).read())["provenance"]["config_hash"])
    assert hashes[0] != hashes[1]


def test_forge_seed_env_override(adder_file, tmp_path, monkeypatch):
    a = str(tmp_path / "a.v")
    b = str(tmp_path / "b.v")
    monkeypatch.setenv("FORGE_SEED", "77")
    run(["restructure", adder_file, "--recipe", "3", "--seed", "1", "-o", a])
    monkeypatch.delenv("FORGE_SEED")
    run(["restructure", adder_file, "--recipe", "3", "--seed", "77", "-o", b])
    assert open(a).read() == open(b).read()


def test_forge_seed_env_that_is_not_an_int_names_the_variable(
        adder_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FORGE_SEED", "abc")
    out = str(tmp_path / "a.v")
    assert run(["restructure", adder_file, "--recipe", "3", "-o", out]) == 2
    assert "error: FORGE_SEED must be an int, got 'abc'" in capsys.readouterr().err
    assert not os.path.exists(out)


def _bench_config(tmp_path, seed=5):
    (tmp_path / "adder.v").write_text(FULL_ADDER)
    (tmp_path / "c17.v").write_text(C17)
    cfg = {
        "set_name": "mini",
        "golden": [{"name": "adder", "file": "adder.v"},
                   {"name": "c17", "file": "c17.v"}],
        "nb": 2,
        "infection_rate": 0.5,
        "master_seed": seed,
        "threshold": 0.2,
        "sample_vectors": 4096,
        "release_date": "2026-03-01",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _dir_checksums(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(base, f)
            rel = os.path.relpath(p, root)
            out[rel] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


def test_bench_judge_round_trip(tmp_path, capsys):
    cfg = _bench_config(tmp_path)
    set_dir = str(tmp_path / "set")
    key_path = str(tmp_path / "mini.key.json")
    assert run(["bench", "--config", cfg, "-o", set_dir,
                "--key", key_path]) == 0
    manifest = json.loads(open(os.path.join(set_dir, "manifest.json")).read())
    assert manifest["count"] == 4
    assert "master_seed" not in json.dumps(manifest)  # blind manifest
    key = json.loads(open(key_path).read())
    sub = tmp_path / "sub.csv"
    rows = ["circuit_id,label"]
    rows += [f"{eid},{'infected' if v['k'] else 'clean'}"
             for eid, v in key["entries"].items()]
    sub.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run(["judge", "--key", key_path, "--submission", str(sub),
                "--alpha", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fp"] == 0 and report["fn"] == 0
    assert report["conf_val"] == 10.0
    assert report["tp"] + report["tn"] == 4
    # per-entry truth appears on the key's expiry date, not the day before
    assert key["expiry_date"] == "2029-03-01"
    dated = {}
    for now in ("2029-02-28", "2029-03-01"):
        assert run(["judge", "--key", key_path, "--submission", str(sub),
                    "--alpha", "10", "--now", now]) == 0
        dated[now] = json.loads(capsys.readouterr().out)
    per_entry = dated["2029-03-01"].pop("per_entry")
    assert dated["2029-02-28"] == dated["2029-03-01"] == report
    assert sorted(per_entry) == sorted(key["entries"])
    assert all(e["k"] == key["entries"][eid]["k"]
               and e["outcome"] in ("TP", "TN") for eid, e in per_entry.items())


_KEY = {"set_name": "s", "manifest_sha256": "0" * 64, "master_seed": 0,
        "release_date": "2026-01-01", "expiry_date": "2029-01-01",
        "entries": {"b0000": {"golden": "adder", "k": 1}}}
@pytest.mark.parametrize("key, message", [
    pytest.param([], "answer key must be a dict, got []", id="list"),
    pytest.param({k: v for k, v in _KEY.items() if k != "manifest_sha256"},
                 "answer key 'manifest_sha256' must be a str, got None",
                 id="no-manifest-sha"),
    pytest.param(dict(_KEY, entries={"b0000": {"golden": "adder"}}),
                 "answer key entry 'b0000': 'k' must be an int, got None",
                 id="entry-without-k"),
    pytest.param(dict(_KEY, entries={"b0000": {"golden": "adder", "k": 2}}),
                 "answer key entry 'b0000': 'k' must be one of (0, 1), got 2",
                 id="k-2"),
    pytest.param(dict(_KEY, expiry_date="soon"),
                 "answer key 'expiry_date' must be an ISO date, got 'soon'",
                 id="expiry-not-a-date"),
    pytest.param(dict(_KEY, release_date="2026-13-01"),
                 "answer key 'release_date' must be an ISO date, "
                 "got '2026-13-01'", id="release-not-a-date"),
])
def test_judge_malformed_key_is_a_usage_error(tmp_path, capsys, key, message):
    sub = tmp_path / "sub.csv"
    sub.write_text("circuit_id,label\nb0000,infected\n")
    args = ["judge", "--key", str(tmp_path / "key.json"),
            "--submission", str(sub), "--alpha", "10"]
    (tmp_path / "key.json").write_text(json.dumps(_KEY))
    assert run(args) == 0  # the well-formed key scores
    capsys.readouterr()
    (tmp_path / "key.json").write_text(json.dumps(key))
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("now", ["2029-13-01", "yesterday", ""])
def test_judge_malformed_now_is_a_usage_error(tmp_path, capsys, now):
    sub = tmp_path / "sub.csv"
    sub.write_text("circuit_id,label\nb0000,infected\n")
    (tmp_path / "key.json").write_text(json.dumps(_KEY))
    args = ["judge", "--key", str(tmp_path / "key.json"),
            "--submission", str(sub), "--alpha", "10"]
    assert run(args + ["--now", "2029-01-01"]) == 0
    capsys.readouterr()
    assert run(args + ["--now", now]) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (
        f"error: now must be an ISO date, got {now!r}\n", "")


def test_bench_byte_identical_reruns(tmp_path):
    cfg = _bench_config(tmp_path)
    d1 = str(tmp_path / "s1")
    d2 = str(tmp_path / "s2")
    run(["bench", "--config", cfg, "-o", d1, "--key", str(tmp_path / "k1.json")])
    run(["bench", "--config", cfg, "-o", d2, "--key", str(tmp_path / "k2.json")])
    assert _dir_checksums(d1) == _dir_checksums(d2)
    assert open(tmp_path / "k1.json").read() == open(tmp_path / "k2.json").read()


_GOLDEN = [{"name": "adder", "file": "adder.v"}]


@pytest.mark.parametrize("cfg, message", [
    pytest.param({"golden": _GOLDEN, "infection_rate": 0.5},
                 "bench config needs keys ['nb']", id="missing-nb"),
    pytest.param({"golden": [{"name": "adder"}], "nb": 2, "infection_rate": 0.5},
                 'golden must be a list of {"name": ..., "file": ...}',
                 id="golden-without-file"),
    pytest.param({"golden": _GOLDEN, "nb": "2", "infection_rate": 0.5},
                 "nb must be an int, got '2'", id="nb-string"),
    pytest.param([{"golden": _GOLDEN, "nb": 2}],
                 "bench config must be a dict, "
                 "got [{'golden': [{'file': 'adder.v', 'name': 'adder'}], 'nb': 2}]",
                 id="top-level-list"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "recipe_pool": [99]},
                 "recipe_pool[0] must be one of (1, 2, 3, 4, 5, 6, 7, 8, 9, "
                 "10, 11, 12, 13, 14, 15, 16, 17, 18), got 99",
                 id="unknown-recipe"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "trigger_widths": []},
                 "len(trigger_widths) must be >= 1, got 0",
                 id="no-trigger-widths"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "trigger_widths": [1]},
                 "trigger_widths[0] must be >= 2, got 1",
                 id="trigger-width-1"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "recipe_pool": 23},
                 "recipe_pool must be a list, got 23", id="recipe-pool-scalar"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "trigger_widths": 3},
                 "trigger_widths must be a list, got 3",
                 id="trigger-widths-scalar"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "set_name": "a/b"},
                 "set_name must be a plain file name, got 'a/b'",
                 id="set-name-with-separator"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "recipe_pol": [1]},
                 "unknown bench config keys ['recipe_pol']", id="misspelled-key"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": "0.5"},
                 "infection_rate must be a finite number, got '0.5'",
                 id="rate-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"adder": "1"}},
                 "infected_counts['adder'] must be an int, got '1'",
                 id="count-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"addr": 1}},
                 "infected_counts key must be one of ['adder'], got 'addr'",
                 id="count-unknown-golden"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "threshold": "0.05"},
                 "threshold must be a finite number, got '0.05'",
                 id="threshold-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "sample_vectors": 1e5},
                 "sample_vectors must be an int, got 100000.0",
                 id="sample-vectors-float"),
    pytest.param({"golden": [], "nb": 2, "infection_rate": 0.5},
                 "len(golden) must be >= 1, got 0", id="no-golden"),
    pytest.param({"golden": _GOLDEN + _GOLDEN, "nb": 2, "infection_rate": 0.5},
                 "golden names must be distinct, repeated: ['adder']",
                 id="duplicate-golden"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "sample_vectors": 0},
                 "sample_vectors must be >= 1, got 0", id="sample-vectors-0"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "equiv_vectors": 0},
                 "equiv_vectors must be >= 1, got 0", id="equiv-vectors-0"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "exhaustive_bound": -1},
                 "exhaustive_bound must be >= 0, got -1",
                 id="exhaustive-bound-negative"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0,
                  "metric": "bogus"},
                 "metric must be one of ('signal-prob-low', 'signal-prob-high', "
                 "'scoap-hard'), got 'bogus'", id="unknown-metric-none-infected"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 1.0,
                  "threshold": float("nan")},
                 "threshold must be a finite number, got nan", id="threshold-nan"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 1.0,
                  "threshold": float("-inf")},
                 "threshold must be a finite number, got -inf",
                 id="threshold-minus-inf"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"adder": 3}},
                 "infected_counts['adder'] must be one of range(0, 3), got 3",
                 id="count-above-nb"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"adder": -1}},
                 "infected_counts['adder'] must be one of range(0, 3), got -1",
                 id="count-negative"),
    pytest.param({"golden": _GOLDEN, "nb": True, "infection_rate": 0.5},
                 "nb must be an int, got True", id="nb-bool"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 1.5},
                 "infection_rate must be <= 1, got 1.5", id="rate-above-1"),
])
def test_bench_malformed_config_is_a_usage_error(tmp_path, capsys, cfg, message):
    (tmp_path / "adder.v").write_text(FULL_ADDER)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path), "-o", str(tmp_path / "set"),
                "--key", str(tmp_path / "k.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "set").exists()


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bench", "--config", "{deep}", "-o", "{dir}/set"],
                 "{deep}: JSON nested too deeply", id="bench-config"),
    pytest.param(["restructure", "{adder}", "--recipe-file", "{deep}",
                  "-o", "{dir}/out.v"],
                 "{deep}: JSON nested too deeply", id="restructure-recipe-file"),
    pytest.param(["space", "--profile", "{deep}"],
                 "{deep}: JSON nested too deeply", id="space-profile"),
    pytest.param(["judge", "--key", "{deep}", "--submission", "{dir}/sub.csv",
                  "--alpha", "10"],
                 "maximum recursion depth exceeded while decoding a JSON array "
                 "from a unicode string", id="judge-key"),
])
def test_deeply_nested_json_is_a_usage_error(adder_file, tmp_path, capsys,
                                             argv, message):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    (tmp_path / "sub.csv").write_text("circuit_id,label\n")
    fill = {"deep": deep, "dir": tmp_path, "adder": adder_file}
    assert run([a.format(**fill) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**fill)}\n"


@pytest.mark.parametrize("alpha, message", [
    ("inf", "alpha must be a finite number, got inf"),
    ("-inf", "alpha must be a finite number, got -inf"),
    ("nan", "alpha must be a finite number, got nan"),
    ("0", "alpha must be positive"),
    ("-2", "alpha must be positive"),
])
def test_judge_alpha_must_be_a_finite_positive_number(tmp_path, capsys, alpha,
                                                      message):
    # no false negative: a 1/alpha of 0 would divide by zero
    (tmp_path / "key.json").write_text(json.dumps(_KEY))
    (tmp_path / "sub.csv").write_text("circuit_id,label\nb0000,infected\n")
    assert run(["judge", "--key", str(tmp_path / "key.json"), "--submission",
                str(tmp_path / "sub.csv"), f"--alpha={alpha}"]) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (f"error: {message}\n", "")


def test_bench_rejects_a_non_iso_release_date_before_forging(tmp_path, capsys,
                                                            monkeypatch):
    import htforge.judge as judge
    path = _bench_config(tmp_path)
    cfg = json.loads((tmp_path / "cfg.json").read_text())
    cfg["release_date"] = "2026-13-01"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    forged = []
    plain = judge._forge_variant
    monkeypatch.setattr(judge, "_forge_variant",
                        lambda *a: forged.append(a) or plain(*a))
    assert run(["bench", "--config", path, "-o", str(tmp_path / "set"),
                "--key", str(tmp_path / "k.json")]) == 2
    assert capsys.readouterr().err == ("error: release_date must be an ISO "
                                       "date, got '2026-13-01'\n")
    assert forged == []
    assert not (tmp_path / "set").exists() and not (tmp_path / "k.json").exists()


def test_bench_key_that_cannot_be_opened_leaves_no_set(tmp_path, capsys):
    cfg = _bench_config(tmp_path)
    (tmp_path / "keydir").mkdir()
    assert run(["bench", "--config", cfg, "-o", str(tmp_path / "set"),
                "--key", str(tmp_path / "keydir")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "set").exists()


def test_features_pca_pipeline(tmp_path, capsys):
    cfg = _bench_config(tmp_path)
    set_dir = str(tmp_path / "set")
    run(["bench", "--config", cfg, "-o", set_dir,
         "--key", str(tmp_path / "k.json")])
    csv = str(tmp_path / "features.csv")
    assert run(["features", set_dir, "--csv", csv]) == 0
    header = open(csv).readline().strip().split(",")
    assert header[0] == "name" and len(header) == 33
    coords = str(tmp_path / "coords.csv")
    svg = str(tmp_path / "scatter.svg")
    assert run(["pca", csv, "--components", "3", "--coords", coords,
                "--svg", svg]) == 0
    assert open(coords).readline().strip() == "name,pc1,pc2,pc3"
    # one root <svg>, with a PC3/PC4 panel beside PC1/PC2 from 4 components
    # (which needs more than the 4 rows of this set)
    rng = random.Random(3)
    wide = tmp_path / "wide.csv"
    wide.write_text(",".join(header) + "\n" + "".join(
        f"e{i}," + ",".join(str(rng.random()) for _ in header[1:]) + "\n"
        for i in range(6)))
    for components, panels in ((2, 1), (3, 1), (4, 2)):
        assert run(["pca", str(wide), "--components", str(components),
                    "--svg", svg]) == 0
        root = ElementTree.fromstring(open(svg).read())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert int(root.get("width")) == 480 * panels
        labels = [t.text for t in root if t.text and t.text.startswith("PC")]
        assert labels == ["PC1", "PC2", "PC3", "PC4"][:2 * panels]



def test_pca_labels_are_a_submission_csv(tmp_path, capsys):
    # --labels is read as a submission: rows are stripped, so "a, infected"
    # marks a; a row without a label of infected/clean is a usage error
    feats = tmp_path / "f.csv"
    feats.write_text("name,x,y\na,1,2\nb,3,1\nc,0,5\n")
    labels, svg = tmp_path / "labels.csv", tmp_path / "s.svg"
    argv = ["pca", str(feats), "--components", "2", "--svg", str(svg),
            "--labels", str(labels)]
    labels.write_text("circuit_id,label\na, infected\nb,clean\n")
    assert run(argv) == 0
    marks = [t.text for t in ElementTree.fromstring(svg.read_text())
             if t.text in ("+", "\u2212")]
    assert marks == ["+", "\u2212", "\u2212"]
    capsys.readouterr()
    for row in ("c infected", "b,1"):
        labels.write_text(f"circuit_id,label\na, infected\n{row}\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: bad submission row: {row!r}\n"
    labels.write_text("a,infected\n")
    assert run(argv) == 2
    assert capsys.readouterr().err == ("error: submission CSV must start "
                                       "with 'circuit_id,label'\n")


def test_space_command(tmp_path, capsys):
    p = tmp_path / "profile.json"
    p.write_text(json.dumps({"strategies": [[3, 2]], "max_width": 3}))
    assert run(["space", "--profile", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_game_command(capsys):
    assert run(["game", "--nodes", "10", "--k", "1", "--trials", "2000",
                "--seed", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["mean"] - 5.5) < 0.5
    assert out["k_zero_policy"] == "charged-full-budget"


def test_missing_file_is_usage_error(capsys):
    assert run(["parse", "/nonexistent/x.v"]) == 2


def test_directory_path_is_usage_error(tmp_path, capsys):
    assert run(["parse", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_PROFILE_ERROR = ('profile must be a JSON object {"strategies": [[r, g], ...], '
                  '"max_width": M} of ints')


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["game", "--nodes", "10", "--k", "1", "--trials", "0"], None,
                 "trials must be >= 1, got 0", id="game-trials-0"),
    pytest.param(["game", "--nodes", "10", "--k", "1", "--trials", "-3"], None,
                 "trials must be >= 1, got -3", id="game-trials-negative"),
    pytest.param(["space", "--profile", "{file}"], "[[3, 2]]",
                 _PROFILE_ERROR, id="space-list"),
    pytest.param(["space", "--profile", "{file}"], '{"strategies": [[3, 2]]}',
                 _PROFILE_ERROR, id="space-no-max-width"),
    pytest.param(["space", "--profile", "{file}"],
                 '{"strategies": 3, "max_width": 3}',
                 "strategies must be a list, got 3", id="space-strategies-int"),
    pytest.param(["space", "--profile", "{file}"],
                 '{"strategies": [[2.7, 1]], "max_width": 3}',
                 "strategies[0][0] must be an int, got 2.7",
                 id="space-fractional-count"),
    pytest.param(["pca", "{file}"], "id,a,b\nx,1,2\ny,3,4\n",
                 "feature CSV must start with a 'name' column",
                 id="pca-no-name-column"),
    pytest.param(["pca", "{file}", "--components", "1"],
                 "name,a,b\nx,1,2\ny,3\nz,0,1\n",
                 "feature CSV line 3: expected 2 values, got 1",
                 id="pca-ragged-row"),
    pytest.param(["pca", "{file}", "--components", "1"],
                 "name,a,b\nx,1,2\ny,nan,4\nz,0,1\n",
                 "feature values must be finite", id="pca-nan"),
    pytest.param(["pca", "{file}", "--components", "1"],
                 "name,a,b\nx,1,2\ny,inf,4\nz,0,1\n",
                 "feature values must be finite", id="pca-inf"),
    pytest.param(["pca", "{file}", "--components", "1", "--svg", "{dir}/s.svg"],
                 "name,a,b\nx,1,2\ny,3,4\nz,0,1\n",
                 "--svg plots PC1 against PC2: use --components >= 2",
                 id="pca-svg-one-component"),
    pytest.param(["restructure", "{file}", "--recipe", "99", "-o", "{dir}/o.v"],
                 "module m(a, y); input a; output y; not g(y, a); endmodule\n",
                 "recipe must be one of (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
                 "13, 14, 15, 16, 17, 18), got 99", id="restructure-recipe-99"),
    pytest.param(["features", "{dir}", "--csv", "{dir}/f.csv"], None,
                 "no circuits found", id="features-empty-dir"),
])
def test_documented_usage_errors(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert run([a.format(file=path, dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
