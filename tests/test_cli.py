import hashlib
import json
import os

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
    assert all(p["equivalence_checked"] for p in rep["passes"])
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
    ([{"params": {}}], "recipe step 0: needs a string 'pass'"),
    (["rewrite"], "recipe step 0: needs a string 'pass'"),
    ({"pass": "rewrite"}, "a recipe must be a list of steps"),
    ([{"pass": "rewrite", "params": {"cut_size": "x"}}],
     "recipe step 0: 'params' must map names to ints"),
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
                 "nb must be an int >= 1, got '2'", id="nb-string"),
    pytest.param([{"golden": _GOLDEN, "nb": 2}],
                 "bench config must be a JSON object", id="top-level-list"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "recipe_pool": [99]},
                 "recipe_pool must list recipe ids in 1..18, got [99]",
                 id="unknown-recipe"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "trigger_widths": []},
                 "trigger_widths must list ints >= 2, got []",
                 id="no-trigger-widths"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "trigger_widths": [1]},
                 "trigger_widths must list ints >= 2, got [1]",
                 id="trigger-width-1"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "recipe_pol": [1]},
                 "unknown bench config keys ['recipe_pol']", id="misspelled-key"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": "0.5"},
                 "infection_rate must lie in [0, 1]", id="rate-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"adder": "1"}},
                 "infected_counts must map golden names to ints",
                 id="count-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infected_counts": {"addr": 1}},
                 "infected_counts must map golden names to ints",
                 id="count-unknown-golden"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "threshold": "0.05"},
                 "threshold has the wrong type: '0.05'", id="threshold-string"),
    pytest.param({"golden": _GOLDEN, "nb": 2, "infection_rate": 0.5,
                  "sample_vectors": 1e5},
                 "sample_vectors has the wrong type: 100000.0",
                 id="sample-vectors-float"),
    pytest.param({"golden": [], "nb": 2, "infection_rate": 0.5},
                 "golden must list at least one circuit", id="no-golden"),
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
])
def test_bench_malformed_config_is_a_usage_error(tmp_path, capsys, cfg, message):
    (tmp_path / "adder.v").write_text(FULL_ADDER)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["bench", "--config", str(path), "-o", str(tmp_path / "set"),
                "--key", str(tmp_path / "k.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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
    assert "<svg" in open(svg).read()


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
                 "trials must be >= 1", id="game-trials-0"),
    pytest.param(["game", "--nodes", "10", "--k", "1", "--trials", "-3"], None,
                 "trials must be >= 1", id="game-trials-negative"),
    pytest.param(["space", "--profile", "{file}"], "[[3, 2]]",
                 _PROFILE_ERROR, id="space-list"),
    pytest.param(["space", "--profile", "{file}"], '{"strategies": [[3, 2]]}',
                 _PROFILE_ERROR, id="space-no-max-width"),
    pytest.param(["space", "--profile", "{file}"],
                 '{"strategies": 3, "max_width": 3}',
                 _PROFILE_ERROR, id="space-strategies-int"),
    pytest.param(["space", "--profile", "{file}"],
                 '{"strategies": [[2.7, 1]], "max_width": 3}',
                 "rare/regular counts and max_width must be ints",
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
    pytest.param(["restructure", "{file}", "--recipe", "99", "-o", "{dir}/o.v"],
                 "module m(a, y); input a; output y; not g(y, a); endmodule\n",
                 "recipe must be 1..18, got 99", id="restructure-recipe-99"),
    pytest.param(["features", "{dir}", "--csv", "{dir}/f.csv"], None,
                 "no circuits found", id="features-empty-dir"),
])
def test_documented_usage_errors(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert run([a.format(file=path, dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
