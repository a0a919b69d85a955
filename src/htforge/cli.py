"""The ``forge`` command line: parse / restructure / insert / analyze /
equiv / bench / judge / features / pca / space / game / aig-export.

Exit codes: 0 success, 1 domain negative (equivalence counterexample), 2
usage or config errors; ``forge equiv`` additionally exits 2 for an
inconclusive sampled verdict.  Machine-readable output is JSON everywhere
except submissions and feature matrices (CSV).  Artifact-writing commands
embed a provenance block (tool version, config hash, seed); the benchmark
manifest deliberately omits the seed, which lives in the sealed key only.
The FORGE_SEED environment variable overrides any --seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__
from .aig import export_aiger, to_aig
from .analysis import exact_signal_prob, scoap, signal_prob
from .analytics import (
    FEATURE_NAMES,
    StrategyProfile,
    extract_features,
    ht_space_size,
    pca_fit,
    pca_project,
    scatter_svg,
    seek_simulate,
)
from .equiv import CheckConfig, InterfaceMismatchError, check_equivalence
from .judge import (
    AnswerKey,
    ForgeConfig,
    JudgeError,
    Submission,
    forge_benchmark,
    score_submission,
)
from .netlist import NetlistError, parse_netlist, to_json_dict, write_netlist
from .restructure import RECIPES, RestructureError, apply_recipe, recipe_from_steps
from .trojan import InsertionError, TrojanSpec, insert_trojan


def _seed_from(args):
    env = os.environ.get("FORGE_SEED")
    if env is not None:
        return int(env)
    return getattr(args, "seed", 0) or 0


def _provenance(seed, config_obj):
    blob = json.dumps(config_obj, sort_keys=True, default=str)
    return {"tool": "forge", "version": __version__,
            "config": config_obj,
            "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
            "seed": seed}


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _load_netlist(path):
    with open(path) as f:
        return parse_netlist(f.read())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args):
    n = _load_netlist(args.file)
    if args.json:
        _write_json(args.json_out, to_json_dict(n))
    else:
        print(f"{n.name}: {len(n.gates)} gates, {len(n.inputs)} inputs, "
              f"{len(n.outputs)} outputs, {len(n.nets)} nets")
    return 0


def _cmd_aig(args):
    n = _load_netlist(args.file)
    g = to_aig(n)
    text = export_aiger(g)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
    return 0


def _cmd_restructure(args):
    seed = _seed_from(args)
    n = _load_netlist(args.input)
    if args.recipe_file:
        with open(args.recipe_file) as f:
            recipe = recipe_from_steps(json.load(f))
    else:
        if args.recipe not in RECIPES:
            raise ValueError(f"recipe must be 1..18, got {args.recipe}")
        recipe = RECIPES[args.recipe]
    out, reports = apply_recipe(n, recipe, seed=seed,
                                exhaustive_bound=args.exhaustive_bound,
                                sample_vectors=args.vectors)
    with open(args.output, "w") as f:
        f.write(write_netlist(out))
    if args.report:
        _write_json(args.report, {
            "input": args.input, "output": args.output,
            "recipe": recipe.id, "passes": [r.to_dict() for r in reports],
            "provenance": _provenance(seed, {"recipe": recipe.id,
                                             "input": args.input}),
        })
    return 0


def _cmd_insert(args):
    seed = _seed_from(args)
    n = _load_netlist(args.input)
    spec = TrojanSpec(q=args.q, rare_count=args.rare_count,
                      metric=args.metric, threshold=args.threshold,
                      seed=seed, sample_vectors=args.vectors)
    infected, rec = insert_trojan(n, spec)
    with open(args.output, "w") as f:
        f.write(write_netlist(infected))
    if args.record:
        _write_json(args.record, {
            "record": rec.to_json_dict(),
            "provenance": _provenance(seed, {"q": args.q,
                                             "metric": args.metric,
                                             "threshold": args.threshold}),
        })
    return 0


def _cmd_analyze(args):
    seed = _seed_from(args)
    n = _load_netlist(args.file)
    rows = {net: {"net": net} for net in n.nets}
    if args.scoap:
        sc = scoap(n)
        for net in n.nets:
            rows[net].update(cc0=sc.cc0[net], cc1=sc.cc1[net], co=sc.co[net])
    if args.exact or args.sigprob:
        stats = (exact_signal_prob(n) if args.exact
                 else signal_prob(n, args.sigprob, seed))
        for net, tp in stats.tp.items():
            rows[net].update(p=stats.p[net], tp=tp)
    _write_json(args.json_out, {
        "circuit": n.name,
        "nets": [rows[net] for net in n.nets],
        "provenance": _provenance(seed, {"file": args.file,
                                         "sigprob": args.sigprob,
                                         "exact": args.exact,
                                         "scoap": args.scoap}),
    })
    return 0


def _cmd_equiv(args):
    seed = _seed_from(args)
    a = _load_netlist(args.a)
    b = _load_netlist(args.b)
    cfg = CheckConfig(exhaustive_bound=args.exhaustive_bound,
                      sample_vectors=args.vectors, seed=seed)
    verdict = check_equivalence(a, b, cfg)
    _write_json(args.json_out, {
        "mode": verdict.mode, "result": verdict.result,
        "vectors": verdict.vectors,
        "counterexample": verdict.counterexample,
        "provenance": _provenance(seed, {"a": args.a, "b": args.b}),
    })
    if verdict.result == "equivalent":
        return 0
    if verdict.result == "counterexample":
        return 1
    return 2  # sampled, no mismatch found: inconclusive


def _cmd_bench(args):
    with open(args.config) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError("bench config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(ForgeConfig)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ValueError(f"unknown bench config keys {unknown}")
    missing = [k for k, f in fields.items()
               if f.default is dataclasses.MISSING and k not in raw]
    if missing:
        raise ValueError(f"bench config needs keys {missing}")
    entries = raw["golden"]
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and set(e) == {"name", "file"}
            and all(isinstance(v, str) for v in e.values()) for e in entries)):
        raise ValueError('golden must be a list of {"name": ..., "file": ...}')
    base = os.path.dirname(os.path.abspath(args.config))
    raw["golden"] = [(e["name"], _load_netlist(os.path.join(base, e["file"])))
                     for e in entries]
    raw.setdefault("master_seed", _seed_from(args))
    cfg = ForgeConfig(**raw)
    bench, key = forge_benchmark(cfg)
    bench.write_dir(args.output)
    key_path = args.key or os.path.join(
        os.path.dirname(os.path.abspath(args.output.rstrip("/"))),
        f"{cfg.set_name}.key.json")
    with open(key_path, "w") as f:
        f.write(key.to_json_text())
    print(f"forged {len(bench.entries)} variants into {args.output} "
          f"(key: {key_path})")
    return 0


def _cmd_judge(args):
    with open(args.key) as f:
        key = AnswerKey.from_json_text(f.read())
    with open(args.submission) as f:
        sub = Submission.from_csv_text(f.read(), set_name=key.set_name)
    report = score_submission(sub, key, args.alpha, now=args.now)
    _write_json(args.json_out, report.to_dict())
    return 0


def _cmd_features(args):
    paths = []
    for src in args.inputs:
        if os.path.isdir(src):
            cdir = os.path.join(src, "circuits")
            root = cdir if os.path.isdir(cdir) else src
            paths.extend(os.path.join(root, f)
                         for f in sorted(os.listdir(root))
                         if f.endswith(".v"))
        else:
            paths.append(src)
    if not paths:
        raise ValueError("no circuits found")
    rows = []
    for path in paths:
        n = _load_netlist(path)
        vec = extract_features(n)
        rows.append((os.path.splitext(os.path.basename(path))[0], vec))
    with open(args.csv, "w") as f:
        f.write("name," + ",".join(FEATURE_NAMES) + "\n")
        for name, vec in rows:
            f.write(name + "," + ",".join(f"{v:.10g}" for v in vec) + "\n")
    print(f"wrote {len(rows)} feature rows to {args.csv}")
    return 0


def _read_feature_csv(path):
    names, rows = [], []
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[0] != "name":
            raise ValueError("feature CSV must start with a 'name' column")
        for lineno, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            if len(parts) != len(header):
                raise ValueError(f"feature CSV line {lineno}: expected "
                                 f"{len(header) - 1} values, got {len(parts) - 1}")
            names.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return names, rows


def _cmd_pca(args):
    names, x = _read_feature_csv(args.features)
    model = pca_fit(x, args.components)
    coords = pca_project(model, x)
    if args.coords:
        with open(args.coords, "w") as f:
            f.write("name," + ",".join(f"pc{i + 1}"
                                       for i in range(args.components)) + "\n")
            for name, row in zip(names, coords):
                f.write(name + "," + ",".join(f"{v:.10g}" for v in row) + "\n")
    if args.svg:
        flags = [False] * len(names)
        if args.labels:
            with open(args.labels) as f:
                label_map = dict(line.strip().split(",", 1)
                                 for line in f if "," in line)
            flags = [label_map.get(nm, "clean") == "infected" for nm in names]
        svg = scatter_svg(coords, flags, 0, 1)
        if args.components >= 4:
            svg += scatter_svg(coords, flags, 2, 3)
        with open(args.svg, "w") as f:
            f.write(svg)
    print("explained variance: "
          + ", ".join(f"{v:.6g}" for v in model.explained_variance))
    return 0


def _cmd_space(args):
    with open(args.profile) as f:
        raw = json.load(f)
    if not (isinstance(raw, dict) and set(raw) == {"strategies", "max_width"}
            and isinstance(raw["strategies"], list)
            and all(isinstance(s, list) and len(s) == 2
                    for s in raw["strategies"])):
        raise ValueError('profile must be a JSON object {"strategies": '
                         '[[r, g], ...], "max_width": M} of ints')
    profile = StrategyProfile(
        strategies=tuple((s[0], s[1]) for s in raw["strategies"]),
        max_width=raw["max_width"])
    print(ht_space_size(profile))
    return 0


def _cmd_game(args):
    seed = _seed_from(args)
    res = seek_simulate(args.nodes, args.k, trials=args.trials, seed=seed,
                        budget=args.budget)
    _write_json(args.json_out, {
        "mean": res.mean, "trials": res.trials, "n_nodes": res.n_nodes,
        "k": res.k, "budget": res.budget, "k_zero_policy": res.k_zero_policy,
        "histogram": {str(k): v for k, v in res.histogram.items()},
        "provenance": _provenance(seed, {"nodes": args.nodes, "k": args.k}),
    })
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser():
    ap = argparse.ArgumentParser(
        prog="forge",
        description="Forge, restructure, infect, analyze, and judge "
                    "combinational benchmark circuits.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (FORGE_SEED overrides)")

    p = sub.add_parser("parse", help="parse a structural Verilog netlist")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical JSON dump")
    p.add_argument("--json-out", default="-", help="JSON output path")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("aig", help="AIG interoperability")
    p.add_argument("action", choices=["export"])
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-",
                   help="ASCII AIGER output path")
    p.set_defaults(fn=_cmd_aig)

    p = sub.add_parser("restructure",
                       help="apply a function-preserving recipe")
    p.add_argument("input")
    p.add_argument("--recipe", type=int, default=1, help="recipe id 1..18")
    p.add_argument("--recipe-file", help="JSON list of pass steps")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", help="pass-report JSON path")
    p.add_argument("--exhaustive-bound", type=int, default=24)
    p.add_argument("--vectors", type=int, default=100_000)
    add_seed(p)
    p.set_defaults(fn=_cmd_restructure)

    p = sub.add_parser("insert", help="insert a rare-net Trojan")
    p.add_argument("input")
    p.add_argument("--q", type=int, default=2, help="trigger width")
    p.add_argument("--rare-count", type=int, default=None)
    p.add_argument("--metric", default="signal-prob-low")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--vectors", type=int, default=100_000)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--record", help="Trojan record JSON path")
    add_seed(p)
    p.set_defaults(fn=_cmd_insert)

    p = sub.add_parser("analyze", help="SCOAP and signal-probability analysis")
    p.add_argument("file")
    p.add_argument("--scoap", action="store_true")
    p.add_argument("--sigprob", type=int, default=0,
                   help="number of random vectors (0 = skip)")
    p.add_argument("--exact", action="store_true",
                   help="exact probabilities in place of --sigprob "
                        "sampling (PI count <= 24)")
    p.add_argument("--json", dest="json_out", default="-")
    add_seed(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("equiv", help="combinational equivalence check")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--exhaustive-bound", type=int, default=24)
    p.add_argument("--vectors", type=int, default=100_000)
    p.add_argument("--json", dest="json_out", default="-")
    add_seed(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("bench", help="forge an anonymized benchmark set")
    p.add_argument("--config", required=True, help="forge config JSON")
    p.add_argument("-o", "--output", required=True, help="set directory")
    p.add_argument("--key", help="answer-key path "
                                 "(default: <set>.key.json beside the set)")
    add_seed(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("judge", help="score a submission against a key")
    p.add_argument("--key", required=True)
    p.add_argument("--submission", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--now", default=None,
                   help="date for key-expiry checks (YYYY-MM-DD)")
    p.add_argument("--json", dest="json_out", default="-")
    p.set_defaults(fn=_cmd_judge)

    p = sub.add_parser("features", help="extract feature vectors to CSV")
    p.add_argument("inputs", nargs="+",
                   help="benchmark set directories or .v files")
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("pca", help="fit and project principal components")
    p.add_argument("features", help="feature CSV from 'forge features'")
    p.add_argument("--components", type=int, default=4)
    p.add_argument("--coords", help="projected coordinates CSV")
    p.add_argument("--svg", help="scatter SVG (PC1/PC2 and PC3/PC4)")
    p.add_argument("--labels", help="optional name,label CSV for markers")
    p.set_defaults(fn=_cmd_pca)

    p = sub.add_parser("space", help="trigger search-space size")
    p.add_argument("--profile", required=True,
                   help='JSON {"strategies": [[r, g], ...], "max_width": M}')
    p.set_defaults(fn=_cmd_space)

    p = sub.add_parser("game", help="hide-and-seek game simulation")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", dest="json_out", default="-")
    add_seed(p)
    p.set_defaults(fn=_cmd_game)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (NetlistError, InsertionError, JudgeError, InterfaceMismatchError,
            RestructureError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
