"""Benchmark forging and blind judging.

forge_benchmark() turns golden circuits into an anonymized set of
restructured variants, each infected with probability given by the config
(decided before and independently of the recipe draw, so the recipe leaks
nothing), plus a sealed answer key whose checksum binds to the public
manifest.  score_submission() reproduces the four confusion outcomes and
the confidence value (1 - FP) / (1/alpha + FN); judge_window() enforces the
monthly release cadence and the three-year retirement.

All randomness is split from the master seed with SHA-256 streams, so a
config maps to byte-identical artifacts on every run.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

# check_equivalence stays bound here; bench/test_bench.py checks its patching
from .equiv import CheckConfig, check_equivalence, check_trojan_semantics  # noqa: F401
from .netlist import Netlist, simulate, write_netlist
from .restructure import RECIPES, _is_int, _stream_seed, apply_recipe
from .trojan import (InsertionError, InsufficientRareNetsError, TrojanSpec,
                     insert_trojan)

LIFESPAN_YEARS = 3
FORMAT_VERSION = 1


class JudgeError(Exception):
    pass


def _tool_version():
    from . import __version__
    return __version__


def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _add_years(iso_date, years):
    d = datetime.date.fromisoformat(iso_date)
    try:
        out = d.replace(year=d.year + years)
    except ValueError:  # Feb 29
        out = d.replace(year=d.year + years, day=28)
    return out.isoformat()


@dataclass
class ForgeConfig:
    golden: tuple                 # ((name, Netlist), ...)
    nb: int
    infection_rate: float = None  # Bernoulli per variant, or:
    infected_counts: dict = None  # golden name -> exact count
    recipe_pool: tuple = tuple(range(1, 19))
    trigger_widths: tuple = (2, 3, 4)
    metric: str = "signal-prob-low"
    threshold: float = 0.05
    sample_vectors: int = 100_000
    master_seed: int = 0
    set_name: str = "set"
    release_date: str = "2026-01-01"
    exhaustive_bound: int = 24
    equiv_vectors: int = 100_000

    def __post_init__(self):
        self.golden = tuple((nm, nl) for nm, nl in self.golden)
        names = [nm for nm, _ in self.golden]
        if not names:
            raise ValueError("golden must list at least one circuit")
        dup = sorted({nm for nm in names if names.count(nm) > 1})
        if dup:
            raise ValueError(f"golden names must be distinct, repeated: {dup}")
        if not _is_int(self.nb) or self.nb < 1:
            raise ValueError(f"nb must be an int >= 1, got {self.nb!r}")
        if self.infection_rate is None and self.infected_counts is None:
            raise ValueError("set infection_rate or infected_counts")
        if self.infection_rate is not None and not (
                isinstance(self.infection_rate, (int, float))
                and 0 <= self.infection_rate <= 1):
            raise ValueError("infection_rate must lie in [0, 1]")
        self.recipe_pool = tuple(self.recipe_pool)
        if not self.recipe_pool or not all(_is_int(r) and r in RECIPES
                                           for r in self.recipe_pool):
            raise ValueError(f"recipe_pool must list recipe ids in "
                             f"{min(RECIPES)}..{max(RECIPES)}, "
                             f"got {list(self.recipe_pool)}")
        self.trigger_widths = tuple(self.trigger_widths)
        if not self.trigger_widths or not all(_is_int(q) and q >= 2
                                              for q in self.trigger_widths):
            raise ValueError(f"trigger_widths must list ints >= 2, "
                             f"got {list(self.trigger_widths)}")
        if self.infected_counts is not None and not (
                isinstance(self.infected_counts, dict)
                and set(self.infected_counts) <= {nm for nm, _ in self.golden}
                and all(_is_int(c) for c in self.infected_counts.values())):
            raise ValueError("infected_counts must map golden names to ints")
        for name, kind in (("threshold", (int, float)), ("sample_vectors", int),
                           ("master_seed", int), ("exhaustive_bound", int),
                           ("equiv_vectors", int), ("metric", str),
                           ("set_name", str), ("release_date", str)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        for name, low in (("sample_vectors", 1), ("equiv_vectors", 1),
                          ("exhaustive_bound", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")

    @property
    def expiry_date(self):
        return _add_years(self.release_date, LIFESPAN_YEARS)

    def fingerprint(self):
        blob = _json_text({
            "golden": [[nm, write_netlist(nl)] for nm, nl in self.golden],
            "nb": self.nb, "infection_rate": self.infection_rate,
            "infected_counts": self.infected_counts,
            "recipe_pool": list(self.recipe_pool),
            "trigger_widths": list(self.trigger_widths),
            "metric": self.metric, "threshold": self.threshold,
            "sample_vectors": self.sample_vectors,
            "master_seed": self.master_seed, "set_name": self.set_name,
            "release_date": self.release_date,
        })
        return _sha256_text(blob)


@dataclass
class BenchmarkSet:
    set_name: str
    entries: tuple   # ((opaque_id, verilog_text), ...) sorted by id
    manifest: dict

    def manifest_text(self):
        return _json_text(self.manifest)

    def write_dir(self, path):
        os.makedirs(os.path.join(path, "circuits"), exist_ok=True)
        for eid, text in self.entries:
            with open(os.path.join(path, "circuits", f"{eid}.v"), "w") as f:
                f.write(text)
        with open(os.path.join(path, "manifest.json"), "w") as f:
            f.write(self.manifest_text())

    @staticmethod
    def load_dir(path):
        with open(os.path.join(path, "manifest.json")) as f:
            manifest = json.load(f)
        entries = []
        for e in manifest["entries"]:
            with open(os.path.join(path, "circuits", e["file"])) as f:
                entries.append((e["id"], f.read()))
        return BenchmarkSet(manifest["set_name"], tuple(entries), manifest)


@dataclass
class AnswerKey:
    set_name: str
    manifest_sha256: str
    master_seed: int
    release_date: str
    expiry_date: str
    entries: dict     # opaque id -> {golden, recipe_id, k, trojan, seeds}
    provenance: dict = field(default_factory=dict)

    def to_json_text(self):
        return _json_text({
            "set_name": self.set_name,
            "manifest_sha256": self.manifest_sha256,
            "master_seed": self.master_seed,
            "release_date": self.release_date,
            "expiry_date": self.expiry_date,
            "entries": self.entries,
            "provenance": self.provenance,
        })

    @staticmethod
    def from_json_text(text):
        d = json.loads(text)
        return AnswerKey(d["set_name"], d["manifest_sha256"], d["master_seed"],
                         d["release_date"], d["expiry_date"], d["entries"],
                         d.get("provenance", {}))

    def expired(self, now):
        return datetime.date.fromisoformat(str(now)) >= \
            datetime.date.fromisoformat(self.expiry_date)


@dataclass
class Submission:
    set_name: str
    verdicts: dict    # opaque id -> "infected" | "clean"
    timestamp: str = ""

    @staticmethod
    def from_csv_text(text, set_name="", timestamp=""):
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].lower().replace(" ", "") != "circuit_id,label":
            raise JudgeError("submission CSV must start with 'circuit_id,label'")
        verdicts = {}
        for ln in lines[1:]:
            parts = [p.strip() for p in ln.split(",")]
            if len(parts) != 2 or parts[1] not in ("infected", "clean"):
                raise JudgeError(f"bad submission row: {ln!r}")
            if parts[0] in verdicts:
                raise JudgeError(f"duplicate verdict for id {parts[0]}")
            verdicts[parts[0]] = parts[1]
        return Submission(set_name, verdicts, timestamp)

    def to_csv_text(self):
        rows = ["circuit_id,label"]
        rows.extend(f"{eid},{label}" for eid, label in sorted(self.verdicts.items()))
        return "\n".join(rows) + "\n"


@dataclass
class ConfusionReport:
    tp: int
    tn: int
    fp: int
    fn: int
    alpha: float
    per_golden: dict = field(default_factory=dict)
    per_entry: dict = None   # populated only once the key has expired

    @property
    def fp_rate(self):
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0

    @property
    def fn_rate(self):
        return self.fn / (self.fn + self.tp) if (self.fn + self.tp) else 0.0

    @property
    def conf_val(self):
        return confidence_value(self.fp_rate, self.fn_rate, self.alpha)

    def to_dict(self):
        d = {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
             "fp_rate": self.fp_rate, "fn_rate": self.fn_rate,
             "alpha": self.alpha, "conf_val": self.conf_val,
             "per_golden": [{"golden": g, **counts}
                            for g, counts in sorted(self.per_golden.items())]}
        if self.per_entry is not None:
            d["per_entry"] = self.per_entry
        return d


def confidence_value(fp_rate, fn_rate, alpha) -> float:
    """(1 - FP) / (1/alpha + FN) with FP/FN as rates in [0, 1]."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (1.0 - fp_rate) / (1.0 / alpha + fn_rate)


# ---------------------------------------------------------------------------
# forging

def forge_benchmark(cfg: ForgeConfig):
    """Produce (BenchmarkSet, AnswerKey); a pure function of the config."""
    variants = []   # _forge_variant tuples, in forging order
    for gname, golden in cfg.golden:
        infected_js = _infection_plan(cfg, gname)
        for j in range(cfg.nb):
            infected = j in infected_js
            recipe_id = _pick_recipe(cfg, gname, j)
            entry = _forge_variant(cfg, gname, golden, j, infected, recipe_id)
            variants.append(entry)

    rng = random.Random(_stream_seed(cfg.master_seed, "anonymize"))
    order = list(range(len(variants)))
    rng.shuffle(order)
    id_width = max(4, len(str(len(variants))))
    assigned = {}
    for slot, var_index in enumerate(order):
        assigned[var_index] = f"b{slot:0{id_width}d}"

    entries = []
    key_entries = {}
    for var_index, (gname, j, k, recipe_id, ports_gates, trojan_rec, seeds) in \
            enumerate(variants):
        eid = assigned[var_index]
        text = write_netlist(Netlist(eid, *ports_gates))
        entries.append((eid, text))
        key_entries[eid] = {
            "golden": gname, "recipe_id": recipe_id, "k": 1 if k else 0,
            "trojan": trojan_rec.to_json_dict() if trojan_rec else None,
            "seeds": seeds,
        }
    entries.sort(key=lambda e: e[0])

    provenance = {"tool": "htforge", "version": _tool_version(),
                  "config_sha256": cfg.fingerprint()}
    manifest = {
        "set_name": cfg.set_name,
        "format_version": FORMAT_VERSION,
        "count": len(entries),
        "release_date": cfg.release_date,
        "expiry_date": cfg.expiry_date,
        "entries": [{"id": eid, "file": f"{eid}.v",
                     "sha256": _sha256_text(text)} for eid, text in entries],
        "provenance": provenance,
    }
    bench = BenchmarkSet(cfg.set_name, tuple(entries), manifest)
    key = AnswerKey(
        set_name=cfg.set_name,
        manifest_sha256=_sha256_text(bench.manifest_text()),
        master_seed=cfg.master_seed,
        release_date=cfg.release_date,
        expiry_date=cfg.expiry_date,
        entries=key_entries,
        provenance=dict(provenance),
    )
    return bench, key


def _infection_plan(cfg, gname):
    if cfg.infected_counts is not None:
        count = cfg.infected_counts.get(gname, 0)
        if not 0 <= count <= cfg.nb:
            raise ValueError(f"infected count for {gname} outside [0, nb]")
        rng = random.Random(_stream_seed(cfg.master_seed, "count-sel", gname))
        return set(rng.sample(range(cfg.nb), count))
    out = set()
    for j in range(cfg.nb):
        rng = random.Random(_stream_seed(cfg.master_seed, "infect", gname, j))
        if rng.random() < cfg.infection_rate:
            out.add(j)
    return out


def _pick_recipe(cfg, gname, j):
    rng = random.Random(_stream_seed(cfg.master_seed, "recipe", gname, j))
    return rng.choice(list(cfg.recipe_pool))


def _forge_variant(cfg, gname, golden, j, infected, recipe_id):
    seeds = {"restructure": _stream_seed(cfg.master_seed, "restr", gname, j)}
    trojan_rec = None
    pre = golden
    if infected:
        spec_rng = random.Random(_stream_seed(cfg.master_seed, "spec", gname, j))
        q = spec_rng.choice(list(cfg.trigger_widths))
        rc = q
        attempts = 0
        while True:
            tseed = _stream_seed(cfg.master_seed, "trojan", gname, j, attempts)
            spec = TrojanSpec(q=q, rare_count=rc, metric=cfg.metric,
                              threshold=cfg.threshold, seed=tseed,
                              sample_vectors=cfg.sample_vectors)
            try:
                pre, trojan_rec = insert_trojan(golden, spec)
                break
            except InsertionError as e:
                attempts += 1
                if isinstance(e, InsufficientRareNetsError) and rc > 0:
                    rc -= 1   # deterministic failure: relax immediately
                elif attempts % 4 == 0 and rc > 0:
                    rc -= 1   # relax the rare-net demand, recorded below
                if attempts >= 24:
                    raise JudgeError(
                        f"could not insert a Trojan into {gname} variant {j}: "
                        f"{e}")
        seeds["trojan"] = tseed
        seeds["attempts"] = attempts
        seeds["rare_count_used"] = rc
        check_cfg = CheckConfig(exhaustive_bound=cfg.exhaustive_bound,
                                sample_vectors=cfg.equiv_vectors,
                                seed=_stream_seed(cfg.master_seed, "check", gname, j))
        sem = check_trojan_semantics(golden, pre, trojan_rec, check_cfg)
        if not sem.ok:
            raise JudgeError(
                f"generation bug: bad Trojan semantics on {gname}/{j}: "
                f"{sem.reason}")
    variant, _reports = apply_recipe(pre, RECIPES[recipe_id],
                                     seed=seeds["restructure"],
                                     exhaustive_bound=cfg.exhaustive_bound,
                                     sample_vectors=cfg.equiv_vectors)
    if infected:
        wit = trojan_rec.witness
        vg = simulate(golden, wit)
        vv = simulate(variant, wit)
        if all(vg[po] == vv[po] for po in golden.outputs):
            raise JudgeError(f"generation bug: witness for {gname}/{j} no "
                             "longer flips an output after restructuring")
    # keep only what emission needs, not the netlist's cached views
    return (gname, j, infected, recipe_id,
            (variant.inputs, variant.outputs, variant.gates), trojan_rec, seeds)


# ---------------------------------------------------------------------------
# judging

def score_submission(sub: Submission, key: AnswerKey, alpha: float,
                     now=None) -> ConfusionReport:
    """Count the four outcomes and the confidence value.

    Per-entry truth is included only when the key has expired.
    """
    if alpha <= 0:
        raise JudgeError("alpha must be positive")
    ids = set(key.entries)
    got = set(sub.verdicts)
    if got != ids:
        missing = sorted(ids - got)[:5]
        extra = sorted(got - ids)[:5]
        raise JudgeError(f"submission does not cover the benchmark exactly "
                         f"(missing {missing}, unknown {extra})")
    tp = tn = fp = fn = 0
    per_golden = {}
    per_entry = {}
    for eid, truth in key.entries.items():
        label = sub.verdicts[eid]
        k = truth["k"]
        g = truth["golden"]
        slot = per_golden.setdefault(g, {"tp": 0, "tn": 0, "fp": 0, "fn": 0})
        if k == 1 and label == "infected":
            tp += 1
            slot["tp"] += 1
            outcome = "TP"
        elif k == 1:
            fn += 1
            slot["fn"] += 1
            outcome = "FN"
        elif label == "infected":
            fp += 1
            slot["fp"] += 1
            outcome = "FP"
        else:
            tn += 1
            slot["tn"] += 1
            outcome = "TN"
        per_entry[eid] = {"k": k, "label": label, "outcome": outcome}
    report = ConfusionReport(tp, tn, fp, fn, float(alpha), per_golden)
    if now is not None and key.expired(now):
        report.per_entry = per_entry
    return report


@dataclass
class DeferredReceipt:
    release_date: str


def _next_month_start(iso_date):
    d = datetime.date.fromisoformat(iso_date)
    if d.month == 12:
        return datetime.date(d.year + 1, 1, 1).isoformat()
    return datetime.date(d.year, d.month + 1, 1).isoformat()


def judge_window(sub: Submission, key: AnswerKey, alpha: float, now: str):
    """Monthly-cadence judging: reports release at month boundaries;
    submissions on or after the key's expiry date are rejected."""
    expiry = key.expiry_date
    sub_date = sub.timestamp or now
    if datetime.date.fromisoformat(str(sub_date)) >= \
            datetime.date.fromisoformat(expiry):
        raise JudgeError("benchmark retired: submissions closed after "
                         f"{expiry}")
    release = _next_month_start(str(sub_date))
    if datetime.date.fromisoformat(str(now)) < \
            datetime.date.fromisoformat(release):
        return DeferredReceipt(release)
    return score_submission(sub, key, alpha, now=now)


def export_answer_key(key: AnswerKey, now) -> str:
    """Public key dump, refused until the benchmark has expired."""
    if not key.expired(now):
        raise JudgeError(f"answer key is sealed until {key.expiry_date}")
    return key.to_json_text()
