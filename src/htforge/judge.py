"""Benchmark forging and blind judging.

forge_benchmark() turns golden circuits into an anonymized set of
restructured variants, each infected with probability given by the config
(decided before and independently of the recipe draw, so the recipe leaks
nothing), plus a private answer key whose checksum binds to the public
manifest.  score_submission() is the one judge; it reports per-entry truth
only on or after the key's expiry date.  Release cadence and retirement are
the organizer's process, not the tool's.

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

from . import __version__
# check_equivalence stays bound here; bench/test_bench.py checks its patching
from .equiv import CheckConfig, check_equivalence, check_trojan_semantics  # noqa: F401
from .analysis import RARE_METRICS
from .netlist import EXHAUSTIVE_PIS, Netlist, _check, simulate, write_netlist
from .restructure import RECIPES, _stream_seed, apply_recipe
from .trojan import (InsertionError, InsufficientRareNetsError, TrojanSpec,
                     insert_trojan)

LIFESPAN_YEARS = 3
FORMAT_VERSION = 1
_COUNTS = ("tp", "tn", "fp", "fn")   # ConfusionReport's outcome fields


class JudgeError(Exception):
    pass


def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _iso_date(text, name):
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"{name} must be an ISO date, got {text!r}") from None


def _add_years(d, years):
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
    exhaustive_bound: int = EXHAUSTIVE_PIS
    equiv_vectors: int = 100_000

    def __post_init__(self):
        self.golden = tuple((nm, nl) for nm, nl in self.golden)
        names = [nm for nm, _ in self.golden]
        _check(len(names), "len(golden)", "int", low=1)
        dup = sorted({nm for nm in names if names.count(nm) > 1})
        if dup:
            raise ValueError(f"golden names must be distinct, repeated: {dup}")
        _check(self.nb, "nb", "int", low=1)
        if self.infection_rate is None and self.infected_counts is None:
            raise ValueError("set infection_rate or infected_counts")
        if self.infection_rate is not None and _check(
                self.infection_rate, "infection_rate", "number", low=0) > 1:
            raise ValueError(f"infection_rate must be <= 1, "
                             f"got {self.infection_rate!r}")
        if self.infected_counts is not None:
            for nm, count in _check(self.infected_counts, "infected_counts",
                                    "dict").items():
                _check(nm, "infected_counts key", "str", choices=names)
                _check(count, f"infected_counts[{nm!r}]", "int",
                       choices=range(self.nb + 1))
        for name, low, choices in (("recipe_pool", None, tuple(RECIPES)),
                                   ("trigger_widths", 2, None)):
            value = _check(getattr(self, name), name, "list")
            _check(len(value), f"len({name})", "int", low=1)
            for i, x in enumerate(value):
                _check(x, f"{name}[{i}]", "int", low=low, choices=choices)
            setattr(self, name, value)
        _check(self.metric, "metric", "str", choices=RARE_METRICS)
        _check(self.threshold, "threshold", "number")
        _check(self.sample_vectors, "sample_vectors", "int", low=1)
        _check(self.master_seed, "master_seed", "int")
        _check(self.set_name, "set_name", "str")
        _check(self.release_date, "release_date", "str")
        self.expiry_date = _add_years(
            _iso_date(self.release_date, "release_date"), LIFESPAN_YEARS)
        _check(self.exhaustive_bound, "exhaustive_bound", "int", low=0)
        _check(self.equiv_vectors, "equiv_vectors", "int", low=1)
        if self.set_name in ("", ".", "..") or any(
                c in self.set_name for c in ("/", "\\", "\0")):
            raise ValueError(f"set_name must be a plain file name, "
                             f"got {self.set_name!r}")

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
        """Read a set that write_dir wrote.  A missing or mistyped manifest
        field, an entry whose file is not circuits/<id>.v and a circuit
        whose sha256 is not the manifest's raise JudgeError."""
        try:
            with open(os.path.join(path, "manifest.json")) as f:
                manifest = _check(json.load(f), "manifest", "dict")
            _check(manifest.get("set_name"), "manifest 'set_name'", "str")
            for e in _check(manifest.get("entries"), "manifest 'entries'",
                            "list"):
                _check(e, "manifest entry", "dict")
                for name in ("id", "file", "sha256"):
                    _check(e.get(name), f"manifest entry '{name}'", "str")
        except (ValueError, RecursionError) as e:
            raise JudgeError(str(e)) from e
        entries = []
        for e in manifest["entries"]:
            eid = e["id"]
            if e["file"] != f"{eid}.v" or os.path.basename(eid) != eid:
                raise JudgeError(f"manifest entry '{eid}' names file "
                                 f"{e['file']!r}, not circuits/<id>.v")
            with open(os.path.join(path, "circuits", e["file"])) as f:
                text = f.read()
            if _sha256_text(text) != e["sha256"]:
                raise JudgeError(f"circuit '{eid}' does not match its "
                                 "manifest sha256")
            entries.append((eid, text))
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
        """Parse a key; text that is not JSON, or JSON nested too deeply,
        and a missing, mistyped or non-ISO-date field raise JudgeError."""
        try:
            d = _check(json.loads(text), "answer key", "dict")
            for name, kind in (("set_name", "str"), ("manifest_sha256", "str"),
                               ("master_seed", "int"), ("release_date", "str"),
                               ("expiry_date", "str"), ("entries", "dict")):
                _check(d.get(name), f"answer key '{name}'", kind)
            for name in ("release_date", "expiry_date"):
                _iso_date(d[name], f"answer key '{name}'")
            for eid, e in d["entries"].items():
                entry = f"answer key entry '{eid}'"
                _check(e, entry, "dict")
                _check(e.get("golden"), f"{entry}: 'golden'", "str")
                _check(e.get("k"), f"{entry}: 'k'", "int", choices=(0, 1))
        except (ValueError, RecursionError) as e:
            raise JudgeError(str(e)) from e
        return AnswerKey(d["set_name"], d["manifest_sha256"], d["master_seed"],
                         d["release_date"], d["expiry_date"], d["entries"],
                         d.get("provenance", {}))

    def expired(self, now: datetime.date):
        return now >= datetime.date.fromisoformat(self.expiry_date)


@dataclass
class Submission:
    verdicts: dict    # opaque id -> "infected" | "clean"

    @staticmethod
    def from_csv_text(text):
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
        return Submission(verdicts)

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
    if _check(alpha, "alpha", "number") <= 0:
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

    provenance = {"tool": "htforge", "version": __version__,
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

    Per-entry truth is included only when ``now`` is on or after expiry.
    A label other than the two verdicts, or a non-ISO ``now``, is an error.
    """
    try:
        confidence_value(0.0, 0.0, alpha)  # checks alpha before scoring
        if now is not None:
            now = _iso_date(str(now), "now")
    except ValueError as e:
        raise JudgeError(str(e)) from e
    ids, got = set(key.entries), set(sub.verdicts)
    if got != ids:
        raise JudgeError(f"submission does not cover the benchmark exactly "
                         f"(missing {sorted(ids - got)[:5]}, "
                         f"unknown {sorted(got - ids)[:5]})")
    per_golden = {}
    per_entry = {}
    for eid, truth in key.entries.items():
        label = sub.verdicts[eid]
        if label not in ("infected", "clean"):
            raise JudgeError(f"verdict for id {eid} must be 'infected' or "
                             f"'clean', got {label!r}")
        k = truth["k"]
        if label == "infected":
            outcome = "TP" if k == 1 else "FP"
        else:
            outcome = "FN" if k == 1 else "TN"
        slot = per_golden.setdefault(truth["golden"], dict.fromkeys(_COUNTS, 0))
        slot[outcome.lower()] += 1
        per_entry[eid] = {"k": k, "label": label, "outcome": outcome}
    report = ConfusionReport(*(sum(s[o] for s in per_golden.values())
                               for o in _COUNTS), float(alpha), per_golden)
    if now is not None and key.expired(now):
        report.per_entry = per_entry
    return report
