"""The benchmark's three workloads.

A workload builds its inputs from the seed in setup(), then yields rounds
of ops; run.py issues the ops one at a time (closed loop, one client) and
times each.  Every round of a workload has the same shape, so a run of any
length sees the same mix and a faster program just completes more rounds.

  forge-exhaustive  acceptance-suite scale: seeded random netlists
                    (12-16 PIs) and rarity netlists (20-24 PIs), 8 of 18
                    ops infected, every verdict exhaustive.  The simulator
                    does most of the work.
  forge-arith       paper-scale functions built in code, above and at the
                    exhaustive bound.  Restructuring does most of the work.
  analyze-set       the analyst and judge side: parse and featurize every
                    circuit of a forged set, PCA and scoring per pass.

An op is one forged variant on the forge workloads, one circuit on
analyze-set.  Clean/infected is the variant's kind, or the circuit's truth
in the answer key.
"""

import hashlib
import random
from typing import NamedTuple

import htforge
import gen
import oracle

ALPHA = 0.5          # judge's alpha for the scored submissions
CHECK_VECTORS = 32   # scalar oracle vectors per forged variant


def derive(*tags):
    """64-bit seed from the workload seed and op coordinates."""
    blob = ":".join(str(t) for t in tags).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class Op(NamedTuple):
    golden: str          # golden name; circuit id on analyze-set
    infected: bool       # None for the per-pass op
    recipe: int = None
    q: int = None        # trigger width of an infected forge op
    text: str = None     # circuit text on analyze-set


class ForgeWorkload:
    """One forge_benchmark call per op: one variant of one golden (nb=1),
    infection, recipe and trigger width pinned by the op, master seed from
    the run seed.

    ``goldens(seed, r)`` gives round r's goldens by name; ``plan`` lists a
    round's ops as (golden, infected, recipe, trigger width).
    """

    def __init__(self, name, goldens, plan):
        self.name, self._goldens, self._plan = name, goldens, plan

    def setup(self, seed):
        self.seed = seed
        self.goldens = {}
        self.round(0)
        return self

    def round(self, r):
        if r not in self.goldens:
            self.goldens[r] = dict(self._goldens(self.seed, r))
        return [Op(*slot) for slot in self._plan]

    def run(self, op, r, slot):
        cfg = htforge.ForgeConfig(
            golden=((op.golden, self.goldens[r][op.golden]),), nb=1,
            infected_counts={op.golden: int(op.infected)},
            recipe_pool=(op.recipe,), trigger_widths=(op.q or 2,),
            master_seed=derive(self.seed, r, slot),
            set_name=f"{self.name}-{r}-{slot}")
        return htforge.forge_benchmark(cfg)

    def check(self, op, r, slot, result):
        bench, key = result
        if len(bench.entries) != 1:
            return ["forge produced more than one variant"]
        eid, text = bench.entries[0]
        return oracle.check_variant(
            self.goldens[r][op.golden], text, key.entries[eid], op.infected,
            op.recipe, CHECK_VECTORS, derive(self.seed, "check", r, slot))

    @staticmethod
    def artifacts(op, result):
        bench, key = result
        return ([bench.manifest_text()] + [t for _, t in bench.entries]
                + [key.to_json_text()])


GOLDEN_POOL = 3


def _exhaustive_goldens(seed, r):
    # Structures come from a fixed pool, one member a round, so runs with
    # different seeds forge the same circuits (the seed drives every master
    # seed); fresh structures per seed swung the rates by 10-15%.
    def s(k):
        return derive("golden", r % GOLDEN_POOL, k)
    return (("rand12", gen.random_netlist(s(0), 12, 120)),
            ("rand14", gen.random_netlist(s(1), 14, 150)),
            ("rand16", gen.random_netlist(s(2), 16, 180)),
            ("rar20", gen.rarity_netlist(s(3), pis_per_branch=5)),
            ("rar24", gen.rarity_netlist(s(4))))


# Every recipe once a round, clean and infected ops interleaved.  Infected
# ops go to the 20-PI rarity netlist, which is built to hold rare trigger
# nets, at trigger widths 3 and 4.  Left out (bench/NOTES.md): width 2 there
# (0.5 s to 3.4 s by seed, against 0.5-0.8 s for widths 3 and 4); infected
# random netlists, where insertion retries make op cost heavy-tailed (0.03 s
# to 17 s); infected 24-PI rarity netlists (2.4 s to 13 s); fraig recipes
# (8, 13, 16, 18) on circuits with rare nets at 20+ PIs, where fraig's
# pairwise proofs take 1-18 s by seed; and resub recipes (6, 9, 15, 16, 17)
# on rarity netlists, where resub can leave a cycle that rebuild() never
# leaves.  The random netlists run those recipes instead.
_EXHAUSTIVE_PLAN = (
    ("rar24", False, 1), ("rar20", True, 2, 3), ("rand12", False, 8),
    ("rar20", True, 3, 4), ("rand14", False, 13), ("rar20", True, 4, 3),
    ("rand16", False, 16), ("rar20", True, 5, 4), ("rand12", False, 18),
    ("rar24", False, 10), ("rar20", True, 7, 3), ("rand14", False, 6),
    ("rar20", True, 11, 4), ("rand16", False, 9), ("rar20", True, 12, 3),
    ("rand12", False, 15), ("rar20", True, 14, 4), ("rand14", False, 17))


def _arith_goldens(seed, r):
    return (("mul8", gen.array_multiplier(8)),
            ("add16", gen.ripple_adder(16)),
            ("mux5", gen.mux_tree(5)),
            ("cmp13", gen.comparator(13)))


# Every recipe once a round on a fixed golden: the refactor-heavy recipes
# go to the multiplier, whose 16 PIs keep its verdicts exhaustive.  Infected
# ops go to the multiplier too, at trigger widths 2 and 3, with recipes
# that do not resubstitute (see forge-exhaustive).  Left out, as too
# wide for a steady rate (bench/NOTES.md): the comparator's cliffs (resub,
# recipes 6 and 9: 0.02 s or 1-3 s by seed; fraig, recipes 8, 13, 16 and 18:
# up to 21 s; trigger search: 6-15 s), trigger search over the adder's 33
# and the mux tree's 37 PIs (1-6 s and 0.5-19 s by seed), and fraig recipes
# on infected variants.
_ARITH_PLAN = (
    ("mul8", False, 4), ("mul8", True, 3, 2), ("cmp13", False, 1),
    ("add16", False, 7), ("mux5", False, 16), ("mul8", False, 5),
    ("mul8", True, 12, 3), ("mul8", False, 9), ("add16", False, 10),
    ("mux5", False, 18), ("mul8", False, 14), ("mul8", True, 11, 2),
    ("add16", False, 13), ("mul8", False, 8), ("cmp13", False, 11),
    ("mul8", False, 15), ("mul8", True, 2, 3), ("mux5", False, 3),
    ("mul8", False, 17), ("add16", False, 2), ("cmp13", False, 12),
    ("add16", False, 6))


class AnalyzeWorkload:
    """Set-up forges a small set; each round is one pass over it.  A circuit
    op parses the circuit text and extracts its features; the pass op that
    ends each round fits and applies PCA and scores one seeded submission."""

    name = "analyze-set"
    # golden -> infected variants of NB.  Set-up runs three times a run, so
    # the set is forged from recipes and a trigger width whose cost hardly
    # depends on the seed: 0.6-0.8 s over eight seeds, against 1.8-3.6 s
    # with every recipe and width drawn.
    INFECTED = {"mul8": 2, "mul6": 0, "mul4": 2, "add8": 0, "mux4": 0,
                "cmp6": 0}
    NB = 4
    RECIPES = (1, 8, 11, 12)
    TRIGGER_WIDTHS = (3,)

    def setup(self, seed):
        self.seed = seed
        nets = {"mul8": gen.array_multiplier(8), "mul6": gen.array_multiplier(6),
                "mul4": gen.array_multiplier(4), "add8": gen.ripple_adder(8),
                "mux4": gen.mux_tree(4), "cmp6": gen.comparator(6)}
        cfg = htforge.ForgeConfig(
            golden=tuple(nets.items()), nb=self.NB,
            infected_counts=self.INFECTED, recipe_pool=self.RECIPES,
            trigger_widths=self.TRIGGER_WIDTHS,
            master_seed=derive(seed, "set"), set_name="analyze-set")
        self.bench, key = htforge.forge_benchmark(cfg)
        self.key_text = key.to_json_text()
        self.truth = {eid: e["k"] == 1 for eid, e in key.entries.items()}
        self.rows = {}
        self.reference = {}
        return self

    def round(self, r):
        ops = [Op(eid, self.truth[eid], text=text)
               for eid, text in self.bench.entries]
        return ops + [Op(None, None)]

    def run(self, op, r, slot):
        if op.golden is not None:
            n = htforge.parse_netlist(op.text)
            self.rows[op.golden] = htforge.extract_features(n)
            return self.rows[op.golden]
        rows = [self.rows[eid] for eid, _ in self.bench.entries]
        model = htforge.pca_fit(rows, 4)
        htforge.pca_project(model, rows)
        rng = random.Random(derive(self.seed, "submission", r))
        verdicts = {eid: rng.choice(("infected", "clean"))
                    for eid, _ in self.bench.entries}
        sub = htforge.Submission.from_csv_text(
            "circuit_id,label\n" + "".join(f"{e},{v}\n"
                                           for e, v in verdicts.items()))
        report = htforge.score_submission(
            sub, htforge.AnswerKey.from_json_text(self.key_text), ALPHA)
        return model, verdicts, report

    def check(self, op, r, slot, result):
        if op.golden is not None:
            ref = self.reference.setdefault(op.golden, list(result))
            return oracle.check_features(list(result), ref)
        model, verdicts, report = result
        return (oracle.check_pca(model)
                + oracle.check_score(report, self.key_text, verdicts, ALPHA))

    def artifacts(self, op, result):
        if op.golden is not None:
            return []
        return ([self.bench.manifest_text()] + [t for _, t in self.bench.entries]
                + [self.key_text])


WORKLOADS = {
    "forge-exhaustive": lambda: ForgeWorkload(
        "forge-exhaustive", _exhaustive_goldens, _EXHAUSTIVE_PLAN),
    "forge-arith": lambda: ForgeWorkload(
        "forge-arith", _arith_goldens, _ARITH_PLAN),
    "analyze-set": AnalyzeWorkload,
}
