"""Forge-and-analyze benchmark of htforge.

From the repository root:

    python3 bench/run.py --workload forge-exhaustive --seed 1 --seconds 25 --trace 0

Each run is one single-threaded process.  It sets up its workload from the
seed, then issues ops one at a time through htforge's public API (closed
loop, one client) in whole rounds, at least three, for about --seconds,
then checks every output against the benchmark's own scalar oracle,
outside the timed region.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
traced and untraced rounds over the same inputs and reports per-layer
metrics from the traced ones.  The last line of standard output is one
JSON object; the lines before it are the same numbers as tables.  Spans and
per-op times are written under bench/out/.

Times are normalized to a reference machine speed: the run keeps timing a
fixed pure-Python loop that shares no code with htforge (calibrate(),
sampled at least every CAL_EVERY_S between ops), and every measured
interval is scaled by CAL_REF_S over the loop's time around it.  On a
shared host the interpreter's speed drifts by tens of percent within a
minute; the scaled times cancel that drift, so runs taken at different
moments compare.  The raw wall-clock rate is printed beside them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import glob
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 3
MIN_ROUNDS = 3             # so a slot's median round time ignores one outlier
OP_TIMEOUT_S = 60          # an op still running then has failed
MEMORY_LIMIT = 2 << 30     # address space; a runaway op fails, not the host
CAL_ITERS = 100_000
CAL_REF_S = 0.02   # calibrate() median on a 2-core VM with Python 3.11
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 1.0


def calibrate():
    """Time a fixed loop of interpreted integer and dict work."""
    t0 = time.perf_counter()
    d, x = {}, 0
    for i in range(CAL_ITERS):
        x = (x + (i & 7)) ^ (i << 3)
        d[i & 255] = x
    return time.perf_counter() - t0


class Speed:
    """Calibration samples over a run; scale() turns a wall-clock interval
    into reference seconds by the median of the samples taken within
    CAL_WINDOW_S of it, and always the ones just before and after it."""

    def __init__(self):
        self.samples = []   # (time taken, calibrate() seconds)

    def sample(self):
        self.samples.append((time.perf_counter(), calibrate()))

    def due(self):
        return time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S

    def scale(self, t0, t1):
        before = [c for t, c in self.samples if t <= t0][-1:]
        after = [c for t, c in self.samples if t >= t1][:1]
        near = [c for t, c in self.samples
                if t0 - CAL_WINDOW_S < t < t1 + CAL_WINDOW_S]
        return (t1 - t0) * CAL_REF_S / statistics.median(before + after + near)


def _load_htforge():
    """Import htforge from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "htforge", "__init__.py")):
        sys.exit(f"bench: htforge sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import htforge
    if not os.path.abspath(htforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported htforge from {htforge.__file__}, not {SRC}")


class OpTimeout(Exception):
    pass


def _op_timeout(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_TIMEOUT_S} s")


class Record:
    __slots__ = ("round", "seed_round", "slot", "op", "t0", "t1", "result",
                 "traced", "seconds")

    def __init__(self, *values):
        for k, v in zip(self.__slots__, values):
            setattr(self, k, v)


def run_loop(wl, seconds, recorder, speed):
    """Closed loop over whole rounds, stopping at the round count whose end
    lies nearest ``seconds``, but not before MIN_ROUNDS.  With a recorder,
    even rounds are traced and each odd round repeats the inputs of the
    traced round before it untraced; rounds then come in pairs, at least
    one pair."""
    records = []
    clock = time.perf_counter
    step = 1 if recorder is None else 2
    speed.sample()
    begin = clock()
    r = 0
    while True:
        traced = recorder is not None and r % 2 == 0
        seed_round = r // step
        if traced:
            recorder.install()
        try:
            for slot, op in enumerate(wl.round(seed_round)):
                if traced:
                    recorder.begin_op(len(records))
                t0 = clock()
                signal.alarm(OP_TIMEOUT_S)
                try:
                    result = wl.run(op, seed_round, slot)
                except Exception as e:   # an op that raises is a failed op
                    result = e
                    e.trace_text = traceback.format_exc()
                finally:
                    signal.alarm(0)
                t1 = clock()
                if traced:
                    recorder.end_op()
                records.append(Record(r, seed_round, slot, op, t0, t1, result,
                                      traced))
                if speed.due():
                    speed.sample()
        finally:
            if traced:
                recorder.uninstall()
        r += 1
        elapsed = clock() - begin
        done = r >= MIN_ROUNDS if recorder is None else r % 2 == 0
        if done and elapsed + elapsed / r * step / 2 >= seconds:
            speed.sample()
            for rec in records:
                rec.seconds = speed.scale(rec.t0, rec.t1)
            return records, elapsed


def check_records(wl, records):
    """Failure messages per record index, and the artifact digest of each
    run of round-0 inputs (traced and untraced runs must agree)."""
    failures = {}
    digests = {}
    for k, rec in enumerate(records):
        if isinstance(rec.result, Exception):
            failures[k] = [rec.result.trace_text.strip().splitlines()[-1]]
            continue
        fails = wl.check(rec.op, rec.seed_round, rec.slot, rec.result)
        if fails:
            failures[k] = fails
        if rec.seed_round == 0:
            h = digests.setdefault(rec.round, hashlib.sha256())
            for text in wl.artifacts(rec.op, rec.result):
                h.update(text.encode())
    return failures, sorted({h.hexdigest() for h in digests.values()})


def _rate(records, keep):
    """Ops per reference second of a median round.

    Each plan slot that ``keep`` selects costs the median of its times over
    the run's rounds, so one retry-heavy op does not swing a run, while
    every golden keeps its share of the round and the rate moves when the
    expensive goldens do.  Per-round ops such as analyze-set's pass op count
    in the time but not in the ops.
    """
    by_slot = {}
    for r in records:
        if keep(r.op):
            by_slot.setdefault(r.slot, (r.op, []))[1].append(r.seconds)
    ops = sum(op.infected is not None for op, _ in by_slot.values())
    return ops / sum(statistics.median(v) for _, v in by_slot.values())


def end_to_end(records, failed, attempted, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (_rate(records, lambda op: True), "1/s"),
        "clean_ops_per_s": (_rate(records, lambda op: op.infected is False),
                            "1/s"),
        "infected_ops_per_s": (_rate(records, lambda op: op.infected is True),
                               "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "htforge", "*.py")):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def per_layer(records, spans):
    """Per-layer metrics per op of the traced rounds; span times are scaled
    to reference seconds by the traced rounds' overall speed."""
    import tracer
    by, sim, tot = tracer.summarize(spans)
    traced = [r for r in records if r.traced]
    n = max(1, sum(1 for r in traced if r.op.infected is not None))
    wall = sum(r.t1 - r.t0 for r in traced)
    t_traced = sum(r.seconds for r in traced)
    t_plain = sum(r.seconds for r in records if not r.traced)
    per_op = t_traced / wall / n if wall else 0.0   # span seconds -> s/op

    def stat(name, key):
        return by.get(name, {}).get(key, 0)

    sp_s = stat("netlist.simulate_packed", "total_s") * n * per_op
    ins_calls = stat("trojan.insert_trojan", "calls")
    m = {
        "equiv.sim_s": (sim.get("equiv", 0.0) * per_op, "s/op"),
        "trojan.sim_s": (sim.get("trojan", 0.0) * per_op, "s/op"),
        "analysis.sim_s": (sim.get("analysis", 0.0) * per_op, "s/op"),
        "netlist.gate_evals": (tot["gate_evals"] / n, "evals/op"),
        "netlist.gate_evals_per_s": (tot["gate_evals"] / sp_s if sp_s else 0.0,
                                     "1/s"),
        "equiv.vectors": (tot["vectors"] / n, "vectors/op"),
        "equiv.exhaustive_frac": (tot["exhaustive"] / tot["verdicts"]
                                  if tot["verdicts"] else 0.0, "frac"),
        "trojan.insert_success_ratio": (
            (ins_calls - stat("trojan.insert_trojan", "failed")) / ins_calls
            if ins_calls else 0.0, "frac"),
        "restructure.and_nodes_removed": (tot["nodes_removed"] / n, "nodes/op"),
    }
    for name in ("equiv.check_equivalence", "trojan.insert_trojan",
                 "netlist.simulate", "restructure.strash",
                 "restructure.balance", "restructure.rewrite",
                 "restructure.refactor", "restructure.resubstitute",
                 "restructure.fraig"):
        m[f"{name}.calls"] = (stat(name, "calls") / n, "1/op")
    for name in ("equiv.check_equivalence", "equiv.check_trojan_semantics",
                 "trojan.insert_trojan", "netlist.simulate",
                 "restructure.strash", "restructure.balance",
                 "restructure.rewrite", "restructure.refactor",
                 "restructure.resubstitute", "restructure.fraig",
                 "restructure.apply_recipe", "aig.to_aig", "aig.from_aig",
                 "analysis.signal_prob", "analysis.scoap",
                 "analytics.extract_features", "analytics.pca_fit",
                 "netlist.parse_netlist", "netlist.write_netlist",
                 "judge.forge_benchmark", "judge.score_submission"):
        m[f"{name}.self_s"] = (stat(name, "self_s") * per_op, "s/op")
    m["trace.overhead_frac"] = (t_traced / t_plain - 1.0 if t_plain else 0.0,
                                "frac")
    m["src.lines"] = (src_lines(), "lines")
    shares = {name: (s["self_s"] / wall if wall else 0.0, s["calls"])
              for name, s in by.items()}
    return m, shares


def _print_table(title, rows):
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, _op_timeout)
    speed = Speed()
    speed.sample()
    _load_htforge()
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r} "
                 f"(choose from {sorted(workloads.WORKLOADS)})")
    t_import = time.perf_counter()
    speed.sample()
    import_s = speed.scale(START, t_import)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload]().setup(args.seed)
        t1 = time.perf_counter()
        speed.sample()
        setups.append(speed.scale(t0, t1))
    setup_s = import_s + statistics.median(setups)

    recorder = tracer.Recorder() if args.trace else None
    records, elapsed = run_loop(wl, args.seconds, recorder, speed)
    failures, digests = check_records(wl, records)
    if len(digests) != 1:
        failures[-1] = ["traced and untraced rounds forged different artifacts"]
    attempted = len(records)
    failed = len(failures)

    ops = [r for r in records if r.op.infected is not None]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {records[-1].round + 1}  ops {len(ops)}  "
          f"timed {elapsed:.3f} s  wall-clock rate {len(ops) / elapsed:.4g}/s")
    cal = sorted(c for _, c in speed.samples)
    print(f"speed: {len(cal)} calibrations, reference/measured min "
          f"{CAL_REF_S / cal[-1]:.3f} median "
          f"{CAL_REF_S / statistics.median(cal):.3f} max {CAL_REF_S / cal[0]:.3f}"
          f"; setup runs {' '.join(f'{s:.3f}' for s in setups)} s + import "
          f"{import_s:.3f} s (reference seconds)")
    digest = digests[0] if digests else "none (every first-round op failed)"
    print(f"artifact_sha256 {digest}")
    groups = {}
    for r in ops:
        key = (r.op.golden if args.workload != "analyze-set" else "circuit",
               "infected" if r.op.infected else "clean")
        groups.setdefault(key, []).append(r.seconds)
    _print_table("per-golden op times (not metrics): golden kind ops total_s "
                 "mean_s max_s",
                 [(g, k, len(v), f"{sum(v):.3f}", f"{sum(v) / len(v):.4f}",
                   f"{max(v):.4f}") for (g, k), v in sorted(groups.items())])
    if args.workload == "analyze-set":
        ms = sorted(r.seconds * 1e3 for r in ops)
        q = statistics.quantiles(ms, n=100)
        print(f"circuit op latency: p50 {q[49]:.3f} ms  p99 {q[98]:.3f} ms  "
              f"samples {len(ms)} ({len(ms) - int(len(ms) * 0.99)} beyond p99)")
    for k, msgs in sorted(failures.items())[:10]:
        print(f"FAILED op {k}: {'; '.join(msgs)}")
    print(f"failed_frac {failed / attempted}  ({failed} of {attempted})")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, shares = per_layer(records, recorder.spans)
        recorder.write_jsonl(stem + "-spans.jsonl")
        _print_table("per-layer self time share of traced op time: span "
                     "share calls",
                     [(nm, f"{s:.4f}", c) for nm, (s, c) in
                      sorted(shares.items(), key=lambda kv: -kv[1][0])])
        if recorder.absent:
            print(f"absent (not traced): {' '.join(recorder.absent)}")
    else:
        metrics = end_to_end(records, failed, attempted, setup_s)
    _print_table("metrics: name value unit",
                 [(nm, f"{v:.6g}", u) for nm, (v, u) in metrics.items()])
    with open(stem + ".json", "w") as f:
        json.dump({"artifact_sha256": digest, "setup_runs_s": setups,
                   "import_s": import_s,
                   "calibrations": speed.samples,
                   "ops": [{"round": r.round, "slot": r.slot,
                            "golden": r.op.golden, "infected": r.op.infected,
                            "recipe": r.op.recipe, "q": r.op.q,
                            "seconds": r.seconds, "wall_s": r.t1 - r.t0,
                            "traced": r.traced} for r in records],
                   "metrics": metrics}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {nm: {"value": v, "unit": u}
                                  for nm, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
