"""Forge a blind benchmark set and judge detector submissions.

Every golden circuit becomes nb anonymized variants; each variant may or
may not carry a Trojan (the per-variant coin is flipped before and
independently of the recipe draw).  The public set reveals nothing; the
sealed key scores submissions into TP/TN/FP/FN and the confidence value
(1 - FP) / (1/alpha + FN).
"""

import random
import tempfile

from htforge import (
    ForgeConfig,
    Submission,
    forge_benchmark,
    judge_window,
    parse_netlist,
    score_submission,
)

ADDER = """
module adder (a, b, cin, sum, cout);
  input a, b, cin; output sum, cout;
  wire t1, t2, t3;
  xor g1 (t1, a, b);  xor g2 (sum, t1, cin);
  and g3 (t2, a, b);  and g4 (t3, t1, cin);
  or  g5 (cout, t2, t3);
endmodule
"""

C17 = """
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7; output N22, N23;
  wire N10, N11, N16, N19;
  nand g10 (N10, N1, N3);  nand g11 (N11, N3, N6);
  nand g16 (N16, N2, N11); nand g19 (N19, N11, N7);
  nand g22 (N22, N10, N16); nand g23 (N23, N16, N19);
endmodule
"""

cfg = ForgeConfig(
    golden=(("adder", parse_netlist(ADDER)), ("c17", parse_netlist(C17))),
    nb=6, infection_rate=0.5, master_seed=2026, set_name="demo-set",
    threshold=0.2, sample_vectors=4096, release_date="2026-03-01")
bench, key = forge_benchmark(cfg)

infected_count = sum(v["k"] for v in key.entries.values())
print(f"forged {len(bench.entries)} anonymized variants "
      f"({infected_count} infected -- the seeker cannot tell which)")
print("public ids:", " ".join(eid for eid, _ in bench.entries))
print("\nfirst public variant (head):")
print("\n".join(bench.entries[0][1].splitlines()[:5]))

with tempfile.TemporaryDirectory() as tmp:
    bench.write_dir(f"{tmp}/demo-set")
    print(f"\nset written under {tmp}/demo-set (manifest + circuits/*.v)")

# a perfect detector, the paranoid detector, and a coin flipper
truth = Submission("demo-set", {eid: "infected" if v["k"] else "clean"
                                for eid, v in key.entries.items()})
paranoid = Submission("demo-set", {eid: "infected" for eid in key.entries})
rng = random.Random(0)
coin = Submission("demo-set", {eid: rng.choice(["infected", "clean"])
                               for eid in key.entries})

print("\nsubmission      TP TN FP FN   FP-rate FN-rate  Conf.Val(alpha=10)")
for name, sub in (("perfect", truth), ("all-infected", paranoid),
                  ("coin-flip", coin)):
    rep = score_submission(sub, key, alpha=10)
    print(f"{name:14s}  {rep.tp:2d} {rep.tn:2d} {rep.fp:2d} {rep.fn:2d}   "
          f"{rep.fp_rate:7.3f} {rep.fn_rate:7.3f}  {rep.conf_val:8.3f}")

sub = Submission("demo-set", dict(truth.verdicts), timestamp="2026-04-12")
outcome = judge_window(sub, key, alpha=10, now="2026-04-20")
print(f"\nmid-month submission -> deferred until {outcome.release_date}")
outcome = judge_window(sub, key, alpha=10, now="2026-05-01")
print(f"at the boundary      -> report released, conf_val "
      f"{outcome.conf_val:.2f}")
print(f"key stays sealed until {key.expiry_date}")
