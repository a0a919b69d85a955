"""Quantify a benchmark: feature vectors, PCA separability, the size of
the trigger search space, and the hide-and-seek game behind it all.

If infected and clean variants separate in principal-component space, a
classifier will find the Trojans; overlap is what makes a set blind.
"""

from htforge import (
    FEATURE_NAMES,
    ForgeConfig,
    StrategyProfile,
    expected_seek_length,
    extract_features,
    forge_benchmark,
    ht_space_size,
    parse_netlist,
    pca_fit,
    pca_project,
    seek_simulate,
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
    nb=8, infection_rate=0.5, master_seed=99, set_name="pca-demo",
    threshold=0.2, sample_vectors=4096, release_date="2026-03-01")
bench, key = forge_benchmark(cfg)

rows = []
labels = []
for eid, text in bench.entries:
    rows.append(extract_features(parse_netlist(text)))
    labels.append(key.entries[eid]["k"])
print(f"feature matrix: {len(rows)} circuits x {len(rows[0])} features")
print("first five feature names:", ", ".join(FEATURE_NAMES[:5]))

model = pca_fit(rows, 4)
coords = pca_project(model, rows)
total = sum(model.explained_variance) or 1.0
print("\nexplained variance ratio:",
      ", ".join(f"PC{i + 1}={v / total:.2f}"
                for i, v in enumerate(model.explained_variance)))
print("\n  id      PC1      PC2   label")
for (eid, _), c, k in zip(bench.entries, coords, labels):
    mark = "+" if k else "-"
    print(f"  {eid}  {c[0]:7.2f}  {c[1]:7.2f}    {mark}")
print("(+ infected, - clean; overlap means the set resists eyeballing)")

profile = StrategyProfile(strategies=((12, 40), (6, 46)), max_width=4)
print(f"\ntrigger search space for two attacker strategies, width <= 4: "
      f"{ht_space_size(profile):,} candidate triggers")

res = seek_simulate(100, 1, trials=50_000, seed=3)
print(f"\nhide-and-seek, 100 nodes, one hidden object: "
      f"mean L = {res.mean:.2f} (analytic {float(expected_seek_length(100, 1)):.1f})")
res0 = seek_simulate(100, 0, trials=1000, seed=3, budget=100)
print(f"with nothing hidden the seeker still pays the full budget: "
      f"mean L = {res0.mean:.0f}")
