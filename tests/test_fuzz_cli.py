"""The CLI contract under generated input: every run of ``forge`` on a
malformed config, recipe, key, submission, feature CSV or Verilog file
returns a documented exit code (0, or 2 for a usage or config error) and
never raises.

Each target starts from a well-formed input and malforms one field at a
time.  Values that are well typed come from small ranges, so an example
forges or restructures the full adder in milliseconds.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from htforge.cli import run

from conftest import FULL_ADDER

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=120)

# a JSON value of any shape: bools where ints belong, NaN and +-inf, and
# nested lists and objects
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.text(max_size=4))
JSON_ANY = st.recursive(
    JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "adder.v").write_text(FULL_ADDER)
    return d


def _run(work, name, text, argv):
    """Write ``text`` to ``work/name`` and run ``forge`` on ``argv``."""
    (work / name).write_text(text)
    code = run([str(a).format(dir=work) for a in argv])
    assert code in (0, 2), (code, text)


def _malform(base, path, value):
    """The JSON text of ``base`` with the item at ``path`` replaced by
    ``value``, or deleted when ``value`` is DELETE; the empty path stands
    for the whole document, whose deletion leaves an empty file, and a
    None path leaves ``base`` as it is."""
    if path is None:
        return json.dumps(base)
    if path == ():
        return "" if value is DELETE else json.dumps(value)
    doc = json.loads(json.dumps(base))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is not DELETE:
        target[last] = value
    elif isinstance(target, list) or last in target:
        del target[last]
    return json.dumps(doc)


DELETE = object()
VALUES = st.integers(0, 3) | JSON_ANY | st.just(DELETE)

BENCH = {"golden": [{"name": "adder", "file": "adder.v"}], "nb": 2,
         "infection_rate": 0.5, "recipe_pool": [1, 2], "trigger_widths": [2],
         "metric": "signal-prob-low", "threshold": 0.3, "sample_vectors": 64,
         "master_seed": 1, "set_name": "s", "release_date": "2026-01-01",
         "exhaustive_bound": 24, "equiv_vectors": 64}
BENCH_PATHS = ([(k,) for k in BENCH] + [None, (), ("infected_counts",), ("bogus",),
               ("golden", 0), ("golden", 0, "name"), ("golden", 0, "file"),
               ("recipe_pool", 0), ("trigger_widths", 0)])


@FUZZ
@given(st.sampled_from(BENCH_PATHS), VALUES)
def test_bench_config_with_one_bad_field(work, path, value):
    _run(work, "cfg.json", _malform(BENCH, path, value),
         ["bench", "--config", "{dir}/cfg.json", "-o", "{dir}/set",
          "--key", "{dir}/set.key.json"])


RECIPE = [{"pass": "balance", "seed": 1},
          {"pass": "rewrite", "params": {"cut_size": 3, "max_cuts": 4}},
          {"pass": "fraig", "params": {"sim_words": 2}, "seed": 2}]
RECIPE_PATHS = [None, (), (0,), (0, "pass"), (0, "seed"), (1, "params"),
                (1, "params", "cut_size"), (1, "params", "max_cuts"),
                (1, "params", "bogus"), (2, "params", "sim_words"), (2, "bogus")]


@FUZZ
@given(st.sampled_from(RECIPE_PATHS), VALUES)
def test_recipe_file_with_one_bad_field(work, path, value):
    _run(work, "recipe.json", _malform(RECIPE, path, value),
         ["restructure", "{dir}/adder.v", "--recipe-file", "{dir}/recipe.json",
          "-o", "{dir}/out.v"])


KEY = {"set_name": "s", "manifest_sha256": "0" * 64, "master_seed": 0,
       "release_date": "2026-01-01", "expiry_date": "2029-01-01",
       "entries": {"b0000": {"golden": "adder", "k": 1},
                   "b0001": {"golden": "adder", "k": 0}}}
KEY_PATHS = ([(k,) for k in KEY] + [None, (), ("provenance",), ("entries", "b0000"),
             ("entries", "b0000", "k"), ("entries", "b0000", "golden"),
             ("entries", "b0002")])
ALPHAS = st.sampled_from(["10", "0.5", "0", "-1", "inf", "-inf", "nan",
                          "1e-320", "1e308"])
NOWS = st.sampled_from([None, "2026-06-01", "2030-01-01", "2026-13-01", "x"])


@FUZZ
@given(st.sampled_from(KEY_PATHS), VALUES, ALPHAS, NOWS)
def test_answer_key_with_one_bad_field(work, path, value, alpha, now):
    (work / "sub.csv").write_text("circuit_id,label\nb0000,infected\n"
                                  "b0001,clean\n")
    _run(work, "key.json", _malform(KEY, path, value),
         ["judge", "--key", "{dir}/key.json", "--submission", "{dir}/sub.csv",
          f"--alpha={alpha}"] + ([] if now is None else ["--now", now]))


SUBMISSION = ["circuit_id,label", "b0000,infected", "b0001,clean"]
CSV_LINES = st.sampled_from(["", " ", "circuit_id,label", "b0000,infected",
                             "b0001,clean", "b0002,clean", "b0000,Infected",
                             "b0000", "b0000,clean,1", ",", "é,clean"])


@FUZZ
@given(st.integers(0, 3), CSV_LINES | st.just(None), ALPHAS)
def test_submission_csv_with_one_bad_line(work, line, text, alpha):
    (work / "key.json").write_text(json.dumps(KEY))
    lines = list(SUBMISSION)
    lines[line:line + 1] = [] if text is None else [text]
    _run(work, "sub.csv", "\n".join(lines) + "\n",
         ["judge", "--key", "{dir}/key.json", "--submission", "{dir}/sub.csv",
          f"--alpha={alpha}"])


FEATURE_CELLS = st.sampled_from(["0", "-2.5", "3e2", "1e308", "-1e308", "nan",
                                 "inf", "-inf", "", "x", "1,2", "name"])


@FUZZ
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=2, max_size=5),
       st.integers(0, 5), st.integers(0, 2), FEATURE_CELLS | st.just(None),
       st.integers(1, 2), st.booleans())
def test_feature_csv_with_one_bad_cell(work, rows, row, col, cell, components,
                                       svg):
    table = [["name", "a", "b"]] + [[f"c{i}", str(x), str(y)]
                                    for i, (x, y) in enumerate(rows)]
    if cell is not None and row < len(table):
        table[row][col] = cell
    _run(work, "features.csv", "\n".join(map(",".join, table)) + "\n",
         ["pca", "{dir}/features.csv", "--components", str(components),
          "--coords", "{dir}/coords.csv"]
         + (["--svg", "{dir}/scatter.svg"] if svg else []))


VERILOG_SNIPPETS = ("", " ", "\n", ";", ",", "(", ")", "[", "]", ":", "0", "7",
                    "[65535:0]", "[65536:0]", "[99999999999:0]", "1'b0", "1'b1",
                    "\\", "\\esc ", "//", "/*", "a", "y", "and", "not", "wire",
                    "input", "output", "module", "endmodule", "always", "é")


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 6),
                          st.sampled_from(VERILOG_SNIPPETS)),
                min_size=1, max_size=4))
def test_verilog_text(work, mutations):
    src = FULL_ADDER
    for pos, cut, snippet in mutations:
        pos %= len(src) + 1
        src = src[:pos] + snippet + src[pos + cut:]
    _run(work, "v.v", src, ["features", "{dir}/v.v", "--csv", "{dir}/v.csv"])
