import hashlib
import itertools
import json
import random
import re
import tracemalloc
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from htforge import netlist
from htforge.judge import ForgeConfig, forge_benchmark
from htforge.netlist import (
    _BEHAVIORAL_KEYWORDS,
    _IDENT_START,
    CHUNK_VARS,
    CONST0,
    CONST1,
    GATE_KINDS,
    GATE_OPS,
    Gate,
    Netlist,
    NetlistError,
    ParseError,
    ValidationError,
    _TOKEN_RE,
    _Parser,
    _emit_ident,
    _lower,
    _tokens,
    decode,
    parse_netlist,
    simulate,
    simulate_packed,
    stimuli,
    sweep,
    to_json_dict,
    tt_var,
    validate,
    write_netlist,
)
from htforge.restructure import RECIPES, apply_recipe

from conftest import (C17, FULL_ADDER, all_stimuli, array_multiplier, brute_eval,
                      random_netlist, rarity_netlist)


def test_parse_two_gate_module():
    n = parse_netlist("""
        module tiny (a, b, y);
          input a, b;
          output y;
          wire w;
          and g1 (w, a, b);
          not g2 (y, w);
        endmodule
    """)
    assert len(n.gates) == 2
    assert n.inputs == ("a", "b")
    assert n.outputs == ("y",)
    assert n.gates[0].kind == "AND"
    assert n.gates[1].kind == "NOT"


def test_parse_rejects_behavioral():
    src = """
        module seq (clk, d, q);
          input clk, d;
          output q;
          always @(posedge clk) q <= d;
        endmodule
    """
    with pytest.raises(ParseError, match="sequential/behavioral construct"):
        parse_netlist(src)


def test_parse_rejects_flipflop_instance():
    src = "module m (c, d, q); input c, d; output q; dff f1 (q, c, d); endmodule"
    with pytest.raises(ParseError, match="sequential/behavioral construct"):
        parse_netlist(src)


def test_parse_full_adder(full_adder):
    assert len(full_adder.gates) == 5
    assert len(full_adder.inputs) == 3
    assert len(full_adder.outputs) == 2
    kinds = sorted(g.kind for g in full_adder.gates)
    assert kinds == ["AND", "AND", "OR", "XOR", "XOR"]


def test_parse_error_is_position_annotated():
    try:
        parse_netlist("module m (a);\n input a\n endmodule")
    except ParseError as e:
        assert e.line == 3
    else:
        pytest.fail("expected ParseError")


def test_parse_multiply_driven_net():
    src = """
        module m (a, b, y);
          input a, b;
          output y;
          and g1 (y, a, b);
          or  g2 (y, a, b);
        endmodule
    """
    with pytest.raises(ValidationError, match="multiple drivers"):
        parse_netlist(src)


def test_parse_undriven_gate_input():
    src = "module m (a, y); input a; output y; wire w; and g (y, a, w); endmodule"
    with pytest.raises(ValidationError, match="not driven"):
        parse_netlist(src)


def test_parse_vector_ports_bit_blast():
    n = parse_netlist("""
        module vec (a, y);
          input [2:0] a;
          output y;
          and g (y, a[0], a[1], a[2]);
        endmodule
    """)
    assert n.inputs == ("a[0]", "a[1]", "a[2]")
    assert n.gates[0].inputs == ("a[0]", "a[1]", "a[2]")


def test_parse_escaped_identifiers_and_constants():
    n = parse_netlist(
        "module m (\\a[3] , y, z);\n"
        "  input \\a[3] ;\n"
        "  output y, z;\n"
        "  buf g1 (y, \\a[3] );\n"
        "  and g2 (z, \\a[3] , 1'b1);\n"
        "endmodule\n")
    assert n.inputs == ("a[3]",)
    assert n.gates[1].inputs == ("a[3]", CONST1)
    vals = simulate(n, {"a[3]": 1})
    assert vals["z"] == 1


HEADER = "module m (a, y);\n  input a;\n  output y;\n"

# Every malformed input pins its exception type, message, line and col.
MALFORMED = [
    pytest.param(HEADER + "  \\\n  buf g (y, a);\nendmodule\n",
                 ParseError, "unexpected token '\\'", 4, 3, id="lone-backslash"),
    pytest.param(HEADER + "  buf g (y, a); // no newline",
                 ParseError, "missing 'endmodule'", 4, 30,
                 id="line-comment-at-eof"),
    pytest.param(HEADER + "  /* never closed\n  buf g (y, a);\nendmodule\n",
                 ParseError, "unexpected token '/'", 4, 3,
                 id="unterminated-block-comment"),
    pytest.param(HEADER + "  buf g (y, a);\n",
                 ParseError, "missing 'endmodule'", 5, 1, id="missing-endmodule"),
    pytest.param(HEADER + "  buf g (y, a);\nendmodule\nmodule n (b); endmodule\n",
                 ParseError, "trailing content after endmodule: 'module'", 6, 1,
                 id="content-after-endmodule"),
    pytest.param("module m (a, b);\n  input a b;\nendmodule\n",
                 ParseError, "expected ',' or ';' in input declaration, found 'b'",
                 2, 11, id="bad-declaration-separator"),
    pytest.param("module m (input [3-0] a, y);\nendmodule\n",
                 ParseError, "unexpected token '-' in port list", 1, 19,
                 id="ranged-port-list-illegal-token"),
    pytest.param("module m (a, b", ParseError, "unexpected token '' in port list",
                 1, 15, id="port-list-never-closed"),
    pytest.param("module m (a)\n  input a;\nendmodule\n",
                 ParseError, "expected ';', found 'input'", 2, 3,
                 id="missing-semicolon-after-header"),
    pytest.param(HEADER + "  buf g (1'b0, a);\nendmodule\n",
                 ParseError, "gate 'g' drives a constant literal", 4, 3,
                 id="gate-drives-constant"),
    pytest.param(HEADER + "  and g (y);\nendmodule\n",
                 ParseError, "gate 'g' needs an output and at least one input", 4, 3,
                 id="gate-with-one-connection"),
    pytest.param(HEADER + "  buf g (y, a);\n  \\endmodule \nendmodule\n",
                 ParseError, "unsupported construct: instance of '\\endmodule' "
                 "(only the eight combinational primitives are allowed)", 5, 3,
                 id="escaped-endmodule"),
    pytest.param(HEADER + "  buf g (\\1'b0 , a);\nendmodule\n",
                 ParseError, "gate 'g' drives a constant literal", 4, 3,
                 id="escaped-constant-driven"),
    pytest.param("module m (c, d, q);\n  input c, d;\n  output q;\n"
                 "  dff f1 (q, c, d);\nendmodule\n",
                 ParseError, "sequential/behavioral construct 'dff' not supported",
                 4, 3, id="dff-instance"),
    pytest.param("module m (c, d, q);\n  input c, d;\n  output q;\n"
                 "  always @(posedge c) q <= d;\nendmodule\n",
                 ParseError, "sequential/behavioral construct 'always' not supported",
                 4, 3, id="always-block"),
    pytest.param(HEADER + "  assign y = a;\nendmodule\n",
                 ParseError, "sequential/behavioral construct 'assign' not supported",
                 4, 3, id="assign"),
    pytest.param(HEADER + "  foo u1 (y, a);\nendmodule\n",
                 ParseError, "unsupported construct: instance of 'foo' (only the "
                 "eight combinational primitives are allowed)", 4, 3,
                 id="unknown-instance"),
    pytest.param("", ParseError, "expected 'module', found 'EOF'", 1, 1,
                 id="empty-source"),
    pytest.param("module", ParseError, "expected ident, found 'EOF'", 1, 7,
                 id="module-keyword-only"),
    pytest.param("module 1x (a); endmodule", ParseError,
                 "expected ident, found '1'", 1, 8, id="module-name-is-a-number"),
    pytest.param("module m (x);\n  input [a:0] x;\nendmodule\n",
                 ParseError, "expected number, found 'a'", 2, 10,
                 id="range-bound-not-a-number"),
    pytest.param(HEADER + "  and g (y, ;\nendmodule\n",
                 ParseError, "expected net name, found ';'", 4, 13,
                 id="connection-not-a-net"),
    pytest.param(HEADER + "  and g (y, a[0, a);\nendmodule\n",
                 ParseError, "expected ']', found ','", 4, 16,
                 id="bit-select-not-closed"),
    pytest.param(HEADER + "  and g (y, a, 1'b01);\nendmodule\n",
                 ParseError, "expected ')', found '1'", 4, 20,
                 id="literal-followed-by-digit"),
    pytest.param(HEADER + "  and g (y, a, 2'b1);\nendmodule\n",
                 ParseError, "expected net name, found '2'", 4, 16,
                 id="sized-literal-other-than-1"),
    pytest.param(HEADER + "  é buf g (y, a);\nendmodule\n",
                 ParseError, "unexpected token 'é'", 4, 3, id="non-ascii-letter"),
    pytest.param("module ٣ (a); endmodule", ParseError,
                 "expected ident, found '٣'", 1, 8, id="unicode-digit-name"),
    pytest.param("module m (x);\n  input [²:0] x;\nendmodule\n",
                 ParseError, "expected number, found '²'", 2, 10,
                 id="superscript-digit-in-range"),
    pytest.param("module m (x);\n  input [" + "9" * 5000 + ":0] x;\nendmodule\n",
                 ParseError, "range bound has more than 9 digits", 2, 10,
                 id="5000-digit-range-bound"),
    pytest.param("module m (x);\n  input [0:65536] x;\nendmodule\n",
                 ParseError, "range [0:65536] is wider than 65536 bits", 2, 10,
                 id="range-wider-than-65536-bits"),
    pytest.param("module m (x, y);\n  input [65535:0] x;\n  output [0:0] y;\n"
                 "endmodule\n",
                 ParseError, "ranges bit-blast more than 65536 names", 3, 16,
                 id="ranges-blasting-more-than-65536-names"),
    pytest.param("module m (a);\r\n\tinput a\r\n\tendmodule\r\n",
                 ParseError, "expected ',' or ';' in input declaration, found "
                 "'endmodule'", 3, 2, id="crlf-and-tabs"),
    pytest.param("module m (a); /* x\ny\n*/ input a; foo u (a); endmodule",
                 ParseError, "unsupported construct: instance of 'foo' (only the "
                 "eight combinational primitives are allowed)", 3, 13,
                 id="block-comment-spanning-lines"),
    pytest.param(HEADER + "  buf g (y, a);\nendmodule   \n\n  x",
                 ParseError, "trailing content after endmodule: 'x'", 7, 3,
                 id="trailing-content-after-blank-lines"),
    pytest.param("module m (a);\x0c\x0b input a;\x0c\n\x0b wire ; endmodule",
                 ParseError, "expected ident, found ';'", 2, 8,
                 id="form-feed-and-vertical-tab"),
    pytest.param(HEADER + "  buf g1 (y, a);\n  not g2 (y, a);\nendmodule\n",
                 ValidationError, "net 'y' has multiple drivers", None, None,
                 id="multiply-driven-net"),
    pytest.param(HEADER + "  and g (y, a, b);\nendmodule\n",
                 ValidationError, "gate input 'b' is not driven", None, None,
                 id="undriven-gate-input"),
    pytest.param(HEADER + "  wire w;\n  and g1 (w, a, y);\n  and g2 (y, a, w);\n"
                 "endmodule\n",
                 ValidationError, "combinational cycle through nets ['w', 'y']",
                 None, None, id="combinational-cycle"),
]


@pytest.mark.parametrize("src, exc, message, line, col", MALFORMED)
def test_parse_error_table(src, exc, message, line, col):
    with pytest.raises(NetlistError) as info:
        parse_netlist(src)
    e = info.value
    if line is not None:
        message = f"{message} (line {line}, col {col})"
    assert (type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)) \
        == (exc, message, line, col)


def test_eleven_digit_range_bound_fails_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_netlist("module m (a); input [99999999999:0] a; endmodule")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == \
        "range bound has more than 9 digits (line 1, col 22)"
    assert peak < 1 << 20


def test_range_of_65536_bits_parses():
    n = parse_netlist("module m (x, y);\n  input [65535:0] x;\n  output y;\n"
                      "  buf g (y, x[65535]);\nendmodule\n")
    assert (len(n.inputs), n.inputs[0], n.inputs[-1]) == (65536, "x[0]", "x[65535]")


def test_short_text_blasting_many_wide_ranges_fails_fast():
    # eight names under one widest range would bit-blast 524,288 PIs from
    # 100 characters; the module-wide cap stops at the second name
    names = ", ".join(f"a{k}" for k in range(8))
    text = f"module m ({names}); input [65535:0] {names}; endmodule"
    assert len(text) == 100
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_netlist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == \
        "ranges bit-blast more than 65536 names (line 1, col 64)"
    assert peak < 8 << 20


def test_escaped_identifier_is_an_ident_never_a_keyword():
    # an escaped name keeps its backslash until it is taken as a name, so
    # ``\\input`` starts an instance statement, not a declaration
    with pytest.raises(ParseError) as info:
        parse_netlist("module m (a, \\7 , y);\n  \\input a, \\7 ;\n  output y;\n"
                      "  and g (y, a, \\7 );\nendmodule\n")
    assert (str(info.value), info.value.line, info.value.col) == (
        "unsupported construct: instance of '\\input' (only the eight "
        "combinational primitives are allowed) (line 2, col 3)", 2, 3)
    n = parse_netlist("module m (a, \\7 , y);\n  input a, \\7 ;\n  output y;\n"
                      "  and \\and (y, a, \\7 );\nendmodule\n")
    assert n.inputs == ("a", "7")
    assert n.gates == (Gate("AND", "y", ("a", "7"), "and"),)


@pytest.mark.parametrize("name", [")", "[", "]", ";", "input", "endmodule", "a[3]"])
def test_write_parse_round_trips_awkward_names(name):
    # the name as module, PI and instance; as a wire; as a PO
    for n in (Netlist(name, (name, "b"), ("y",),
                      (Gate("AND", "y", (name, "b"), name),)),
              Netlist("m", ("a",), ("y",), (Gate("NOT", name, ("a",), "g0"),
                                            Gate("BUF", "y", (name,), "g1"))),
              Netlist("m", ("a", "b"), (name,),
                      (Gate("OR", name, ("a", "b"), "g0"),))):
        back = parse_netlist(write_netlist(n))
        assert (back.name, back.inputs, back.outputs, back.gates) \
            == (n.name, n.inputs, n.outputs, n.gates)


# write_netlist used to escape a name each time it wrote it; that version is
# kept here as the reference, and the one that escapes each net name once
# per call must write the same text
def _ref_write_netlist(n):
    def conn(net):
        return net if net in (CONST0, CONST1) else _emit_ident(net)

    lines = [f"module {_emit_ident(n.name)} ("]
    lines.append("  " + ", ".join(_emit_ident(p) for p in (*n.inputs, *n.outputs)))
    lines.append(");")
    if n.inputs:
        lines.append("  input " + ", ".join(_emit_ident(p) for p in n.inputs) + ";")
    if n.outputs:
        lines.append("  output " + ", ".join(_emit_ident(p) for p in n.outputs) + ";")
    port_set = set(n.inputs) | set(n.outputs)
    wires = [g.output for g in n.gates if g.output not in port_set]
    if wires:
        lines.append("  wire " + ", ".join(_emit_ident(w) for w in wires) + ";")
    for g in n.gates:
        conns = ", ".join(conn(c) for c in (g.output, *g.inputs))
        lines.append(f"  {g.kind.lower()} {_emit_ident(g.name)} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def test_write_netlist_matches_the_reference():
    # escaped names (module, ports, wires, instances), the constants as gate
    # inputs, nets named by a keyword that is escaped ("always") or not
    # ("wire"), a PI named like a constant, and nets read many times
    wide = tuple(f"w{k}" for k in range(20))
    odd = Netlist("my mod", ("a[0]", "always", "wire", "1'b0", "b"),
                  ("y", "z.q", "always_o"), (
        Gate("AND", "t 1", ("a[0]", CONST1, "wire"), "1g"),
        Gate("XOR", "y", ("t 1", CONST0, "1'b0"), "g$y"),
        *(Gate("NAND", w, ("t 1", "always", "b"), f"\\g{k}")
          for k, w in enumerate(wide)),
        Gate("OR", "z.q", wide + ("t 1", "t 1"), "end"),
        Gate("BUF", "always_o", ("always",), "always"),
        Gate("NOT", "begin", (CONST0,), "g_nc")))
    nets = [odd, parse_netlist(FULL_ADDER), parse_netlist(C17),
            rarity_netlist(3, pis_per_branch=4)]
    nets += [random_netlist(s, n_pis=6, n_gates=40) for s in range(4)]
    cfg = ForgeConfig(golden=(("c17", parse_netlist(C17)),), nb=4,
                      infection_rate=0.5, master_seed=3, set_name="w",
                      threshold=0.2, sample_vectors=4096,
                      release_date="2026-03-01")
    nets += [parse_netlist(t) for _, t in forge_benchmark(cfg)[0].entries]
    for n in nets:
        assert write_netlist(n) == _ref_write_netlist(n), n.name
    text = write_netlist(odd)
    # a port named like a constant is escaped where it is declared only
    assert "  input \\a[0] , \\always , wire, \\1'b0 , b;" in text
    assert "  xor g$y (y, \\t 1 , 1'b0, 1'b0);" in text


# sha256 of the parsed forms of every circuit of a small forged set
PARSED_SET_DIGEST = "9f256844c9fc1be5374d68127afa297b6a4862430cbe97e2ca89452808dc5808"


def test_parsed_set_digest_pinned():
    cfg = ForgeConfig(
        golden=(("adder", parse_netlist(FULL_ADDER)), ("c17", parse_netlist(C17)),
                ("r", random_netlist(8300, n_pis=6, n_gates=24, name="r"))),
        nb=4, infection_rate=0.5, master_seed=6, set_name="parse",
        threshold=0.2, sample_vectors=4096, release_date="2026-03-01")
    bench, _ = forge_benchmark(cfg)
    assert len(bench.entries) == 12
    blob = json.dumps([to_json_dict(parse_netlist(t)) for _, t in bench.entries],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PARSED_SET_DIGEST


# Fuzzing: mutate seed modules by replacing a span with a snippet.  Only the
# two documented errors may escape, and whatever parses must survive
# write_netlist unchanged.
FUZZ_SEEDS = (
    FULL_ADDER,
    C17,
    "// vectors, escapes and constants\nmodule v (a, \\b[1] , y);\n"
    "  input [1:0] a; input \\b[1] ;\n  output [1:0] y; /* two\n bits */\n"
    "  and (y[0], a[0], \\b[1] , 1'b1);\n  xnor x1 (y[1], a[1], 1'b0);\n"
    "endmodule\n",
)
SNIPPETS = ("", " ", "\n", ";", ",", "(", ")", "[", "]", ":", "0", "1", "7",
            "1'b0", "1'b1", "2'b1", "'", "\\", "\\esc ", "\\1'b0 ", "\\endmodule ",
            "//", "/*", "*/", "a", "y", "w", "and", "not", "nand", "buf", "wire",
            "input", "output", "module", "endmodule", "dff", "always", "é", "$")
MUTATION = st.tuples(st.integers(0, 400), st.integers(0, 6), st.sampled_from(SNIPPETS))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_SEEDS), st.lists(MUTATION, min_size=1, max_size=4))
def test_fuzzed_parse_raises_only_documented_errors(seed, mutations):
    src = seed
    for pos, cut, snippet in mutations:
        pos %= len(src) + 1
        src = src[:pos] + snippet + src[pos + cut:]
    try:
        n = parse_netlist(src)
    except (ParseError, ValidationError):
        return
    m = parse_netlist(write_netlist(n))
    assert (m.inputs, m.outputs, m.gates) == (n.inputs, n.outputs, n.gates)


# ---------------------------------------------------------------------------
# parser against its reference
#
# _Parser used to read its tokens through one peek/next/expect/ident method
# call per token, with a cursor in self.i.  That version is kept here as the
# reference, with the tokenizer it was written for: the parser that indexes
# the token list must return the same module or raise the same error at the
# same token.

_REF_TOKEN_RE = re.compile(
    r"""(?:\s+|//[^\n]*|/\*.*?\*/)*
        ( \\\S+                    # escaped identifier
        | 1'[bB][01]               # literal
        | \d+                      # number
        | [A-Za-z_][A-Za-z0-9_$]*  # identifier
        | .                        # punctuation or any other character
        | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)


class _RefParser:
    def __init__(self, source):
        self.source = source
        self.toks = _REF_TOKEN_RE.findall(source)
        self.i = 0

    def kind(self, k):
        t = self.toks[k]
        # an escaped identifier keeps its backslash, so it never equals a
        # keyword or punctuation; ident() strips it when the name is taken
        if t[:1] in _IDENT_START or (t[:1] == "\\" and len(t) > 1):
            return "ident"
        if not t:
            return "eof"
        if t[0].isdecimal():
            return "literal" if "'" in t else "number"
        return "other"

    def error(self, message, k):
        """ParseError at token k; only now is the source re-scanned for its
        offset, which gives the line and column."""
        m = next(itertools.islice(_REF_TOKEN_RE.finditer(self.source), k, None))
        pos = m.start(1)
        return ParseError(message, self.source.count("\n", 0, pos) + 1,
                          pos - self.source.rfind("\n", 0, pos))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, text=None, kind=None):
        t = self.next()
        if text is not None and t != text:
            raise self.error(f"expected '{text}', found '{t or 'EOF'}'", self.i - 1)
        if kind is not None and self.kind(self.i - 1) != kind:
            raise self.error(f"expected {kind}, found '{t or 'EOF'}'", self.i - 1)
        return t

    def ident(self):
        """Consume an identifier; an escaped one loses its backslash here."""
        t = self.next()
        if t[:1] in _IDENT_START:
            return t
        if self.kind(self.i - 1) != "ident":
            raise self.error(f"expected ident, found '{t or 'EOF'}'", self.i - 1)
        return t[1:]

    def parse_module(self):
        self.expect(text="module")
        name = self.ident()
        if self.peek() == "(":
            self.next()
            while self.peek() != ")":
                t = self.next()
                # ranged header entries like ``input [3:0] a`` are rare in the
                # supported subset; tolerate brackets and numbers here
                if (self.kind(self.i - 1) not in ("ident", "number")
                        and t not in (",", "[", "]", ":")):
                    raise self.error(f"unexpected token '{t}' in port list",
                                     self.i - 1)
            self.expect(text=")")
        self.expect(text=";")

        inputs, outputs, wires, gates = [], [], [], []
        auto_idx = 0
        while True:
            k = self.i
            t = self.toks[k]
            if not t:
                raise self.error("missing 'endmodule'", k)
            if t == "endmodule":
                self.next()
                break
            if t in ("input", "output", "wire"):
                self.next()
                names = self._decl_names(t)
                target = {"input": inputs, "output": outputs, "wire": wires}[t]
                target.extend(names)
                continue
            if t in _BEHAVIORAL_KEYWORDS:
                raise self.error(
                    f"sequential/behavioral construct '{t}' not supported", k)
            if self.kind(k) == "ident":
                kind = t.upper()
                if kind not in GATE_KINDS:
                    if t.lower() in ("dff", "dffr", "dlatch", "latch", "sdff"):
                        raise self.error(
                            f"sequential/behavioral construct '{t}' not supported", k)
                    raise self.error(
                        f"unsupported construct: instance of '{t}' "
                        "(only the eight combinational primitives are allowed)", k)
                self.next()
                if self.peek() != "(":
                    inst = self.ident()
                else:
                    inst = f"g{auto_idx}"
                    auto_idx += 1
                self.expect(text="(")
                conns = [self._connection()]
                while self.peek() == ",":
                    self.next()
                    conns.append(self._connection())
                self.expect(text=")")
                self.expect(text=";")
                if len(conns) < 2:
                    raise self.error(f"gate '{inst}' needs an output and at least "
                                     "one input", k)
                out, ins = conns[0], tuple(conns[1:])
                if out in (CONST0, CONST1):
                    raise self.error(f"gate '{inst}' drives a constant literal", k)
                gates.append(Gate(kind, out, ins, inst))
                continue
            raise self.error(f"unexpected token '{t}'", k)

        if self.peek():
            raise self.error(f"trailing content after endmodule: '{self.peek()}'",
                             self.i)
        return name, inputs, outputs, wires, gates

    def _decl_names(self, decl_kind):
        """Parse ``[msb:lsb] a, b, c ;`` and bit-blast ranges (LSB-0)."""
        rng = None
        if self.peek() == "[":
            self.next()
            msb = int(self.expect(kind="number"))
            self.expect(text=":")
            lsb = int(self.expect(kind="number"))
            self.expect(text="]")
            rng = (msb, lsb)
        names = []
        while True:
            ident = self.ident()
            if rng is None:
                names.append(ident)
            else:
                msb, lsb = rng
                lo, hi = min(msb, lsb), max(msb, lsb)
                names.extend(f"{ident}[{i}]" for i in range(lo, hi + 1))
            t = self.next()
            if t == ";":
                return names
            if t != ",":
                raise self.error(f"expected ',' or ';' in {decl_kind} declaration, "
                                 f"found '{t}'", self.i - 1)

    def _connection(self):
        t = self.next()
        kind = self.kind(self.i - 1)
        if kind == "literal":
            return CONST1 if t[-1] == "1" else CONST0
        if kind != "ident":
            raise self.error(f"expected net name, found '{t}'", self.i - 1)
        if t[0] == "\\":
            t = t[1:]
        if self.peek() == "[":
            self.next()
            idx = self.expect(kind="number")
            self.expect(text="]")
            return f"{t}[{idx}]"
        return t


def _parser_corpus(count, seed):
    """``count`` seeded mutations of write_netlist texts: snippets inserted,
    deleted and spliced over spans, one to three times per text."""
    sources = [write_netlist(random_netlist(s, n_pis=4, n_gates=10 + s % 9))
               for s in range(8300, 8306)]
    sources += [write_netlist(parse_netlist(FULL_ADDER)), write_netlist(parse_netlist(C17)),
                write_netlist(Netlist("m", ("a[0]", "b"), ("y",), (
                    Gate("AND", "w", ("a[0]", CONST1), "g0"),
                    Gate("XOR", "y", ("w", "b", CONST0), "endmodule"))))]
    snippets = ("(", ";", "[3:0]", "\\", "1'b0", "//", "/*",
                ")", ",", "[", "]", "0", "a", "\n", "endmodule")
    rng = random.Random(seed)
    corpus = list(sources)
    while len(corpus) < count:
        src = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(src) + 1)
            snippet = rng.choice(snippets)
            op = rng.randrange(3)
            if op == 0:
                src = src[:pos] + snippet + src[pos:]
            elif op == 1:
                at = src.find(snippet, pos)
                if at < 0:
                    at = src.find(snippet)
                cut = len(snippet) if at >= 0 else rng.randint(1, 8)
                at = at if at >= 0 else pos
                src = src[:at] + src[at + cut:]
            else:
                src = src[:pos] + snippet + src[pos + rng.randint(1, 6):]
        corpus.append(src)
    return corpus


def _outcome(parse, src):
    try:
        return parse(src)
    except ParseError as e:
        return (type(e), str(e), e.line, e.col)


def test_parser_matches_the_reference_on_mutated_texts():
    corpus = _parser_corpus(2400, 16)
    kinds = {"ok": 0, "parse": 0, "validation": 0}
    for src in corpus:
        want = _outcome(lambda s: _RefParser(s).parse_module(), src)
        assert _outcome(lambda s: _Parser(s).parse_module(), src) == want, src
        try:
            parse_netlist(src)
            kinds["ok"] += 1
        except ParseError:
            kinds["parse"] += 1
        except ValidationError:
            kinds["validation"] += 1
    # the corpus reaches all three outcomes, not only early header errors
    assert min(kinds.values()) >= 50, kinds


# Pieces of the generated tokenizer inputs: comments closed, unclosed and
# back to back, every kind of blank \s takes (\r, \f, \v, U+00A0, U+3000),
# escaped identifiers and a lone backslash, whole and broken literals,
# Unicode digits and letters, $ and NUL.
_TOKEN_PIECES = (
    "//", "// c\n", "/*", "*/", "/* c */", "/**/", "/*\n*/", "/* a *//* b */",
    "// a\n// b\n", " ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\v", "\xa0",
    "\u3000", "\\", "\\esc", "\\a[1] ", "\\1'b0 ", "1'b", "1'B1", "1'b0",
    "1'b2", "1", "42", "\u0663", "\uff11", "\u00b2", "\xe9", "\u03a9", "\u4e2d",
    "$", "\0", "a", "_x$1", "and", "(", ")", ",", ";", "[", "]", ":", "'", "/",
    "*", "#", ".", "=")


def _token_list(pattern, src):
    return [(m.group(1), m.start(1)) for m in pattern.finditer(src)]


def test_tokenizer_matches_the_reference(acceptance_entries):
    # _TOKEN_RE skips blanks once per token and tries identifiers first;
    # every token and every offset a ParseError reports must stay as
    # _REF_TOKEN_RE gives them
    rng = random.Random(20)
    corpus = [text for _, text in acceptance_entries]
    corpus += ["".join(rng.choices(_TOKEN_PIECES, k=rng.randint(0, 14)))
               for _ in range(20_000)]
    corpus += [src + "//" for src in corpus[-200:]]   # a line comment at EOF
    for src in corpus:
        assert _token_list(_TOKEN_RE, src) == _token_list(_REF_TOKEN_RE, src), src
        assert _tokens(src) == _TOKEN_RE.findall(src), src


class _RegexSplitsNothing:
    """Stands in for _TOKEN_RE: error() may still re-scan with finditer,
    but a source that reaches findall raises."""

    finditer = _TOKEN_RE.finditer

    def findall(self, source):
        raise AssertionError("the regex split the source")


# Pieces of sources that hold only identifiers, (),; and blanks, the
# alphabet _tokens splits with str methods, and of near misses: tokens that
# start with a digit or $, and U+00A0, a blank outside ASCII.
_PLAIN_PIECES = (
    "a", "_x", "n261", "x$1", "Z9_", "and", "module", "(", ")", ",", ";",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
    "\x1e", "\x1f", "0", "42", "9x", "$", "$a", "\xa0")


def test_plain_alphabet_tokens_match_the_regex(monkeypatch):
    rng = random.Random(24)
    corpus = ["", " ", " \t\n\v\f\r\x1c\x1d\x1e\x1f", "a ", "a;", "a; \n",
              "(a,b);", "a\x1fb", "a 0", "(0)", ";$", "a\xa0b", "\xa0"]
    corpus += ["".join(rng.choices(_PLAIN_PIECES, k=rng.randint(0, 16)))
               for _ in range(20_000)]
    monkeypatch.setattr(netlist, "_TOKEN_RE", _RegexSplitsNothing())
    split = {True: 0, False: 0}   # by whether str methods split it
    for src in corpus:
        try:
            got = _tokens(src)
        except AssertionError:   # the regex path, findall itself
            split[False] += 1
            continue
        split[True] += 1
        assert got == _TOKEN_RE.findall(src), src
    assert min(split.values()) > 5000, split


@pytest.mark.parametrize("make", [
    lambda: random_netlist(24, n_pis=20, n_gates=150),
    lambda: rarity_netlist(24),
    lambda: array_multiplier(6)], ids=["random", "rarity", "multiplier"])
def test_written_netlists_are_split_without_the_regex(make, monkeypatch):
    # the writer emits only identifiers, (),; and blanks when no name needs
    # escaping and no connection is a constant; such a text must not fall
    # back to the regex
    n = make()
    text = write_netlist(n)
    monkeypatch.setattr(netlist, "_TOKEN_RE", _RegexSplitsNothing())
    back = parse_netlist(text)
    assert (back.name, back.inputs, back.outputs, back.gates) == \
        (n.name, n.inputs, n.outputs, n.gates)
    # a ParseError still takes its line and column from a finditer re-scan
    bad = text.replace("endmodule", "wire")
    assert _outcome(lambda s: _Parser(s).parse_module(), bad) == \
        _outcome(lambda s: _RefParser(s).parse_module(), bad)


def test_constant_connections_tokenize_as_the_regex_does(acceptance_entries):
    # the writer connects a constant as a standalone 1'b0 or 1'b1; the
    # fuzzed sources of test_fuzz_cli and every acceptance and pinned text
    # with a constant give the regex's tokens
    from test_digests import RECIPE_DIGESTS, _golden
    from test_fuzz_cli import VERILOG_SNIPPETS
    rng = random.Random(29)
    for _ in range(5000):
        src = FULL_ADDER
        for _ in range(rng.randint(1, 4)):
            pos = rng.randint(0, 300) % (len(src) + 1)
            src = (src[:pos] + rng.choice(VERILOG_SNIPPETS)
                   + src[pos + rng.randint(0, 6):])
        assert _tokens(src) == _TOKEN_RE.findall(src), src
    texts = [t for _, t in acceptance_entries if "1'b" in t]
    pinned = [write_netlist(apply_recipe(_golden(name), RECIPES[r], seed=7)[0])
              for name in sorted(RECIPE_DIGESTS) for r in sorted(RECIPES)]
    pinned = [t for t in pinned if "1'b" in t]
    assert (len(texts), len(pinned)) == (8, 14)
    assert ([_tokens(t) for t in texts + pinned]
            == [_TOKEN_RE.findall(t) for t in texts + pinned])


def test_write_round_trip_two_gates():
    n = parse_netlist("""
        module tiny (a, b, y);
          input a, b; output y; wire w;
          and g1 (w, a, b); not g2 (y, w);
        endmodule
    """)
    text = write_netlist(n)
    assert text.count(" and ") == 1 and text.count(" not ") == 1
    m = parse_netlist(text)
    assert [(g.kind, g.output, g.inputs) for g in m.gates] == \
           [(g.kind, g.output, g.inputs) for g in n.gates]
    assert m.inputs == n.inputs and m.outputs == n.outputs


def test_write_buf_only_passthrough():
    n = Netlist("pass", ("a", "b"), ("x", "y"),
                (Gate("BUF", "x", ("a",), "g0"), Gate("BUF", "y", ("b",), "g1")))
    text = write_netlist(n)
    m = parse_netlist(text)
    assert all(g.kind == "BUF" for g in m.gates)
    assert m.inputs == n.inputs and m.outputs == n.outputs


def test_write_round_trip_full_adder(full_adder):
    m = parse_netlist(write_netlist(full_adder))
    assert len(m.gates) == 5
    assert [(g.kind, g.output, g.inputs) for g in m.gates] == \
           [(g.kind, g.output, g.inputs) for g in full_adder.gates]


def test_write_round_trip_random_netlists():
    for seed in range(20):
        n = random_netlist(seed)
        m = parse_netlist(write_netlist(n))
        assert m.inputs == n.inputs
        assert m.outputs == n.outputs
        assert [(g.kind, g.output, g.inputs) for g in m.gates] == \
               [(g.kind, g.output, g.inputs) for g in n.gates]


def test_validate_clean_full_adder(full_adder):
    assert validate(full_adder) == []


def test_validate_self_loop():
    n = Netlist("loop", ("a",), ("y",),
                (Gate("AND", "y", ("a", "y"), "g0"),))
    diags = validate(n)
    assert any(d.code == "cycle" and "y" in d.nets for d in diags)


def test_validate_two_drivers():
    n = Netlist("dd", ("a", "b"), ("y",),
                (Gate("AND", "y", ("a", "b"), "g0"),
                 Gate("OR", "y", ("a", "b"), "g1")))
    assert any(d.code == "multi-driver" for d in validate(n))


def test_validate_undriven_output_is_warning():
    n = Netlist("w", ("a",), ("y", "z"), (Gate("BUF", "y", ("a",), "g0"),))
    diags = validate(n)
    assert [d.severity for d in diags] == ["warning"]


def test_simulate_full_adder(full_adder):
    vals = simulate(full_adder, {"a": 1, "b": 1, "cin": 0})
    assert vals["sum"] == 0 and vals["cout"] == 1
    vals = simulate(full_adder, {"a": 1, "b": 1, "cin": 1})
    assert vals["sum"] == 1 and vals["cout"] == 1


def test_simulate_xor_symmetry():
    n = parse_netlist(
        "module m (a, b, y); input a, b; output y; xor g (y, a, b); endmodule")
    assert simulate(n, {"a": 1, "b": 1})["y"] == 0


def test_simulate_three_input_nand():
    n = parse_netlist(
        "module m (a, b, c, y); input a, b, c; output y;"
        " nand g (y, a, b, c); endmodule")
    assert simulate(n, {"a": 1, "b": 1, "c": 1})["y"] == 0
    for stim in all_stimuli(n):
        if not all(stim.values()):
            assert simulate(n, stim)["y"] == 1


def test_simulate_missing_pi_rejected(full_adder):
    with pytest.raises(NetlistError, match="missing"):
        simulate(full_adder, {"a": 1, "b": 0})


def test_simulate_matches_brute_force_oracle():
    for seed in range(25):
        n = random_netlist(seed * 7 + 1)
        if len(n.inputs) > 10:
            continue
        for stim in all_stimuli(n):
            assert simulate(n, stim) == brute_eval(n, stim)


def test_simulate_packed_agrees_with_scalar():
    for seed in (3, 11, 19):
        n = random_netlist(seed)
        stims = list(all_stimuli(n))
        width = len(stims)
        patterns = {p: 0 for p in n.inputs}
        for row, stim in enumerate(stims):
            for p in n.inputs:
                patterns[p] |= stim[p] << row
        packed = simulate_packed(n, patterns, width)
        for row, stim in enumerate(stims):
            vals = simulate(n, stim)
            for net in n.nets:
                assert (packed[net] >> row) & 1 == vals[net]


def _kernel_netlist():
    """Every gate kind at arities 1-5, constants and a repeated input as
    gate inputs, a PO driven straight by a PI, gates out of topological
    order.  Built directly, so validate()'s arity rule does not apply."""
    srcs = ("a", "b", "c", "d", CONST0, "a", "e", CONST1)
    gates = []
    for kind in ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR"):
        for k in range(1, 6):
            ins = tuple(srcs[(k + j) % len(srcs)] for j in range(k))
            gates.append(Gate(kind, f"{kind.lower()}{k}", ins))
    outs = tuple(g.output for g in gates)
    gates.append(Gate("AND", "rep", ("a", "a")))
    gates.append(Gate("XNOR", "mix", ("rep", "nand3", "nor5")))
    gates.append(Gate("OR", "top", ("mix", "xor4", CONST0)))
    gates.reverse()
    return Netlist("kernel", ("a", "b", "c", "d", "e"),
                   ("top", "b") + outs, tuple(gates))


@pytest.mark.parametrize("keep", [_kernel_netlist().outputs, ["mix"], {"c"},
                                  None],
                         ids=["outputs", "internal", "pi", "all"])
def test_simulate_packed_kernel_matches_scalar_at_two_widths(keep):
    n = _kernel_netlist()
    want = set(n.nets) if keep is None else set(keep)
    truth = [(stim, simulate(n, stim)) for stim in all_stimuli(n)]
    rng = random.Random(7)
    for w in (1 << 14, 1 << 16):
        mask = (1 << w) - 1
        patterns = {p: rng.getrandbits(w) for p in n.inputs}
        # bits above the chunk width must be ignored
        dirty = {p: v | rng.getrandbits(64) << w for p, v in patterns.items()}
        packed = simulate_packed(n, dirty, w, keep=keep)
        assert set(packed) == want
        expect = dict.fromkeys(want, 0)
        for stim, vals in truth:
            rows = mask   # the bits that carry this assignment
            for p, bit in stim.items():
                rows &= patterns[p] if bit else ~patterns[p]
            for net in want:
                if vals[net]:
                    expect[net] |= rows
        assert packed == expect, (w, keep)


def _ref_lower(n, keep):
    """_lower with a list of input registers built per gate: the reference
    its programs must equal, step for step."""
    if len(set(n.inputs)) != len(n.inputs):
        raise NetlistError("simulate_packed needs distinct primary inputs")
    if keep is None:
        keep, gates, last_reader = frozenset(n.nets), n.topo_gates, {}
    elif not keep.issubset(n.nets):
        raise NetlistError("simulate_packed cannot keep undriven nets "
                           f"{sorted(keep.difference(n.nets))}")
    else:
        gates, need, last_reader = [], set(keep), {}
        for g in reversed(n.topo_gates):
            if g.output in need:
                gates.append(g)
                need.update(g.inputs)
                for i in g.inputs:
                    if i not in keep:
                        last_reader.setdefault(i, g)
        gates.reverse()
        last_reader.pop(CONST0, None)
        last_reader.pop(CONST1, None)
    reg = {CONST0: 0, CONST1: 1}
    reg.update((p, k) for k, p in enumerate(n.inputs, 2))
    free = [reg[p] for p in reversed(n.inputs)
            if p not in keep and p not in last_reader]
    loads = tuple([reg[p] for p in n.inputs[CHUNK_VARS:]
                   if p in keep or p in last_reader])
    prologue, rest = gates, ()
    if len(n.inputs) > CHUNK_VARS:
        late = set(n.inputs[CHUNK_VARS:])   # later PIs and the nets they reach
        prologue, rest = [], []
        for g in gates:
            if late.isdisjoint(g.inputs):
                prologue.append(g)
            else:
                rest.append(g)
                late.add(g.output)
                for i in g.inputs:
                    if i not in late:
                        last_reader.pop(i, None)   # read again on every rerun
    size = len(reg)
    steps = []
    for part in (prologue, rest):
        cut = len(steps)   # left where the rest starts
        for g in part:
            op, inv = GATE_OPS[g.kind]
            ins = [reg[i] for i in g.inputs]
            if free:
                out = free.pop()
            else:
                out, size = size, size + 1
            reg[g.output] = out
            if op is None or len(ins) == 1:
                steps += xor, out, ins[0], inv
            else:
                steps += op, out, ins[0], ins[1]
                for b in ins[2:]:
                    steps += op, out, out, b
                if inv:
                    steps += xor, out, out, 1
            if last_reader:
                for i in g.inputs:
                    if last_reader.get(i) is g:
                        del last_reader[i]
                        free.append(reg[i])
    kept = tuple([(net, reg[net]) for net in n.nets if net in keep])
    return size, tuple(steps), cut, kept, loads


def _lowering_netlist(seed, n_pis):
    """Every gate kind, BUF and NOT with one input and the rest with 2-4,
    reading PIs, earlier gates and both constants."""
    rng = random.Random(seed)
    nets = [f"i{k}" for k in range(n_pis)]
    gates = []
    for k in range(6 * n_pis):
        kind = rng.choice(GATE_KINDS)
        arity = 1 if kind in ("BUF", "NOT") else rng.choice((2, 2, 3, 4))
        ins = tuple(rng.choice(nets) if rng.random() > 0.05
                    else rng.choice((CONST0, CONST1)) for _ in range(arity))
        gates.append(Gate(kind, f"w{k}", ins, f"g{k}"))
        nets.append(f"w{k}")
    outs = tuple(rng.sample(nets[n_pis:], 4))
    return Netlist(f"low{seed}", tuple(nets[:n_pis]), outs, tuple(gates))


@pytest.mark.parametrize("n_pis", [3, 12, 17, 24])
def test_lowered_program_matches_the_reference(n_pis):
    progs = []
    for seed in range(6):
        n = _lowering_netlist(100 * n_pis + seed, n_pis)
        rng = random.Random(seed)
        keeps = [None, frozenset(n.outputs),
                 frozenset(rng.sample(n.nets, 5)),
                 frozenset(rng.sample(n.nets, len(n.nets) // 2)),
                 frozenset((*n.inputs[-2:], CONST1, n.outputs[0]))]
        for keep in keeps:
            progs.append(_lower(n, keep))
            assert progs[-1] == _ref_lower(n, keep), (seed, keep)
    # past CHUNK_VARS PIs a program has a prologue (cut > 0) and loads
    assert any(cut and loads for _, _, cut, _, loads in progs) == \
        (n_pis > CHUNK_VARS)
    n = _kernel_netlist()
    for keep in (None, frozenset(n.outputs), frozenset({"mix", "c"})):
        assert _lower(n, keep) == _ref_lower(n, keep), keep


def test_simulate_packed_rejects_duplicate_inputs():
    n = Netlist("dup", ("a", "b", "a"), ("y",), (Gate("AND", "y", ("a", "b")),))
    with pytest.raises(NetlistError, match="distinct primary inputs"):
        simulate_packed(n, {"a": 1, "b": 1}, 1)
    n = Netlist("ok", ("a", "b"), ("y",), (Gate("AND", "y", ("a", "b")),))
    with pytest.raises(NetlistError, match="undriven nets"):
        simulate_packed(n, {"a": 1, "b": 1}, 1, keep=["y", "z"])
    with pytest.raises(NetlistError, match=r"missing primary inputs: \['b'\]"):
        simulate_packed(n, {"a": 1}, 1)


_SPLIT_NETLISTS = {"rand17": lambda: random_netlist(71, n_pis=17, n_gates=90),
                   "rar20": lambda: rarity_netlist(72, pis_per_branch=5),
                   "rand24": lambda: random_netlist(73, n_pis=24, n_gates=120)}


@pytest.mark.parametrize("chunk_bits", [12, 14, 16])
@pytest.mark.parametrize("name", sorted(_SPLIT_NETLISTS))
def test_sweep_state_matches_stateless_simulation_on_every_chunk(name,
                                                                 chunk_bits):
    # an exhaustive sweep reruns only the steps past each program's
    # prologue after its first chunk; chunk_bits sets the width of sampled
    # draws and never that of exhaustive chunks
    n = _SPLIT_NETLISTS[name]()
    inner = [g.output for g in n.gates[3::len(n.gates) // 3]]
    keeps = [frozenset(n.outputs),
             frozenset(n.outputs + (n.inputs[0], n.inputs[-1], *inner)),
             None]
    sims = [(n, keep) for keep in keeps]
    for vectors in (None, 5 << chunk_bits - 1):
        widths = []
        for patterns, width, vals in sweep(sims, vectors, 3, chunk_bits):
            want = [simulate_packed(n, patterns, width, keep=keep)
                    for keep in keeps]
            assert vals == want, (vectors, len(widths))
            widths.append(width)
        if vectors is None:
            assert widths == [1 << CHUNK_VARS] * (
                1 << len(n.inputs) - CHUNK_VARS)
        else:
            assert widths == [1 << chunk_bits] * 2 + [1 << chunk_bits - 1]


def test_sweep_runs_the_prologue_once_per_exhaustive_sweep():
    # a prologue net reads none of the PIs past CHUNK_VARS; its word is the
    # one the first chunk computed, the same object in every chunk
    n = random_netlist(73, n_pis=24, n_gates=120)
    late = set(n.inputs[CHUNK_VARS:])
    for g in n.topo_gates:
        if not late.isdisjoint(g.inputs):
            late.add(g.output)
    prologue = [g.output for g in n.topo_gates if g.output not in late]
    first = None
    chunks = 0
    for patterns, width, (vals,) in sweep([(n, None)]):
        first = first or vals
        assert all(vals[net] is first[net] for net in prologue)
        chunks += 1
        # a stateless call computes every word afresh
        fresh = simulate_packed(n, patterns, width)
        assert all(fresh[net] is not vals[net] for net in prologue
                   if vals[net].bit_length() > 64)
    assert chunks == 256 and len(prologue) > 10
    assert any(first[net].bit_length() > 64 for net in prologue)


def _tt_var_formula(j, m):
    half = 1 << j
    chunk = ((1 << half) - 1) << half
    reps = ((1 << (1 << m)) - 1) // ((1 << 2 * half) - 1)
    return chunk * reps


def test_tt_var_matches_formula_up_to_20_vars():
    for m in range(1, 21):
        for j in range(m):
            assert tt_var(j, m) == _tt_var_formula(j, m), (j, m)


def test_validate_soundness_simulate_never_fails():
    for seed in range(30):
        n = random_netlist(seed)
        if any(d.severity == "error" for d in validate(n)):
            continue
        stim = {p: (seed >> k) & 1 for k, p in enumerate(n.inputs)}
        simulate(n, stim)  # must not raise


def test_json_dump_shape(full_adder):
    d = to_json_dict(full_adder)
    assert d["name"] == "full_adder"
    assert d["inputs"] == ["a", "b", "cin"]
    assert len(d["gates"]) == 5
    assert all({"kind", "name", "output", "inputs"} <= set(g) for g in d["gates"])


def _decode_bit(patterns, bit):
    return {p: (w >> bit) & 1 for p, w in patterns.items()}


def test_stimuli_exhaustive_decodes_every_assignment_once():
    pis = ("a", "b", "c", "d", "e")
    (patterns, width), = stimuli(pis)
    assert width == 32 and list(stimuli(pis, chunk_bits=3)) == [(patterns, 32)]
    got = decode(patterns, (1 << width) - 1, width)
    assert got == [_decode_bit(patterns, bit) for bit in range(width)]
    assert [tuple(a.values()) for a in got] == [
        tuple(reversed(t)) for t in itertools.product((0, 1), repeat=5)]
    # past CHUNK_VARS PIs the later ones count up from chunk to chunk:
    # bit i of chunk c is assignment c * 2^CHUNK_VARS + i
    pis = tuple(f"x{k}" for k in range(CHUNK_VARS + 2))
    chunks = list(stimuli(pis))
    assert list(stimuli(pis, chunk_bits=3)) == chunks
    assert [w for _, w in chunks] == [1 << CHUNK_VARS] * 4
    bits = (0, 5, 4097, (1 << CHUNK_VARS) - 1)
    for c, (patterns, width) in enumerate(chunks):
        got = decode(patterns, sum(1 << b for b in bits), 48)
        assert got == [{p: (c << CHUNK_VARS | b) >> k & 1
                        for k, p in enumerate(pis)} for b in bits]
        assert decode(patterns, 1 << 4097 | 1 << 5, 1) == got[1:2]
    assert decode(patterns, 0, 48) == []


def test_stimuli_random_draw_order():
    pis = ("a", "b", "c")
    got = list(stimuli(pis, vectors=20, seed=5, chunk_bits=3))
    rng = random.Random(5)
    want = []
    for width in (8, 8, 4):
        want.append(({p: rng.getrandbits(width) for p in pis}, width))
    assert got == want


@pytest.mark.parametrize("seed", [None, "7", 1.5])
def test_stimuli_rejects_a_seed_that_is_not_an_int(seed):
    # sampled or exhaustive, the first chunk is never drawn
    for vectors in (100, None):
        with pytest.raises(ValueError, match="seed must be an int"):
            next(stimuli(["a", "b"], vectors, seed=seed))
