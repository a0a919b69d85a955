import itertools
import random

import pytest

from htforge.netlist import (
    CONST0,
    CONST1,
    Gate,
    Netlist,
    NetlistError,
    ParseError,
    ValidationError,
    decode,
    parse_netlist,
    simulate,
    simulate_packed,
    stimuli,
    to_json_dict,
    tt_var,
    validate,
    write_netlist,
)

from conftest import all_stimuli, brute_eval, random_netlist


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


def test_simulate_packed_kernel_matches_scalar_at_two_widths():
    n = _kernel_netlist()
    patterns, width = next(stimuli(n.inputs))
    assert width == 32
    rng = random.Random(7)
    # bits above the chunk width must be ignored
    dirty = {p: w | rng.getrandbits(64) << width for p, w in patterns.items()}
    for w in (width, 12):
        packed = simulate_packed(n, dirty, w)
        assert set(packed) == set(n.nets)
        for bit in range(w):
            vals = simulate(n, decode(patterns, bit))
            for net in n.nets:
                assert (packed[net] >> bit) & 1 == vals[net], (w, bit, net)
        assert all(v >> w == 0 for v in packed.values())


def test_simulate_packed_rejects_duplicate_inputs():
    n = Netlist("dup", ("a", "b", "a"), ("y",), (Gate("AND", "y", ("a", "b")),))
    with pytest.raises(NetlistError, match="distinct primary inputs"):
        simulate_packed(n, {"a": 1, "b": 1}, 1)


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


def test_stimuli_exhaustive_decodes_every_assignment_once():
    pis = ("a", "b", "c", "d", "e")
    seen = []
    for patterns, width in stimuli(pis, chunk_bits=3):
        assert width == 8
        seen.extend(tuple(decode(patterns, bit).values()) for bit in range(width))
    assert sorted(seen) == sorted(itertools.product((0, 1), repeat=5))


def test_stimuli_random_draw_order():
    pis = ("a", "b", "c")
    got = list(stimuli(pis, vectors=20, seed=5, chunk_bits=3))
    rng = random.Random(5)
    want = []
    for width in (8, 8, 4):
        want.append(({p: rng.getrandbits(width) for p in pis}, width))
    assert got == want
