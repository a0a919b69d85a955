"""Gate-level structural Verilog netlists as immutable circuit DAGs.

The model is deliberately small: a netlist is an ordered set of primary
inputs, primary outputs, and gate instances drawn from the eight-gate
combinational set {BUF, NOT, AND, OR, XOR, NAND, NOR, XNOR}.  Every net is
driven by exactly one gate output or one primary input; the two constant
nets ``1'b0`` and ``1'b1`` are always available.  Vector ports are
bit-blasted at parse time into scalar nets ``name[i]`` with bit 0 the LSB.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import reprlib
import string
from dataclasses import dataclass
from functools import cached_property
from operator import and_, or_, xor
from typing import NamedTuple

GATE_KINDS = ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR")

CONST0 = "1'b0"
CONST1 = "1'b1"

_BEHAVIORAL_KEYWORDS = {
    "always", "initial", "reg", "assign", "posedge", "negedge",
    "if", "else", "case", "begin", "end", "parameter", "integer",
}

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")

CHUNK_VARS = 16  # PIs an exhaustive stimuli() chunk enumerates within it
# most exhaustive chunks an equivalence check sweeps before it proves
# merges first (equiv._unproven); a sweep of more costs more than the proofs
SWEEP_CHUNKS = 16
EXHAUSTIVE_PIS = 24  # most PIs a search or check enumerates in full


class NetlistError(Exception):
    """Base class for netlist construction and parsing failures."""


class ParseError(NetlistError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class ValidationError(NetlistError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


_KINDS = {"int": (int, "an int"), "number": ((int, float), "a finite number"),
          "str": (str, "a str"), "list": ((list, tuple, range), "a list"),
          "dict": (dict, "a dict")}


def _check(value, name, kind, low=None, high=None, choices=None):
    """``value`` if it is of ``kind`` (a key of _KINDS), >= ``low``, <=
    ``high`` and in ``choices`` (when given), else a ValueError naming
    ``name``.  A bool is no int or number, a number is finite, and a list,
    tuple or range comes back as a tuple.  reprlib keeps the message short
    for any value."""
    types, phrase = _KINDS[kind]
    if (not isinstance(value, types) or isinstance(value, bool)
            or isinstance(value, float) and not math.isfinite(value)):
        raise ValueError(f"{name} must be {phrase}, got {reprlib.repr(value)}")
    if kind == "list":
        value = tuple(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {reprlib.repr(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {reprlib.repr(value)}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {choices}, "
                         f"got {reprlib.repr(value)}")
    return value


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    nets: tuple = ()


class Gate(NamedTuple):
    """One gate instance; ``inputs`` must be a tuple of net ids."""

    kind: str
    output: str
    inputs: tuple
    name: str = ""


@dataclass
class Netlist:
    """A combinational circuit.  Treat instances as immutable once built."""

    name: str
    inputs: tuple
    outputs: tuple
    gates: tuple

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.gates = tuple(self.gates)
        self._lowered = {}   # keep set -> simulate_packed program

    @cached_property
    def driver(self):
        """Map net-id -> driving Gate, or None for PIs and constants."""
        d = {CONST0: None, CONST1: None}
        for pi in self.inputs:
            d[pi] = None
        for g in self.gates:
            d[g.output] = g
        return d

    @cached_property
    def nets(self):
        """All driven nets in deterministic order: constants, PIs, gate outputs."""
        seen = [CONST0, CONST1]
        seen.extend(self.inputs)
        seen.extend(g.output for g in self.gates)
        return tuple(dict.fromkeys(seen))

    @cached_property
    def topo_gates(self):
        """Gates in topological order (Kahn).  Raises ValidationError on cycles."""
        by_out = {g.output: g for g in self.gates}
        pending, fanout = {}, {}
        for g in self.gates:
            out = g.output
            c = 0
            for i in g.inputs:
                if i in by_out:
                    c += 1
                    outs = fanout.get(i)
                    if outs is None:
                        fanout[i] = [out]
                    else:
                        outs.append(out)
            pending[out] = c
        ready = [g.output for g in self.gates if not pending[g.output]]
        for out in ready:   # a list iterator also visits what is appended
            for nxt in fanout.get(out, ()):
                c = pending[nxt] - 1
                pending[nxt] = c
                if not c:
                    ready.append(nxt)
        if len(ready) != len(self.gates):
            stuck = sorted(o for o, c in pending.items() if c > 0)
            raise ValidationError([Diagnostic(
                "error", "cycle", f"combinational cycle through nets {stuck}",
                tuple(stuck))])
        return tuple([by_out[out] for out in ready])

    def _program(self, keep=None):
        """The netlist lowered for ``keep`` (a frozenset of nets, or None for
        every net).  Only the last keep set's program stays cached: callers
        loop over chunks with one keep set, and a program kept per set
        would live, one per trigger probe, as long as the netlist."""
        prog = self._lowered.get(keep)
        if prog is None:
            prog = _lower(self, keep)
            self._lowered = {keep: prog}
        return prog

    def depth(self):
        """Logic depth per net (PIs and constants at 0)."""
        lv = {n: 0 for n in self.nets if self.driver[n] is None}
        for g in self.topo_gates:
            d = 0
            for i in g.inputs:
                if lv[i] > d:
                    d = lv[i]
            lv[g.output] = d + 1
        return lv


def _fold(kind, values):
    if kind == "BUF":
        return values[0]
    if kind == "NOT":
        return values[0] ^ 1
    acc = values[0]
    base = {"AND": "AND", "NAND": "AND", "OR": "OR", "NOR": "OR",
            "XOR": "XOR", "XNOR": "XOR"}[kind]
    for v in values[1:]:
        if base == "AND":
            acc &= v
        elif base == "OR":
            acc |= v
        else:
            acc ^= v
    if kind in ("NAND", "NOR", "XNOR"):
        acc ^= 1
    return acc


def simulate(n: Netlist, stimulus: dict) -> dict:
    """Evaluate all nets for one input assignment.

    ``stimulus`` must bind exactly the primary inputs to 0/1.  Multi-input
    gate semantics follow the Verilog primitives: AND/OR/XOR are the n-ary
    fold of the 2-input function, NAND/NOR/XNOR their complements.
    """
    missing = [p for p in n.inputs if p not in stimulus]
    if missing:
        raise NetlistError(f"stimulus missing primary inputs: {missing}")
    extra = set(stimulus) - set(n.inputs)
    if extra:
        raise NetlistError(f"stimulus binds non-input nets: {sorted(extra)}")
    values = {CONST0: 0, CONST1: 1}
    for p in n.inputs:
        values[p] = stimulus[p] & 1
    for g in n.topo_gates:
        values[g.output] = _fold(g.kind, [values[i] for i in g.inputs])
    return values


# gate kind -> (2-input operator, complemented); BUF/NOT read one input.
# Every reader of gate meaning but the oracle _fold goes through this table.
GATE_OPS = {"BUF": (None, 0), "NOT": (None, 1), "AND": (and_, 0),
            "NAND": (and_, 1), "OR": (or_, 0), "NOR": (or_, 1),
            "XOR": (xor, 0), "XNOR": (xor, 1)}


def _lower(n: Netlist, keep):
    """Lower ``n`` into ``(size, steps, cut, kept, loads)`` for simulate_packed.

    Registers hold packed values: register 0 is constant 0, register 1 the
    all-ones mask, then the PIs in order; ``size`` counts them.  Only the
    gates in the fanin of the kept nets (every net when ``keep`` is None)
    get steps, one ``op, out, a, b`` per input pair, all in one flat tuple
    (a third of the memory of a tuple per step).  The steps come as a
    prologue, the gates whose fanin reads no PI past the first CHUNK_VARS
    (the PIs an exhaustive stimuli() chunk varies), then the rest, each in
    topological order; the rest starts at ``steps[cut]``.  Each gate
    output takes a free register; a net outside ``keep`` frees its
    register after its last read, so few wide values are live at once,
    but a prologue net or PI that the rest reads never frees it, so the
    rest can run again on new values of the later PIs alone.  ``loads``
    lists the registers of the later PIs that a rerun must set (the ones
    read or kept).  An n-ary gate folds in its own output register, taken
    before its inputs are freed; complements xor with register 1 and a
    single input is copied by an xor with register 0.  ``kept`` pairs each
    kept net, in ``n.nets`` order, with its register.
    """
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
            ins = g.inputs
            if free:
                out = free.pop()
            else:
                out, size = size, size + 1
            if op is None or len(ins) == 1:
                steps += xor, out, reg[ins[0]], inv
            else:
                steps += op, out, reg[ins[0]], reg[ins[1]]
                for b in ins[2:]:
                    steps += op, out, out, reg[b]
                if inv:
                    steps += xor, out, out, 1
            reg[g.output] = out   # no gate reads its own output
            if last_reader:
                for i in g.inputs:
                    if last_reader.get(i) is g:
                        del last_reader[i]
                        free.append(reg[i])
    kept = tuple([(net, reg[net]) for net in n.nets if net in keep])
    return size, tuple(steps), cut, kept, loads


def simulate_packed(n: Netlist, patterns: dict, width: int, keep=None,
                    _regs=None) -> dict:
    """Bit-parallel simulation: each net carries ``width`` stimuli packed in an int.

    Returns ``{net: value}`` for the nets in ``keep``, or for every net when
    ``keep`` is None.  Only the fanin of the kept nets is evaluated, and a
    net nobody keeps gives its register up after its last read.  The
    program for each keep set is built on first use, then cached on the
    netlist; pass the same frozenset on every call to look it up cheaply.
    A PI missing from ``patterns`` raises NetlistError.  ``_regs`` is
    sweep()'s: a list the first chunk of an exhaustive sweep puts its
    registers in, for later chunks to run only the steps past the prologue.
    """
    size, steps, cut, kept, loads = n._program(
        None if keep is None else frozenset(keep))
    try:
        words = [patterns[p] for p in n.inputs]
    except KeyError:
        missing = [p for p in n.inputs if p not in patterns]
        raise NetlistError(f"patterns missing primary inputs: {missing}") from None
    mask = (1 << width) - 1
    if _regs:
        v = _regs[0]
        for k in loads:
            v[k] = words[k - 2] & mask
        it = itertools.islice(steps, cut, None)
    else:
        v = [0] * size
        v[1] = mask
        for k, w in enumerate(words, 2):
            v[k] = w & mask
        it = iter(steps)
        if _regs is not None and cut < len(steps):   # else one chunk is all
            _regs.append(v)
    for f, o, a, b in zip(it, it, it, it):
        v[o] = f(v[a], v[b])
    return {net: v[r] for net, r in kept}


# the widest truth table tt_var caches its patterns for, synthesis takes
# (restructure._count counts literals in 16-bit fields) and a cone
# truth table proves a merge over (equiv._unproven)
MAX_TT_INPUTS = 16
_TT_VAR_CACHE = {}


def tt_var(j, m):
    """Truth-table pattern of variable j over 2^m rows (bit i = (i>>j)&1)."""
    if m <= MAX_TT_INPUTS:
        hit = _TT_VAR_CACHE.get((j, m))
        if hit is not None:
            return hit
    if j < 3:
        block = (b"\xaa", b"\xcc", b"\xf0")[j]
    else:
        half = 1 << (j - 3)
        block = b"\0" * half + b"\xff" * half
    nbytes = max(1, (1 << m) >> 3)
    out = int.from_bytes(block * (nbytes // len(block)), "little")
    if m < 3:
        out &= (1 << (1 << m)) - 1
    if m <= MAX_TT_INPUTS:
        _TT_VAR_CACHE[(j, m)] = out
    return out


def stimuli(pis, vectors=None, seed=0, chunk_bits=14):
    """Yield ``(patterns, width)`` chunks of packed PI stimuli.

    With ``vectors`` None, chunks of 2^min(len(pis), CHUNK_VARS) enumerate
    all 2^len(pis) assignments: the first CHUNK_VARS PIs vary within a
    chunk (bit i of PI k is ``(i >> k) & 1``), the others count up from
    chunk to chunk, so PI k is bit k of the assignment index.  Otherwise
    ``vectors`` seeded random assignments are drawn, ``getrandbits(width)``
    per PI in ``pis`` order, at most 2^``chunk_bits`` bits a chunk.  A
    ``seed`` that is not an int raises ValueError at the first chunk.
    """
    _check(seed, "seed", "int")
    if vectors is None:
        chunk_vars = min(len(pis), CHUNK_VARS)
        width = 1 << chunk_vars
        mask = (1 << width) - 1
        low = {p: tt_var(k, chunk_vars) for k, p in enumerate(pis[:chunk_vars])}
        for base in range(1 << (len(pis) - chunk_vars)):
            patterns = dict(low)
            for k, p in enumerate(pis[chunk_vars:]):
                patterns[p] = mask if (base >> k) & 1 else 0
            yield patterns, width
        return
    rng = random.Random(seed)
    remaining = vectors
    while remaining > 0:
        width = min(remaining, 1 << chunk_bits)
        remaining -= width
        yield {p: rng.getrandbits(width) for p in pis}, width


def sweep(sims, vectors=None, seed=0, chunk_bits=14):
    """Yield ``(patterns, width, [values per sim])`` for each chunk of
    stimuli(pis, vectors, seed, chunk_bits), simulating every ``(netlist,
    keep)`` of ``sims``; ``pis`` are the first netlist's.  Exhaustive
    chunks share their width and first CHUNK_VARS PI words, so each
    program runs its prologue once, in registers the generator drops.
    """
    regs = [[] if vectors is None else None for _ in sims]
    for patterns, width in stimuli(sims[0][0].inputs, vectors, seed,
                                   chunk_bits):
        yield patterns, width, [
            simulate_packed(n, patterns, width, keep, _regs=r)
            for (n, keep), r in zip(sims, regs)]


def decode(patterns, act, limit):
    """The PI assignments of up to ``limit`` set bits of ``act`` over a
    stimuli() chunk's ``patterns``, lowest first.  A chunk word is
    thousands of bits wide, so one bin() of ``act`` locates the bits and
    one to_bytes() per PI word reads them."""
    s = bin(act)
    bits = []
    k = len(s)
    while len(bits) < limit:
        k = s.rfind("1", 2, k)
        if k < 0:
            break
        bits.append(len(s) - 1 - k)
    if not bits:
        return []
    nbytes = (bits[-1] >> 3) + 1
    low = (1 << 8 * nbytes) - 1
    found = [{} for _ in bits]
    for p, w in patterns.items():
        wb = (w & low).to_bytes(nbytes, "little")
        for row, bit in zip(found, bits):
            row[p] = wb[bit >> 3] >> (bit & 7) & 1
    return found


def trigger_word(vals, trigger, width):
    """Packed word that is 1 where every ``(net, polarity)`` pair holds."""
    if not trigger:
        return (1 << width) - 1
    (net, pol), *rest = trigger
    act = vals[net] if pol else vals[net] ^ (1 << width) - 1
    for net, pol in rest:
        act &= vals[net] if pol else ~vals[net]
    return act


def validate(n: Netlist) -> list:
    """Structural diagnostics; empty list iff all invariants hold.

    Unconnected primary outputs are reported as warnings, everything else
    as errors.
    """
    diags = []
    driven = {CONST0, CONST1}
    driven.update(n.inputs)
    if len(set(n.inputs)) != len(n.inputs):
        diags.append(Diagnostic("error", "dup-input", "duplicate primary input names"))
    for g in n.gates:
        kind, out, ins = g.kind, g.output, g.inputs
        if kind not in GATE_KINDS:
            diags.append(Diagnostic("error", "bad-kind",
                                    f"unknown gate kind '{kind}'", (out,)))
        if kind in ("BUF", "NOT"):
            if len(ins) != 1:
                diags.append(Diagnostic("error", "arity",
                                        f"{kind} gate must have exactly 1 input",
                                        (out,)))
        elif len(ins) < 2:
            diags.append(Diagnostic("error", "arity",
                                    f"{kind} gate needs at least 2 inputs", (out,)))
        if out in driven:  # the constants are driven from the start
            diags.append(Diagnostic("error", "multi-driver",
                                    f"net '{out}' has multiple drivers", (out,)))
            if out in (CONST0, CONST1):
                diags.append(Diagnostic("error", "const-driver",
                                        "gate may not drive a constant net", (out,)))
        driven.add(out)
    for g in n.gates:
        if not driven.issuperset(g.inputs):
            diags.extend(Diagnostic("error", "undriven-input",
                                    f"gate input '{i}' is not driven", (i,))
                         for i in g.inputs if i not in driven)
    for o in n.outputs:
        if o not in driven:
            diags.append(Diagnostic("warning", "undriven-output",
                                    f"primary output '{o}' is not driven", (o,)))
    if not any(d.severity == "error" for d in diags):
        try:
            n.topo_gates
        except ValidationError as e:
            diags.extend(e.diagnostics)
    return diags


# ---------------------------------------------------------------------------
# parsing

# One findall pass: blanks, then (comment, blanks) pairs, are skipped as a
# prefix and the token text is captured; the empty match at the end of the
# source (two of them after trailing whitespace) is EOF.  Only the catch-all
# can also start an identifier or (),;, so trying those first changes no
# token.  A token's kind is read off its text by _Parser.kind.
_TOKEN_RE = re.compile(
    r"""\s*(?:(?://[^\n]*|/\*.*?\*/)\s*)*
        ( [A-Za-z_][A-Za-z0-9_$]*  # identifier
        | [(),;]                   # common punctuation
        | \\\S+                    # escaped identifier
        | 1'[bB][01]               # literal
        | \d+                      # number
        | .                        # other punctuation or any other character
        | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)

_IDENT_START = frozenset(string.ascii_letters + "_")

# Byte classes of an ASCII source for _tokens: "a" for letters and _, "0"
# for digits and $, " " for blanks and (),;, and "!" for every other byte
# (comments, escapes, literals, other punctuation).  Only bytes below 128
# are ever looked up.
_CLASSES = bytes(
    ord("a") if c in _IDENT_START
    else ord("0") if c in string.digits + "$"
    else ord(" ") if c.isspace() or c in "(),;"
    else ord("!") for c in map(chr, range(256)))


def _tokens(source):
    """``_TOKEN_RE.findall(source)``.  An ASCII source with no "!" byte and
    no blank before a digit or $ (which would start a number or a lone $)
    holds only identifiers and (),;, so str methods split it; any other
    source goes through the regex."""
    if source.isascii():
        classes = (" " + source).encode().translate(_CLASSES)
        if b"!" not in classes and b" 0" not in classes:
            text = source
            for p in "(),;":
                text = text.replace(p, f" {p} ")
            toks = text.split()
            # the regex matches EOF once, and again after a trailing blank
            toks += ("", "") if source[-1:].isspace() else ("",)
            return toks
    return _TOKEN_RE.findall(source)


MAX_RANGE_BITS = 65_536   # widest [msb:lsb] range a parse bit-blasts
MAX_BLASTED_BITS = 65_536  # most names all ranges of one module bit-blast


class _Parser:
    """Reads the token list by index: ``k`` is always a token index, and
    every error names the token it was raised at."""

    def __init__(self, source):
        self.source = source
        self.toks = _tokens(source)
        self.blasted = 0  # names bit-blasted from ranges so far

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
        m = next(itertools.islice(_TOKEN_RE.finditer(self.source), k, None))
        pos = m.start(1)
        return ParseError(message, self.source.count("\n", 0, pos) + 1,
                          pos - self.source.rfind("\n", 0, pos))

    def unexpected(self, what, k):
        return self.error(f"expected {what}, found '{self.toks[k] or 'EOF'}'", k)

    def expect(self, k, text=None, kind=None):
        """Token k, which must be ``text`` or of ``kind``."""
        t = self.toks[k]
        if text is not None and t != text:
            raise self.unexpected(f"'{text}'", k)
        if kind is not None and self.kind(k) != kind:
            raise self.unexpected(kind, k)
        return t

    def ident(self, k):
        """Token k as a name; an escaped one loses its backslash here."""
        t = self.toks[k]
        if t[:1] in _IDENT_START:
            return t
        if self.kind(k) != "ident":
            raise self.unexpected("ident", k)
        return t[1:]

    def parse_module(self):
        toks = self.toks
        self.expect(0, text="module")
        name = self.ident(1)
        i = 2
        if toks[i] == "(":
            i += 1
            while toks[i] != ")":
                t = toks[i]
                # ranged header entries like ``input [3:0] a`` are rare in the
                # supported subset; tolerate brackets and numbers here
                if (t[:1] not in _IDENT_START and t not in (",", "[", "]", ":")
                        and self.kind(i) not in ("ident", "number")):
                    raise self.error(f"unexpected token '{t}' in port list", i)
                i += 1
            i += 1
        self.expect(i, text=";")
        i += 1

        inputs, outputs, wires, gates = [], [], [], []
        decls = {"input": inputs, "output": outputs, "wire": wires}
        auto_idx = 0
        while True:
            k = i
            t = toks[k]
            kind = t.upper()
            if kind in GATE_KINDS:
                # kind [inst] ( net {, net} ) ;  where net is a name, a
                # name[number] bit or a 1'b0/1'b1 literal
                i += 1
                t = toks[i]
                if t == "(":
                    inst = f"g{auto_idx}"
                    auto_idx += 1
                else:
                    inst = t if t[:1] in _IDENT_START else self.ident(i)
                    i += 1
                    if toks[i] != "(":
                        raise self.unexpected("'('", i)
                conns = []
                while True:
                    i += 1
                    t = toks[i]
                    if t[:1] in _IDENT_START or (t[:1] == "\\" and len(t) > 1):
                        if t[0] == "\\":
                            t = t[1:]
                        if toks[i + 1] == "[":
                            idx = self.expect(i + 2, kind="number")
                            self.expect(i + 3, text="]")
                            t = f"{t}[{idx}]"
                            i += 3
                        conns.append(t)
                    elif self.kind(i) == "literal":
                        conns.append(CONST1 if t[-1] == "1" else CONST0)
                    else:
                        raise self.error(f"expected net name, found '{t}'", i)
                    i += 1
                    if toks[i] != ",":
                        break
                if toks[i] != ")":
                    raise self.unexpected("')'", i)
                i += 1
                if toks[i] != ";":
                    raise self.unexpected("';'", i)
                i += 1
                if len(conns) < 2:
                    raise self.error(f"gate '{inst}' needs an output and at least "
                                     "one input", k)
                conns = tuple(conns)
                if conns[0] in (CONST0, CONST1):
                    raise self.error(f"gate '{inst}' drives a constant literal", k)
                gates.append(Gate(kind, conns[0], conns[1:], inst))
                continue
            if t == "endmodule":
                i += 1
                break
            target = decls.get(t)
            if target is not None:
                i = self._decl_names(t, i + 1, target)
                continue
            if not t:
                raise self.error("missing 'endmodule'", k)
            if t in _BEHAVIORAL_KEYWORDS:
                raise self.error(
                    f"sequential/behavioral construct '{t}' not supported", k)
            if self.kind(k) == "ident":
                if t.lower() in ("dff", "dffr", "dlatch", "latch", "sdff"):
                    raise self.error(
                        f"sequential/behavioral construct '{t}' not supported", k)
                raise self.error(
                    f"unsupported construct: instance of '{t}' "
                    "(only the eight combinational primitives are allowed)", k)
            raise self.error(f"unexpected token '{t}'", k)

        if toks[i]:
            raise self.error(f"trailing content after endmodule: '{toks[i]}'", i)
        return name, inputs, outputs, wires, gates

    def _bound(self, k):
        """Token k as a range bound of at most 9 digits."""
        t = self.expect(k, kind="number")
        if len(t) > 9:
            raise self.error("range bound has more than 9 digits", k)
        return int(t)

    def _decl_names(self, decl_kind, i, names):
        """Parse ``[msb:lsb] a, b, c ;`` from token i into ``names``,
        bit-blasting ranges (LSB-0); return the index after the ``;``."""
        toks = self.toks
        bits = None
        if toks[i] == "[":
            msb = self._bound(i + 1)
            self.expect(i + 2, text=":")
            lsb = self._bound(i + 3)
            self.expect(i + 4, text="]")
            if abs(msb - lsb) >= MAX_RANGE_BITS:
                raise self.error(f"range [{msb}:{lsb}] is wider than "
                                 f"{MAX_RANGE_BITS} bits", i + 1)
            bits = range(min(msb, lsb), max(msb, lsb) + 1)
            i += 5
        while True:
            t = toks[i]
            if t[:1] not in _IDENT_START:
                t = self.ident(i)
            if bits is None:
                names.append(t)
            else:
                self.blasted += len(bits)
                if self.blasted > MAX_BLASTED_BITS:
                    raise self.error(f"ranges bit-blast more than "
                                     f"{MAX_BLASTED_BITS} names", i)
                names.extend(f"{t}[{b}]" for b in bits)
            t = toks[i + 1]
            i += 2
            if t == ";":
                return i
            if t != ",":
                raise self.error(f"expected ',' or ';' in {decl_kind} declaration, "
                                 f"found '{t}'", i - 1)


def parse_netlist(source: str) -> Netlist:
    """Parse one structural Verilog module into a validated Netlist.

    Rejects anything outside the supported subset (behavioral blocks,
    flip-flops, module hierarchies) with a position-annotated ParseError.
    Semantic violations (multiple drivers, undriven inputs, cycles) raise
    ValidationError.
    """
    name, inputs, outputs, wires, gates = _Parser(source).parse_module()
    n = Netlist(name, tuple(inputs), tuple(outputs), tuple(gates))
    diags = validate(n)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ValidationError(errors)
    return n


# ---------------------------------------------------------------------------
# writing

def _emit_ident(name):
    if _PLAIN_IDENT.match(name) and name not in _BEHAVIORAL_KEYWORDS:
        return name
    return f"\\{name} "


def write_netlist(n: Netlist) -> str:
    """Serialize to the structural subset; parse(write(n)) is graph-isomorphic to n."""
    # each net name is escaped once, though a net is written about three
    # times; a connection to a constant net writes the constant itself
    nets = {*n.inputs, *n.outputs, *[g.output for g in n.gates]}
    nets.update(itertools.chain.from_iterable([g.inputs for g in n.gates]))
    ids = dict(zip(nets, map(_emit_ident, nets)))
    conn = {**ids, CONST0: CONST0, CONST1: CONST1}
    lines = [f"module {_emit_ident(n.name)} ("]
    ports = [ids[p] for p in (*n.inputs, *n.outputs)]
    lines.append("  " + ", ".join(ports))
    lines.append(");")
    if n.inputs:
        lines.append("  input " + ", ".join([ids[p] for p in n.inputs]) + ";")
    if n.outputs:
        lines.append("  output " + ", ".join([ids[p] for p in n.outputs]) + ";")
    port_set = set(n.inputs) | set(n.outputs)
    wires = [ids[g.output] for g in n.gates if g.output not in port_set]
    if wires:
        lines.append("  wire " + ", ".join(wires) + ";")
    for kind, out, ins, name in n.gates:
        conns = ", ".join([conn[c] for c in (out, *ins)])
        lines.append(f"  {kind.lower()} {_emit_ident(name)} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def to_json_dict(n: Netlist) -> dict:
    """Canonical JSON-ready dump used by the ``forge parse --json`` surface."""
    return {
        "name": n.name,
        "inputs": list(n.inputs),
        "outputs": list(n.outputs),
        "nets": list(n.nets),
        "gates": [
            {"kind": g.kind, "name": g.name, "output": g.output,
             "inputs": list(g.inputs)}
            for g in n.gates
        ],
    }
