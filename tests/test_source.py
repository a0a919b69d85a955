"""Source-level invariants of the htforge package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import htforge

SRC = Path(htforge.__file__).parent


def _asserts(node, scope=()):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assert):
            yield scope, child.lineno
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _asserts(child, inner)


def test_no_assert_guards_a_result():
    # python -O strips asserts; only the test-only consistency helper
    # _Work.check may use them
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _asserts(tree):
            if scope != ("_Work", "check"):
                found.append(f"{path.name}:{line} in {'.'.join(scope) or '<module>'}")
    assert not found, found


def test_no_exec_eval_or_compile():
    # simulation runs a lowered data program; no code is generated from
    # netlist names, which come from user Verilog
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                found.append(f"{path.name}:{node.lineno} {node.func.id}()")
    assert not found, found


def test_no_process_wide_cache():
    # caches live in an object a caller creates and passes (a pass's synthesis
    # memo, a netlist's lowered program, an exhaustive sweep's registers), so
    # no state outlives the call that built it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{dec.lineno} @{name}")
    assert not found, found


def test_tracer_wrapped_names_resolve():
    # the benchmark tracer reports a missing function as absent and drops
    # its layer metric; read its WRAPPED table without importing bench/
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED"
                           for t in node.targets))
    assert wrapped
    missing = [f"{mod}.{fn}" for mod, fn in wrapped.values()
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert not missing, missing


def test_gate_meaning_is_read_from_gate_ops():
    # netlist.GATE_OPS (and the oracle _fold beside it) is the one place
    # that says what a gate kind computes; analytics only counts kinds by
    # name for its features
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("netlist.py", "analytics.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (node.left, *node.comparators)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_import_loads_only_the_standard_library():
    # numpy stays a test oracle; the package itself needs nothing installed
    code = ("import sys; before = set(sys.modules); import htforge; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "numpy" not in out
    assert set(out) - set(sys.stdlib_module_names) == {"htforge"}


def _pi_count(node):
    # len(<netlist>.inputs), or len() of a name that holds a support
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", None) == "len"):
        return False
    arg = node.args[0]
    return ((isinstance(arg, ast.Attribute) and arg.attr == "inputs")
            or (isinstance(arg, ast.Name) and "support" in arg.id))


def test_pi_bounds_are_named():
    # a PI count is compared with a named bound (netlist.EXHAUSTIVE_PIS,
    # CHUNK_VARS, a config field), never an integer literal, so that each
    # bound is written down once
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = (node.left, *node.comparators)
            if any(map(_pi_count, sides)) and any(
                    isinstance(s, ast.Constant) and type(s.value) is int
                    for s in sides):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found
