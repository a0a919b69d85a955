"""Source-level invariants of the htforge package."""

import ast
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

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


_MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
            ast.SetComp)
_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop",
             "popitem", "clear", "add", "discard", "remove", "__setitem__"}
# tt_var's patterns: at most 136 entries, one per (j, m) with j < m <= 16
_BOUNDED_TABLES = {"_TT_VAR_CACHE"}


def _is_mutable(node):
    # a dict, list or set display or comprehension, or a call of a type
    # that builds one
    return isinstance(node, _MUTABLE) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "dict", "list", "set", "defaultdict", "Counter", "OrderedDict"))


def _process_wide_caches(tree):
    """(line, what) of each cache in a module that outlives a call: an
    @lru_cache or @cache on a function or class, a mutable default
    argument, and a module-level dict, list or set that a function stores
    into, deletes from or calls a mutating method on (by name, so a local
    that shadows one counts too)."""
    tables = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value \
                is not None and _is_mutable(stmt.value):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            tables |= {t.id for t in targets if isinstance(t, ast.Name)}
    tables -= _BOUNDED_TABLES
    for func in ast.walk(tree):
        for dec in getattr(func, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in ("lru_cache", "cache"):
                yield dec.lineno, f"@{name}"
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for d in (*func.args.defaults, *func.args.kw_defaults):
            if d is not None and _is_mutable(d):
                yield d.lineno, "mutable default"
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                name = getattr(node.value, "id", None)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                name = getattr(node.func.value, "id", None)
            else:
                continue
            if name in tables:
                yield node.lineno, f"writes module-level {name}"


def test_no_process_wide_cache():
    # caches live in an object a caller creates and passes (a pass's synthesis
    # memo, a netlist's lowered program, an exhaustive sweep's registers), so
    # no state outlives the call that built it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {what}"
                  for line, what in _process_wide_caches(tree)]
    assert not found, found


@pytest.mark.parametrize("text, caches", [
    pytest.param("@functools.lru_cache(None)\ndef f(x):\n    return x\n", 1,
                 id="lru_cache"),
    pytest.param("@functools.cache\nclass C:\n    pass\n", 1,
                 id="cached-class"),
    pytest.param("class C:\n    @cache\n    def f(self):\n        return 1\n", 1,
                 id="cached-method"),
    pytest.param("def f(x, seen={}):\n    return seen\n", 1,
                 id="dict-default"),
    pytest.param("def f(x, *, seen=list()):\n    return seen\n", 1,
                 id="list-keyword-default"),
    pytest.param("g = lambda x, seen=[]: seen\n", 1, id="lambda-default"),
    pytest.param("_T = {}\ndef f(x):\n    _T[x] = 1\n    del _T[x]\n", 2,
                 id="module-dict-stored-and-deleted"),
    pytest.param("_T: list = []\ndef f(x):\n    _T.append(x)\n", 1,
                 id="module-list-appended"),
    pytest.param("_T = (1, 2)\ndef f(x):\n    return _T[x]\n", 0,
                 id="module-tuple-read"),
    pytest.param("_T = {}\ndef f(x):\n    return _T.get(x)\n", 0,
                 id="module-dict-read"),
    pytest.param("def f(x, seen=None):\n    seen = {}\n    seen[x] = 1\n", 0,
                 id="local-dict"),
    pytest.param("_TT_VAR_CACHE = {}\ndef f(x):\n    _TT_VAR_CACHE[x] = 1\n",
                 0, id="bounded-table-by-name"),
])
def test_process_wide_cache_scan_finds_each_kind(text, caches):
    assert len(list(_process_wide_caches(ast.parse(text)))) == caches


def _orphan_private_defs(trees):
    """Module-level ``_`` functions and classes of ``trees`` (file name ->
    module AST) that no statement names but their own definition."""
    users = {}   # name -> {(file, statement index)} of the statements naming it
    for name, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                used = (getattr(node, "id", None) if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if used:
                    users.setdefault(used, set()).add((name, k))
    return [f"{name}:{stmt.lineno} {stmt.name}"
            for name, tree in trees.items()
            for k, stmt in enumerate(tree.body)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not users.get(stmt.name, set()) - {(name, k)}]


def test_private_functions_have_a_src_caller():
    # a private helper that nothing in the package names is dead code left
    # behind by a deletion
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = _orphan_private_defs(trees)
    assert not found, found


@pytest.mark.parametrize("texts, orphans", [
    pytest.param({"a.py": "def _f(x):\n    return _f(x - 1)\n"},
                 ["a.py:1 _f"], id="recursion-only"),
    pytest.param({"a.py": "class _C:\n    pass\n"}, ["a.py:1 _C"],
                 id="unused-class"),
    pytest.param({"a.py": "def _f():\n    pass\n", "b.py": "from a import _f\n"},
                 [], id="imported"),
    pytest.param({"a.py": "def _f():\n    pass\n", "b.py": "import a\na._f()\n"},
                 [], id="attribute"),
    pytest.param({"a.py": "def __getattr__(name):\n    pass\n"}, [],
                 id="dunder"),
])
def test_orphan_scan_finds_each_kind(texts, orphans):
    trees = {name: ast.parse(text) for name, text in texts.items()}
    assert _orphan_private_defs(trees) == orphans


def _names(tree, name):
    """Lines of ``tree`` that name ``name``: a name, an attribute or an
    imported alias."""
    return [node.lineno for node in ast.walk(tree)
            if name in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.alias) and name == node.name]


def test_only_netlist_draws_stimuli():
    # netlist.sweep owns the chunk layout of every sweep and the registers
    # carried between its chunks; other modules simulate through it
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "netlist.py"
             for line in _names(ast.parse(path.read_text()), "stimuli")]
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
    # len(<netlist>.inputs), or len() of a name that holds a support or
    # PIs (support, pi_nodes, pis)
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", None) == "len"):
        return False
    arg = node.args[0]
    return ((isinstance(arg, ast.Attribute) and arg.attr == "inputs")
            or (isinstance(arg, ast.Name)
                and ("support" in arg.id or arg.id.startswith("pi"))))


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


def _imported_modules(tree):
    """The module names an AST imports, relative ones without their dots,
    with each ``from . import x`` name counted as a module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
            if not node.module:
                names += [alias.name for alias in node.names]
    return names


def test_equiv_imports_nothing_from_restructure():
    # the checker proves merges with aig's cone_tt, the truth-table walk
    # the restructuring passes share; it sits below restructure, which
    # imports it to check every recipe
    tree = ast.parse((SRC / "equiv.py").read_text())
    found = [m for m in _imported_modules(tree)
             if m.split(".")[-1] == "restructure"]
    assert not found, found
    walks = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "cone_tt"
             and not any(isinstance(c, ast.Call)
                         and getattr(c.func, "id", None) == "cone_tt"
                         for c in ast.walk(node))]
    assert len(walks) == 1 and walks[0].startswith("aig.py:"), walks


def test_one_proven_merge_walk():
    # fraig and the equivalence prover share aig.merge_proven, the one
    # classify-prove-rebuild walk: each calls it, and neither builds a
    # graph or draws signatures of its own
    funcs = {(path.name, node.name): node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)}
    for key in (("restructure.py", "fraig"), ("equiv.py", "_unproven")):
        body = funcs[key]
        assert _names(body, "merge_proven"), key
        assert not _names(body, "AigBuilder"), key
        assert not _names(body, "aig_simulate"), key
    # the walk draws signatures once, in aig.py
    walks = [key for key, node in funcs.items()
             if _names(node, "aig_simulate") and _names(node, "AigBuilder")]
    assert walks == [("aig.py", "merge_proven")], walks


_FOLDS = ("and2", "or2", "xor2", "GATE_OPS")


def _gate_folds(tree):
    """Lines of loops and comprehensions over a netlist's ``gates`` or
    ``topo_gates`` that decompose gates: their body names and2, or2, xor2
    or GATE_OPS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        if (any(_names(it, "gates") or _names(it, "topo_gates")
                for it in iters)
                and any(_names(node, name) for name in _FOLDS)):
            found.append(node.lineno)
    return found


def test_equiv_builds_netlists_through_add_netlist():
    # aig.add_netlist is the one decomposition of gates into AIG nodes:
    # the joint graph and the cofactor proof of the Trojan contract build
    # every netlist through it, and the checker folds no gate itself
    funcs = {(path.name, node.name): node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)}
    assert not _gate_folds(ast.parse((SRC / "equiv.py").read_text()))
    for key in (("equiv.py", "_joint"), ("equiv.py", "_cofactor_proven")):
        assert _names(funcs[key], "add_netlist"), key
    # the scan recognizes the fold it protects
    assert _gate_folds(funcs["aig.py", "add_netlist"])


@pytest.mark.parametrize("text, lines", [
    ("for g in n.topo_gates:\n    acc = b.and2(x, y)\n", [1]),
    ("lits = [b.xor2(x, y) for g in n.gates]\n", [1]),
    ("for g in infected.gates:\n    op, inv = GATE_OPS[g.kind]\n", [1]),
    ("for g in n.gates:\n    print(g.output)\n", []),
    ("for net, pol in rec.trigger:\n    acc = jb.and2(acc, lits[net])\n", []),
    ("lits = add_netlist(jb, n)\n", [])])
def test_gate_fold_scan_finds_each_kind(text, lines):
    assert _gate_folds(ast.parse(text)) == lines


_PRIVATE = re.compile(r"(?<![\w.])(?:\w+\.)*_[A-Za-z]\w*(?:\.\w+)*")


def _scopes(trees):
    """Names a package defines, by scope: each module name (file stem) maps
    to its module-level functions, classes and assignments, and each class
    name to what its body binds, attributes stored on ``self`` included."""
    scopes = {}
    for mod, tree in trees.items():
        top = scopes.setdefault(mod, set())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                top.add(stmt.name)
            for node in ast.walk(stmt) if isinstance(
                    stmt, (ast.Assign, ast.AnnAssign)) else ():
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    top.add(node.id)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                scopes.setdefault(cls.name, set()).update(
                    getattr(node, "name", None) or getattr(node, "attr", None)
                    or node.id for node in ast.walk(cls)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Store))
    return scopes


def _stale(name, scopes):
    """Whether a dotted name that holds a private part names something the
    package no longer defines: a leading private part must be defined at
    some module's top level, and a private part after a module or a class
    name in that module or class."""
    parts = name.split(".")   # module scopes are the lower-case keys
    if parts[0].startswith("_") and not any(
            parts[0] in scopes[m] for m in scopes if m[:1].islower()):
        return True
    return any(b.startswith("_") and a in scopes and b not in scopes[a]
               for a, b in zip(parts, parts[1:]))


def _stale_names(readme, sources, scopes):
    """Private names README.md backticks, and ``module._name`` references in
    the comments and docstrings of ``sources`` (file name -> text), that
    the package no longer defines."""
    inline = re.sub(r"(?ms)^```.*?^```", "", readme)   # fenced blocks out
    found = [f"README.md `{name}`" for span in re.findall(r"`([^`]+)`", inline)
             for name in _PRIVATE.findall(span) if _stale(name, scopes)]
    mods = "|".join(m for m in scopes if m[:1].islower())
    for fname, text in sources.items():
        prose = [t.string for t in tokenize.generate_tokens(
            io.StringIO(text).readline)
            if t.type in (tokenize.COMMENT, tokenize.STRING)]
        found += [f"{fname} {name}" for chunk in prose
                  for name in re.findall(rf"\b(?:{mods})\._[A-Za-z]\w*", chunk)
                  if _stale(name, scopes)]
    return found


def test_docs_name_only_defined_private_names():
    # a deletion or a rename leaves no README or src prose naming the old
    # private function, class or constant
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scopes = _scopes({name[:-3]: ast.parse(text)
                      for name, text in sources.items()})
    readme = (SRC.parent.parent / "README.md").read_text()
    found = _stale_names(readme, sources, scopes)
    assert not found, found


@pytest.mark.parametrize("readme, source, stale", [
    pytest.param("`_f` and `m._C.g` and `_C.meth`", "", [], id="defined"),
    pytest.param("`_gone()` beside `_f`", "", ["README.md `_gone`"],
                 id="bare-gone"),
    pytest.param("`m._gone`", "", ["README.md `m._gone`"], id="module-gone"),
    pytest.param("`_C._x` and `_C._y`", "", ["README.md `_C._y`"],
                 id="class-attribute"),
    pytest.param("`_meth`", "", ["README.md `_meth`"], id="method-is-not-top"),
    pytest.param("", "# see m._gone and m._f\nx = 1  # n._f\n",
                 ["s.py m._gone"], id="comment"),
    pytest.param("", "def h():\n    '''as m._gone does'''\n", ["s.py m._gone"],
                 id="docstring"),
    pytest.param("_gone outside backticks", "y = '_gone'\n", [],
                 id="prose-and-code"),
    pytest.param("```sh\nrun\n```\n\n`_gone` and `_f`", "",
                 ["README.md `_gone`"], id="after-a-fenced-block"),
])
def test_stale_name_scan_finds_each_kind(readme, source, stale):
    trees = {"m": ast.parse("def _f():\n    pass\nclass _C:\n    def _meth(self):"
                            "\n        self._x = 1\n")}
    assert _stale_names(readme, {"s.py": source}, _scopes(trees)) == stale
