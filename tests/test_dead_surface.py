"""No public name in ``src/repro`` without a caller (DESIGN.md §23).

Every public function, method and class defined under ``src/repro`` must be
referenced by name somewhere that is not a test: in ``src/`` outside its own
definition and outside package re-exports (``__init__`` imports and
``__all__`` lists), in ``examples/`` or ``benchmarks/``, or on a
``python -m`` line of ``.github/workflows/ci.yml``.  A name only tests reach
is either deleted or listed in ``ALLOWED`` with the reason it stays.  The
test fails on a name that has no caller, and on an allowlist entry that has
gained one (or no longer exists) — the list only shrinks.

Beside it, the same walk over stores: an attribute a method stores
(``self.name = ...``, ``self.name += ...``) under ``src/repro`` must be
read somewhere, as an attribute load (``obj.name``) or an
identifier-shaped string constant in ``src/``, ``tests/``, ``examples/``
or ``benchmarks/``; a store nothing reads is deleted with the value
computed for it.

Name-level and AST-only: a reference is an identifier read (``name``,
``obj.name``) or an identifier-shaped string constant (``getattr(x, "name")``,
the hook names of ``repro.extension.HOOKS``, the method names
``benchmarks/e2e/spans.py`` wraps).  A method is reached through an object,
so only an attribute read (``obj.name``), a string constant or a CI word
counts for it: a bare ``name`` — a local variable, a same-named function —
does not, inside the method's own body or anywhere else.  Two methods
sharing a name still vouch for each other; that is the price of not
importing anything.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_UNDER = "src/repro"
REFERENCED_UNDER = ("src", "examples", "benchmarks")
CI_WORKFLOW = ".github/workflows/ci.yml"

PAPER_4_1 = "paper §4.1: user-defined cells, the path a BatchMaker user takes to bring a cell"
PAPER_4_2 = "paper §4.2: offline benchmarking that picks each cell's batch sizes"
SWEEP = "enumerates every preset so the round-trip tests sweep them all"

# path under src/repro -> {qualified name: why it stays without a caller}
ALLOWED = {
    "cells/graph_cell.py": {"GraphCell": PAPER_4_1, "GraphCell.from_json": PAPER_4_1},
    "tensor/graph.py": {"DataflowGraph.to_json": PAPER_4_1},
    "core/profiler.py": {
        "profile_cost_model": PAPER_4_2,
        "profile_cell": PAPER_4_2,
        "recommend_config": PAPER_4_2,
    },
    "registry/presets.py": {"all_fig_specs": SWEEP, "all_cluster_specs": SWEEP},
}


def _definitions(tree):
    """``(qualified name, node)`` of the public module-level functions and
    classes, and of the public methods in their class bodies."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _scan(tree, referenced, attribute_reads):
    """One walk over a module: adds every name it reads to ``referenced``,
    and those read as an attribute or a string to ``attribute_reads``, and
    returns, per definition of ``_definitions``, ``{qualified name: reads of
    that name inside the definition itself}`` — for a method, only the
    reads ``attribute_reads`` counts."""
    definitions = {id(node): (qualified, node.name) for qualified, node in _definitions(tree)}
    inside_itself = {qualified: 0 for qualified, _ in definitions.values()}
    exported = {  # the string constants of a top-level ``__all__ = [...]``
        id(constant)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for constant in ast.walk(node.value)
    }
    stack = [(tree, ())]  # (node, the definitions it sits in)
    while stack:
        node, enclosing = stack.pop()
        name, bare = None, False
        if isinstance(node, ast.Name):
            name, bare = node.id, True
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in exported:
                name = node.value if node.value.isidentifier() else None
        elif id(node) in definitions:
            enclosing = (*enclosing, definitions[id(node)])
        if name is not None:
            referenced[name] += 1
            if not bare:
                attribute_reads[name] += 1
            for qualified, short in enclosing:
                if short == name and not (bare and "." in qualified):
                    inside_itself[qualified] += 1
        stack += [(child, enclosing) for child in ast.iter_child_nodes(node)]
    return inside_itself


def unreferenced():
    """``{path under src/repro: {qualified names nothing but tests reach}}``."""
    referenced, attribute_reads = Counter(), Counter()
    defined = []
    for base in REFERENCED_UNDER:
        for path in sorted((ROOT / base).rglob("*.py")):
            inside_itself = _scan(ast.parse(path.read_text()), referenced, attribute_reads)
            if (ROOT / DEFINED_UNDER) in path.parents:
                where = path.relative_to(ROOT / DEFINED_UNDER).as_posix()
                defined += [(where, q, n) for q, n in inside_itself.items()]
    for line in (ROOT / CI_WORKFLOW).read_text().splitlines():
        if "python -m repro" in line:
            words = re.findall(r"[A-Za-z_]\w*", line)
            referenced.update(words)
            attribute_reads.update(words)
    dead = {}
    for where, qualified, inside_itself in defined:
        owner, _, short = qualified.rpartition(".")
        reads = attribute_reads if owner else referenced
        if reads[short] <= inside_itself:
            dead.setdefault(where, set()).add(qualified)
    return dead


def write_only_attributes():
    """``{path under src/repro: {names}}`` of the attributes a method there
    stores on ``self`` that no module under ``src``, ``tests``,
    ``examples`` or ``benchmarks`` loads or names in a string."""
    read, stored = set(), {}
    for base in (*REFERENCED_UNDER, "tests"):
        for path in sorted((ROOT / base).rglob("*.py")):
            in_src = (ROOT / DEFINED_UNDER) in path.parents
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
                elif not isinstance(node, ast.Attribute):
                    continue
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (
                    in_src
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    where = path.relative_to(ROOT / DEFINED_UNDER).as_posix()
                    stored.setdefault(where, set()).add(node.attr)
    return {
        where: names - read for where, names in stored.items() if names - read
    }


def test_every_attribute_a_method_stores_is_read():
    assert write_only_attributes() == {}


def test_the_scan_sees_an_attribute_nothing_reads(tmp_path, monkeypatch):
    """A store read through another object, by ``getattr`` or from a test
    lives; one only ever stored or incremented does not, nor does a local
    variable's read vouch for an attribute of its name."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def __init__(self, label):\n"
        "        self.label = label\n"
        "        self.count = 0\n"
        "        self.size = 1\n"
        "        self.kind = 'x'\n"
        "        self.seen = 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        label = 2\n"
        "        return label, getattr(self, 'kind')\n"
        "def size_of(thing):\n    return thing.size\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("def test_seen(thing):\n    assert thing.seen == 0\n")
    monkeypatch.setattr("tests.test_dead_surface.ROOT", tmp_path)
    assert write_only_attributes() == {"mod.py": {"label", "count"}}


def test_every_public_name_has_a_caller_or_a_stated_reason():
    dead = unreferenced()
    allowed = {where: set(names) for where, names in ALLOWED.items()}
    without_caller = {
        where: sorted(names - allowed.get(where, set()))
        for where, names in dead.items()
        if names - allowed.get(where, set())
    }
    assert not without_caller, (
        f"public names only tests reach (delete them, or say in ALLOWED why "
        f"they stay): {without_caller}"
    )
    stale = {
        where: sorted(names - dead.get(where, set()))
        for where, names in allowed.items()
        if names - dead.get(where, set())
    }
    assert not stale, (
        f"ALLOWED entries that have gained a caller or are gone (drop them): {stale}"
    )


def test_every_allowlist_entry_states_its_reason():
    for where, names in ALLOWED.items():
        assert (ROOT / DEFINED_UNDER / where).is_file(), where
        for qualified, reason in names.items():
            assert len(reason.split()) >= 5, f"{where}: {qualified}: {reason!r}"


def test_the_scan_sees_a_name_only_tests_reach(tmp_path, monkeypatch):
    """The scan on a two-file tree: a method called from another module is
    alive, one called only from its own body (or re-exported) is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from repro.mod import Thing, helper\n__all__ = ["Thing", "helper", "orphan"]\n'
    )
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def used(self):\n        return 1\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def _private(self):\n        return 2\n"
        "def helper():\n    return Thing().used()\n"
        "def orphan():\n    return 3\n"
        "def by_name(obj):\n    return getattr(obj, 'used')\n"
    )
    (package / "other.py").write_text(
        "from repro.mod import helper, by_name\nprint(helper(), by_name)\n"
    )
    (tmp_path / ".github" / "workflows").mkdir(parents=True)
    (tmp_path / CI_WORKFLOW).write_text("run: python -m repro.other --quick\n")
    monkeypatch.setattr("tests.test_dead_surface.ROOT", tmp_path)
    assert unreferenced() == {"mod.py": {"Thing.recursive", "orphan"}}


def test_a_bare_name_does_not_vouch_for_a_method(tmp_path, monkeypatch):
    """A local variable or a module function named like a method is no
    caller of it: ``Thing.backlog`` and ``Thing.size`` are dead although
    ``backlog`` and ``size`` are read, while the function ``size`` lives."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def backlog(self):\n        return 0\n"
        "    def size(self):\n        size = 1\n        return size\n"
        "def size():\n    return 2\n"
        "def helper():\n    backlog = size()\n    return backlog\n"
    )
    (package / "other.py").write_text(
        "from repro.mod import Thing, helper\nprint(helper(), Thing)\n"
    )
    (tmp_path / ".github" / "workflows").mkdir(parents=True)
    (tmp_path / CI_WORKFLOW).write_text("run: python -m repro.other\n")
    monkeypatch.setattr("tests.test_dead_surface.ROOT", tmp_path)
    assert unreferenced() == {"mod.py": {"Thing.backlog", "Thing.size"}}
