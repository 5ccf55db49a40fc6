"""No public name in ``src/repro`` without a caller (DESIGN.md §23).

Every public function, method and class defined under ``src/repro`` must be
referenced by name somewhere that is not a test: in ``src/`` outside its own
definition and outside package re-exports (``__init__`` imports and
``__all__`` lists), in ``examples/`` or ``benchmarks/``, or on a
``python -m`` line of ``.github/workflows/ci.yml``.  A name only tests reach
is either deleted or listed in ``ALLOWED`` with the reason it stays.  The
test fails on a name that has no caller, and on an allowlist entry that has
gained one (or no longer exists) — the list only shrinks.

Name-level and AST-only: a reference is an identifier read (``name``,
``obj.name``) or an identifier-shaped string constant (``getattr(x, "name")``,
the hook names of ``repro.extension.HOOKS``, the method names
``benchmarks/e2e/spans.py`` wraps).  Two definitions sharing a name vouch for
each other; that is the price of not importing anything.
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
REFERENCE = "reference value tests compare the engine's own accounting against"
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
    "gpu/energy.py": {
        "EnergyModel.request_joules": REFERENCE,
        "EnergyModel.per_request_joules": REFERENCE,
        "EnergyModel.attributed_joules": REFERENCE,
        "HeadroomGovernor.demand": REFERENCE,
    },
    "gpu/memory.py": {"MemoryModel.release_request": REFERENCE},
    "sim/events.py": {"EventLoop.recount_pending": REFERENCE},
    "registry/presets.py": {"all_fig_specs": SWEEP, "all_cluster_specs": SWEEP},
    "serve/store.py": {
        "RequestStore.replay_entries": "journal replay from parsed entries: what "
        "`RequestStore.replay` does per line, and the replay-equivalence tests' handle",
    },
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


def _scan(tree, referenced):
    """One walk over a module: adds every name it reads to ``referenced`` and
    returns, per definition of ``_definitions``, ``{qualified name: reads of
    that name inside the definition itself}``."""
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
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in exported:
                name = node.value if node.value.isidentifier() else None
        elif id(node) in definitions:
            enclosing = (*enclosing, definitions[id(node)])
        if name is not None:
            referenced[name] += 1
            for qualified, short in enclosing:
                if short == name:
                    inside_itself[qualified] += 1
        stack += [(child, enclosing) for child in ast.iter_child_nodes(node)]
    return inside_itself


def unreferenced():
    """``{path under src/repro: {qualified names nothing but tests reach}}``."""
    referenced = Counter()
    defined = []
    for base in REFERENCED_UNDER:
        for path in sorted((ROOT / base).rglob("*.py")):
            inside_itself = _scan(ast.parse(path.read_text()), referenced)
            if (ROOT / DEFINED_UNDER) in path.parents:
                where = path.relative_to(ROOT / DEFINED_UNDER).as_posix()
                defined += [(where, q, n) for q, n in inside_itself.items()]
    for line in (ROOT / CI_WORKFLOW).read_text().splitlines():
        if "python -m repro" in line:
            referenced.update(re.findall(r"[A-Za-z_]\w*", line))
    dead = {}
    for where, qualified, inside_itself in defined:
        if referenced[qualified.rpartition(".")[2]] <= inside_itself:
            dead.setdefault(where, set()).add(qualified)
    return dead


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
