"""One serialiser for config values (DESIGN.md §25): keep the seam single.

AST only, like ``tests/test_dead_surface.py``.  A class under ``src/repro``
that defines ``to_dict`` or ``from_dict`` is a config value and subclasses
``repro.spec.Spec`` (the journal record's wire format is the one exemption).
A ``Spec`` subclass inherits ``to_dict`` / ``from_dict`` / ``replace`` and
its equality from the seam; it overrides one of them only where ``PERMITTED``
says why, and that override goes through the seam (``super()``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SEAM = "spec.py"
SERIALISERS = ("to_dict", "from_dict", "replace", "__eq__")

# (path under src/repro, class, method) -> why it is written by hand
PERMITTED = {
    ("core/config.py", "BatchingConfig", "from_dict"):
        "per_cell is a mapping of specs, each loaded through CellTypeConfig",
    ("gpu/memory.py", "MemorySpec", "to_dict"):
        "the stored form leaves out empty weights and an unset admission threshold",
}
# (path under src/repro, class) -> why it serialises without the seam
EXEMPT = {
    ("serve/store.py", "RequestRecord"): "a journal and HTTP wire format, not a config value",
}


def _calls_super(method: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == method.name
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
        for node in ast.walk(method)
    )


def violations(modules):
    """``modules``: ``{path under src/repro: source}``; returns one line per
    serialiser written outside the seam without a stated reason."""
    found = []
    for where, source in sorted(modules.items()):
        if where == SEAM:
            continue
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            spec = any(isinstance(b, ast.Name) and b.id == "Spec" for b in node.bases)
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name in SERIALISERS
            }
            if not spec:
                if {"to_dict", "from_dict"} & set(methods) and (where, node.name) not in EXEMPT:
                    found.append(f"{where}: {node.name} serialises without subclassing Spec")
                continue
            for name, method in methods.items():
                if (where, node.name, name) not in PERMITTED:
                    found.append(f"{where}: {node.name}.{name} is the seam's to derive")
                elif not _calls_super(method):
                    found.append(f"{where}: {node.name}.{name} bypasses super().{name}")
    return found


def _source_tree():
    return {
        path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")
    }


def test_every_serialiser_is_the_seam_or_a_stated_override():
    assert violations(_source_tree()) == []


def test_every_permitted_override_and_exemption_still_exists():
    tree = _source_tree()
    for where, cls, method in PERMITTED:
        assert f"class {cls}(Spec)" in tree[where] and f"def {method}(" in tree[where]
    for where, cls in EXEMPT:
        assert f"class {cls}" in tree[where]


def test_the_scan_sees_a_second_serialiser():
    source = (
        "class Loose:\n"
        "    @classmethod\n    def from_dict(cls, data):\n        return cls()\n"
        "class Knob(Spec):\n"
        "    def __eq__(self, other):\n        return True\n"
        "class BatchingConfig(Spec):\n"
        "    @classmethod\n    def from_dict(cls, data):\n        return cls()\n"
    )
    assert violations({"core/config.py": source}) == [
        "core/config.py: Loose serialises without subclassing Spec",
        "core/config.py: Knob.__eq__ is the seam's to derive",
        "core/config.py: BatchingConfig.from_dict bypasses super().from_dict",
    ]
