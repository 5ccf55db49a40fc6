"""The queue's bookkeeping lives in one module (DESIGN.md §35).

``CellTypeQueue``'s ready total, its list of ready subgraphs and its next
``queue_seq`` are read and written only in ``core/scheduler.py``: a
subgraph reports to its queue through ``on_ready_delta``, and the queue
drops a subgraph itself, in ``commit`` and ``remove``.  A second writer is
a second copy of the queue's invariants to keep in step.

AST only: an attribute access (``obj._entries``, read or store) or a string
constant naming a field (``getattr(queue, "_entries")``) anywhere under
``src/repro`` but that module fails.  Tests and their oracles inspect the
fields and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OWNER = "core/scheduler.py"
FIELDS = frozenset({"_ready_total", "_entries", "_next_seq"})


def field_uses():
    """``[(path under src/repro, line, field)]`` of every use outside
    :data:`OWNER`."""
    uses = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where == OWNER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in FIELDS:
                uses.append((where, node.lineno, name))
    return uses


def test_only_the_scheduler_module_touches_the_queue_fields():
    assert field_uses() == [], (
        "the queue's fields are used outside core/scheduler.py; go through "
        "a CellTypeQueue method instead"
    )


def test_the_owner_module_is_where_the_fields_live():
    """The check is not vacuous: the owner defines every field."""
    source = (SRC / OWNER).read_text()
    stored = {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    assert FIELDS <= stored
