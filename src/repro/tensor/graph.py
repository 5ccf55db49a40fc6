"""A small static dataflow-graph representation.

The paper defines each RNN cell as a dataflow graph exported to JSON from
MXNet/TensorFlow.  This module is the equivalent here: a cell body can be
described as a :class:`DataflowGraph` of named operators over placeholders
and parameters, executed by topological sort.  The worker uses the graph's
operator count to model per-operator kernel launches, and the JSON round-trip
mirrors the paper's "save the cell's dataflow graph in a JSON file" user
interface.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.tensor import ops

# Registry of operators a graph may reference by name.  Kept explicit so a
# JSON file can only name vetted functions.
OP_REGISTRY: Dict[str, Callable] = {
    "matmul": ops.matmul,
    "add": ops.add,
    "multiply": ops.multiply,
    "sigmoid": ops.sigmoid,
    "tanh": ops.tanh,
    "relu": ops.relu,
    "softmax": ops.softmax,
    "log_softmax": ops.log_softmax,
    "argmax": ops.argmax,
    "concat": lambda *xs: ops.concat(xs, axis=-1),
    "embedding_lookup": ops.embedding_lookup,
}


class OpSpec:
    """Declaration of one operator application inside a graph."""

    __slots__ = ("name", "op", "inputs")

    def __init__(self, name: str, op: str, inputs: Sequence[str]):
        if op not in OP_REGISTRY:
            raise ValueError(f"unknown operator {op!r}")
        self.name = name
        self.op = op
        self.inputs = list(inputs)


class DataflowGraph:
    """A static graph: placeholders + parameters -> named outputs.

    Construction is declarative; :meth:`run` executes in a topological order
    computed once and cached.  Cycles are rejected at finalisation.
    """

    def __init__(self, name: str):
        self.name = name
        self.placeholders: List[str] = []
        self.param_names: List[str] = []
        self.op_specs: List[OpSpec] = []
        self.outputs: List[str] = []
        self._order: Optional[List[OpSpec]] = None

    # -- construction -----------------------------------------------------

    def placeholder(self, name: str) -> str:
        self._check_fresh(name)
        self.placeholders.append(name)
        return name

    def parameter(self, name: str) -> str:
        self._check_fresh(name)
        self.param_names.append(name)
        return name

    def op(self, name: str, op: str, *inputs: str) -> str:
        self._check_fresh(name)
        self.op_specs.append(OpSpec(name, op, inputs))
        self._order = None
        return name

    def output(self, name: str) -> None:
        if name in self.outputs:
            raise ValueError(f"{name!r} is already an output")
        self.outputs.append(name)

    def _check_fresh(self, name: str) -> None:
        if name in self.placeholders or name in self.param_names or any(
            s.name == name for s in self.op_specs
        ):
            raise ValueError(f"name {name!r} already defined in graph {self.name!r}")

    # -- analysis ---------------------------------------------------------

    def num_operators(self) -> int:
        """Number of operator applications (== GPU kernels per execution)."""
        return len(self.op_specs)

    def topological_order(self) -> List[OpSpec]:
        """Return op specs in dependency order; raises on cycles/dangling refs."""
        if self._order is not None:
            return self._order
        known = set(self.placeholders) | set(self.param_names)
        by_name = {s.name: s for s in self.op_specs}
        for spec in self.op_specs:
            for ref in spec.inputs:
                if ref not in known and ref not in by_name:
                    raise ValueError(
                        f"op {spec.name!r} references undefined value {ref!r}"
                    )
        order: List[OpSpec] = []
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str) -> None:
            if name in known or state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise ValueError(f"cycle detected through {name!r}")
            state[name] = 0
            spec = by_name[name]
            for ref in spec.inputs:
                visit(ref)
            state[name] = 1
            order.append(spec)

        for spec in self.op_specs:
            visit(spec.name)
        self._order = order
        return order

    # -- execution --------------------------------------------------------

    def run(
        self,
        inputs: Dict[str, np.ndarray],
        params: Dict[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """Execute the graph; returns a dict of the declared outputs."""
        missing = [p for p in self.placeholders if p not in inputs]
        if missing:
            raise KeyError(f"missing graph inputs: {missing}")
        env: Dict[str, np.ndarray] = {}
        env.update({p: inputs[p] for p in self.placeholders})
        for pname in self.param_names:
            if pname not in params:
                raise KeyError(f"missing parameter {pname!r}")
            env[pname] = params[pname]
        for spec in self.topological_order():
            fn = OP_REGISTRY[spec.op]
            env[spec.name] = fn(*[env[ref] for ref in spec.inputs])
        for out in self.outputs:
            if out not in env:
                raise ValueError(f"declared output {out!r} was never computed")
        return {out: env[out] for out in self.outputs}

    # -- JSON round trip (paper's cell-definition interface) ---------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "placeholders": self.placeholders,
                "parameters": self.param_names,
                "ops": [
                    {"name": s.name, "op": s.op, "inputs": s.inputs}
                    for s in self.op_specs
                ],
                "outputs": self.outputs,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "DataflowGraph":
        data = json.loads(text)
        graph = cls(data["name"])
        for p in data["placeholders"]:
            graph.placeholder(p)
        for p in data["parameters"]:
            graph.parameter(p)
        for o in data["ops"]:
            graph.op(o["name"], o["op"], *o["inputs"])
        for out in data["outputs"]:
            graph.output(out)
        graph.topological_order()  # validate
        return graph
