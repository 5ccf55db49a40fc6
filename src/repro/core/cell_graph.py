"""The per-request cell graph.

Unfolding a request produces a coarse dataflow graph whose nodes are cell
invocations and whose edges say which cell output feeds which cell input
(§3.1's "cell graph").  A node is its id — dense, ``0 .. len(graph) - 1``,
in creation order — and the graph answers every question about a node by
id: :meth:`~CellGraph.cell_type_of`, :meth:`~CellGraph.inputs_of` (each
input a request-provided value or another node's named output),
:meth:`~CellGraph.predecessors`, :meth:`~CellGraph.successors` and
:meth:`~CellGraph.subgraph_id_of`.  Per-node state is kept by id as well:
whether a node completed is one byte of the graph's ``done`` bitmap, and
in real-compute mode its computed output rows are ``outputs[node_id]``.

Behind the ids are three kinds of record.  A node added with
:meth:`CellGraph.add_node` is an explicit :class:`CellNode`.  A chain of
one cell type (an LSTM over a sentence) is stored run-length:
:meth:`CellGraph.add_run` reserves the node ids and keeps one
:class:`ChainRun` record.  A binary tree of two cell types (a TreeLSTM
over a parse tree) is stored the same way, as the flat arrays of one
:class:`TreeRun` (:meth:`CellGraph.add_tree`).  No object stands for one
node of a run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cell import CellType
from repro.core.request import PayloadError


class ValueInput:
    """A request-provided input value (e.g. a token id or an input vector)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"ValueInput({self.value!r})"


class NodeOutput:
    """A reference to the named output of another node in the same graph."""

    __slots__ = ("node_id", "output")

    def __init__(self, node_id: int, output: str):
        self.node_id = node_id
        self.output = output

    def __repr__(self) -> str:
        return f"NodeOutput(node={self.node_id}, output={self.output!r})"


class CellNode:
    """One cell invocation in a request's cell graph."""

    __slots__ = ("node_id", "cell_type", "inputs", "subgraph_id")

    def __init__(self, node_id: int, cell_type: CellType, inputs: Dict[str, Any]):
        self.node_id = node_id
        self.cell_type = cell_type
        self.inputs = inputs  # input name -> ValueInput | NodeOutput
        self.subgraph_id: Optional[int] = None

    def predecessors(self) -> List[int]:
        """Node ids this node consumes outputs from (with duplicates removed,
        preserving first-seen order)."""
        seen = []
        for ref in self.inputs.values():
            if isinstance(ref, NodeOutput) and ref.node_id not in seen:
                seen.append(ref.node_id)
        return seen

    def __repr__(self) -> str:
        return f"<CellNode {self.node_id} type={self.cell_type.name!r}>"


class RunShape:
    """What a model fixes about every chain it unfolds of one cell type,
    checked once, here (DESIGN.md §39).

    ``carried`` maps an input name to the output of the previous step that
    feeds it, ``per_step`` names the inputs each step reads from the
    request, and together they feed every input of ``cell_type`` exactly
    once.  ``initial`` gives step 0's value for each carried input, all
    :class:`ValueInput` values, when every request starts from the same
    state; a model whose chains start from a node of the request's own
    graph leaves it None and hands each :meth:`CellGraph.add_run` its own.
    """

    __slots__ = ("cell_type", "carried", "per_step", "initial")

    def __init__(
        self,
        cell_type: CellType,
        carried: Dict[str, str],
        per_step: Sequence[str],
        initial: Optional[Dict[str, ValueInput]] = None,
    ):
        missing = [
            n for n in cell_type.input_names if n not in carried and n not in per_step
        ]
        if missing:
            raise ValueError(
                f"run of type {cell_type.name!r} missing inputs: {missing}"
            )
        for name, output in carried.items():
            if name in per_step:
                raise ValueError(f"run input {name!r} is both carried and per-step")
            if output not in cell_type.output_names:
                raise ValueError(
                    f"run of type {cell_type.name!r} has no output {output!r} to carry"
                )
        if initial is not None:
            _check_initial_names(carried, initial)
            for ref in initial.values():
                if not isinstance(ref, ValueInput):
                    raise TypeError(
                        f"a run shape's initial values must be ValueInputs, got {ref!r}"
                    )
        self.cell_type = cell_type
        self.carried = carried
        self.per_step = frozenset(per_step)
        self.initial = initial


def _check_initial_names(carried: Dict[str, str], initial: Dict[str, Any]) -> None:
    """Raise unless ``initial`` gives a value for exactly the carried inputs."""
    for name in carried:
        if name not in initial:
            raise ValueError(f"carried run input {name!r} has no initial value")
    extra = [n for n in initial if n not in carried]
    if extra:
        raise ValueError(f"initial values for non-carried run inputs {extra}")


class ChainRun:
    """``steps`` consecutive nodes of one cell type, kept as one record.

    Step ``k`` is node ``first_id + k``.  It reads ``per_step[name][k]`` for
    each per-step input and, for each carried input ``name``, the previous
    step's ``carried[name]`` output; step 0 reads ``initial[name]`` instead.
    Built and validated by :meth:`CellGraph.add_run`; ``producers`` are the
    ids of the nodes step 0 reads from (``initial``'s NodeOutputs, each
    once, first-seen order), the run's only in-edges.
    """

    __slots__ = (
        "first_id",
        "stop",
        "cell_type",
        "carried",
        "initial",
        "per_step",
        "producers",
        "consumers",
        "subgraph_id",
    )

    def __init__(
        self,
        first_id: int,
        steps: int,
        shape: RunShape,
        initial: Dict[str, Any],
        per_step: Dict[str, Sequence[Any]],
        producers: Tuple[int, ...],
    ):
        self.first_id = first_id
        self.stop = first_id + steps  # one past the last node id
        self.cell_type = shape.cell_type
        self.carried = shape.carried
        self.initial = initial
        self.per_step = per_step
        self.producers = producers
        # Run node id -> ids of the explicit nodes (or later runs) that
        # consume its outputs.  The step-to-step edges are implicit.
        self.consumers: Dict[int, List[int]] = {}
        # A run is connected and of one cell type, so it lies in one
        # subgraph: this is every one of its nodes' subgraph id.
        self.subgraph_id: Optional[int] = None

    @property
    def steps(self) -> int:
        return self.stop - self.first_id

    @property
    def last_id(self) -> int:
        return self.stop - 1

    def cell_type_of(self, node_id: int) -> CellType:
        return self.cell_type

    def census(self) -> List[Tuple[str, int]]:
        return [(self.cell_type.name, self.steps)]

    def subgraph_id_of(self, node_id: int) -> Optional[int]:
        return self.subgraph_id

    def predecessors(self, node_id: int) -> List[int]:
        return [node_id - 1] if node_id > self.first_id else list(self.producers)

    def inputs_of(self, node_id: int) -> Dict[str, Any]:
        """The ``inputs`` dict an explicit node in this position would have."""
        step = node_id - self.first_id
        inputs = {
            name: ValueInput(values[step]) for name, values in self.per_step.items()
        }
        if step == 0:
            inputs.update(self.initial)
        else:
            for name, output in self.carried.items():
                inputs[name] = NodeOutput(node_id - 1, output)
        return inputs

    def successors(self, node_id: int) -> List[int]:
        following = [node_id + 1] if node_id + 1 < self.stop else []
        return following + self.consumers.get(node_id, [])

    def __repr__(self) -> str:
        return (
            f"<ChainRun {self.first_id}..{self.last_id} "
            f"type={self.cell_type.name!r}>"
        )


class TreeRun:
    """A binary tree of leaf and internal cells, kept as one record.

    Node ``first_id + i`` is a leaf (``left[i] < 0``) of ``leaf_type``
    reading ``token[i]`` as its ``leaf_input``, or an ``internal_type`` node
    whose ``left_inputs`` / ``right_inputs`` (input name -> child output
    name) read from nodes ``first_id + left[i]`` / ``first_id + right[i]``.
    Children come before parents, so the root is the last node; ``parent``
    is derived (-1 for the root).  Built and validated by
    :meth:`CellGraph.add_tree`.
    """

    __slots__ = (
        "first_id", "stop", "left", "right", "token", "parent",
        "leaf_type", "internal_type", "leaf_input", "left_inputs", "right_inputs",
        "consumers", "subgraph_ids",
    )

    def __init__(
        self,
        first_id: int,
        leaf_type: CellType,
        internal_type: CellType,
        left: Sequence[int],
        right: Sequence[int],
        token: Sequence[Any],
        parent: List[int],
        leaf_input: str,
        left_inputs: Dict[str, str],
        right_inputs: Dict[str, str],
    ):
        self.first_id = first_id
        self.stop = first_id + len(left)  # one past the root's id
        self.leaf_type = leaf_type
        self.internal_type = internal_type
        self.left = left
        self.right = right
        self.token = token
        self.parent = parent
        self.leaf_input = leaf_input
        self.left_inputs = left_inputs
        self.right_inputs = right_inputs
        # Tree node id -> ids of the explicit nodes (or later runs) that
        # consume its outputs.  The child-to-parent edges are implicit.
        self.consumers: Dict[int, List[int]] = {}
        # Set by the partition: each node's subgraph id (every leaf its
        # own, the internal nodes one between them).  An id, not the
        # subgraph: no graph record refers to a subgraph (DESIGN.md §24).
        self.subgraph_ids: List[Optional[int]] = [None] * len(left)

    @property
    def num_leaves(self) -> int:
        return (self.stop - self.first_id + 1) // 2  # every parent has two children

    def cell_type_of(self, node_id: int) -> CellType:
        if self.left[node_id - self.first_id] < 0:
            return self.leaf_type
        return self.internal_type

    def census(self) -> List[Tuple[str, int]]:
        leaves = self.num_leaves
        census = [(self.leaf_type.name, leaves)]
        if leaves > 1:
            census.append((self.internal_type.name, leaves - 1))
        return census

    def subgraph_id_of(self, node_id: int) -> Optional[int]:
        return self.subgraph_ids[node_id - self.first_id]

    def predecessors(self, node_id: int) -> List[int]:
        index, first = node_id - self.first_id, self.first_id
        if self.left[index] < 0:
            return []
        return [first + self.left[index], first + self.right[index]]

    def inputs_of(self, node_id: int) -> Dict[str, Any]:
        """The ``inputs`` dict an explicit node in this position would have."""
        first = self.first_id
        index = node_id - first
        if self.left[index] < 0:
            return {self.leaf_input: ValueInput(self.token[index])}
        left, right = first + self.left[index], first + self.right[index]
        inputs = {
            name: NodeOutput(left, output) for name, output in self.left_inputs.items()
        }
        for name, output in self.right_inputs.items():
            inputs[name] = NodeOutput(right, output)
        return inputs

    def successors(self, node_id: int) -> List[int]:
        parent = self.parent[node_id - self.first_id]
        following = [self.first_id + parent] if parent >= 0 else []
        return following + self.consumers.get(node_id, [])

    def __repr__(self) -> str:
        return f"<TreeRun {self.first_id}..{self.stop - 1} leaves={self.num_leaves}>"


class CellGraph:
    """A growable DAG of cell invocations for one request.

    Most models unfold statically at arrival; the dynamic decoders extend
    the graph while the request runs (:meth:`repro.models.base.Model.extend`).

    Node ids are dense (``0 .. len(graph) - 1``) in creation order.  Nodes
    added with :meth:`add_node` are *explicit*: their records sit in
    ``_nodes`` and their out-edges in ``_successors``.  A node of a run (a
    :class:`ChainRun` or a :class:`TreeRun`) is in neither; the run record
    answers for it.  ``done[node_id]`` is 1 once the node completed,
    whichever order its task retired in: every ``add_*`` grows it.
    """

    def __init__(self):
        self._nodes: Dict[int, CellNode] = {}  # the explicit nodes only
        self.done = bytearray()
        # Node id -> output name -> value: real compute's scatter fills it.
        self.outputs: Dict[int, Dict[str, Any]] = {}
        self._successors: Dict[int, List[int]] = {}
        self._runs: Tuple[Union[ChainRun, TreeRun], ...] = ()  # ascending first_id
        self._next_id = 0
        # (node_id, output name) pairs whose values form the request result.
        self.result_refs: List[Tuple[int, str]] = []

    # -- construction -----------------------------------------------------

    def add_node(self, cell_type: CellType, inputs: Dict[str, Any]) -> CellNode:
        """Append a node; ``inputs`` maps every cell input name to a
        ValueInput or a NodeOutput referencing an *existing* node."""
        missing = [n for n in cell_type.input_names if n not in inputs]
        if missing:
            raise ValueError(
                f"node of type {cell_type.name!r} missing inputs: {missing}"
            )
        nodes = self._nodes
        for ref in inputs.values():
            if isinstance(ref, NodeOutput):
                producer = nodes.get(ref.node_id)
                if producer is None or ref.output not in producer.cell_type.output_names:
                    self._check_ref(ref)  # raises, unless it names a run node
            elif not isinstance(ref, ValueInput):
                self._check_ref(ref)
        node = CellNode(self._next_id, cell_type, dict(inputs))
        nodes[node.node_id] = node
        self._successors[node.node_id] = []
        for pred in node.predecessors():
            try:
                self._successors[pred].append(node.node_id)
            except KeyError:
                self._link(pred, node.node_id)
        self._next_id += 1
        self.done.append(0)
        return node

    def add_run(
        self,
        shape: RunShape,
        steps: int,
        per_step: Dict[str, Sequence[Any]],
        initial: Optional[Dict[str, Any]] = None,
    ) -> ChainRun:
        """Append a chain of ``steps`` nodes of ``shape``'s cell type as one
        record.

        ``per_step`` maps each of the shape's per-step inputs to a sequence
        of ``steps`` request-provided values.  ``initial`` gives step 0's
        carried values when the request brings its own (ValueInput or
        NodeOutput, checked as :meth:`add_node` checks them); without it
        the run starts from the shape's.  The shape was checked when the
        model built it: here only what the request brings is — the step
        count, the per-step names and lengths, and its own initial values
        (DESIGN.md §39).  The mappings are kept by reference, not copied.

        The run is one subgraph.  An explicit node of the same cell type
        wired to it is not merged into that subgraph (it waits on an
        external edge instead, as ``extend``-grown nodes do); no model
        builds such a graph.
        """
        if steps < 1:
            raise ValueError(f"a run needs at least one step, got {steps}")
        if per_step.keys() != shape.per_step:
            raise ValueError(
                f"run of type {shape.cell_type.name!r} takes per-step inputs "
                f"{sorted(shape.per_step)}, got {sorted(per_step)}"
            )
        for name, values in per_step.items():
            if len(values) != steps:
                raise ValueError(
                    f"per-step run input {name!r} has {len(values)} "
                    f"values for {steps} steps"
                )
        if initial is None:
            initial = shape.initial
            if initial is None:
                raise ValueError(
                    f"run of type {shape.cell_type.name!r} has no initial values: "
                    f"its shape fixes none and none were given"
                )
            producers: Tuple[int, ...] = ()
        else:
            _check_initial_names(shape.carried, initial)
            found: List[int] = []
            for ref in initial.values():
                self._check_ref(ref)
                if isinstance(ref, NodeOutput) and ref.node_id not in found:
                    found.append(ref.node_id)
            producers = tuple(found)
        run = ChainRun(self._next_id, steps, shape, initial, per_step, producers)
        for producer_id in producers:
            self._link(producer_id, run.first_id)
        self._runs += (run,)
        self._next_id = run.stop
        self.done += bytes(steps)
        return run

    def add_tree(
        self,
        leaf_type: CellType,
        internal_type: CellType,
        left: Sequence[int],
        right: Sequence[int],
        token: Sequence[Any],
        leaf_input: str,
        left_inputs: Dict[str, str],
        right_inputs: Dict[str, str],
    ) -> TreeRun:
        """Append a binary tree as one record (see :class:`TreeRun` for the
        layout): ``left[i]`` / ``right[i]`` are the positions of node
        ``i``'s children, or negative for a leaf, which reads ``token[i]``.

        Validated here, once, to :meth:`add_node`'s standard — equal array
        lengths, children before parents, every node but the last the child
        of exactly one parent, every cell input fed and every child output
        named one both cell types have; the arrays and mappings are kept by
        reference, not copied.  Arrays that are no tree raise
        :class:`~repro.core.request.PayloadError`: a model passes a tree
        payload's arrays through, so the engine rejects that request.

        Each leaf is a subgraph of its own and the internal nodes are one
        more, as the generic partition would have it.
        """
        size = len(left)
        if size < 1 or len(right) != size or len(token) != size:
            raise PayloadError(
                f"tree arrays must have one common, positive length, got "
                f"left={size} right={len(right)} token={len(token)}"
            )
        missing = [n for n in leaf_type.input_names if n != leaf_input]
        if missing:
            raise ValueError(
                f"tree leaf of type {leaf_type.name!r} missing inputs: {missing}"
            )
        missing = [
            n
            for n in internal_type.input_names
            if n not in left_inputs and n not in right_inputs
        ]
        if missing:
            raise ValueError(
                f"tree node of type {internal_type.name!r} missing inputs: {missing}"
            )
        both = [n for n in left_inputs if n in right_inputs]
        if both:
            raise ValueError(f"tree inputs {both} read from both children")
        for output in (*left_inputs.values(), *right_inputs.values()):
            for child_type in (leaf_type, internal_type):
                if output not in child_type.output_names:
                    raise ValueError(
                        f"tree child of type {child_type.name!r} has no "
                        f"output {output!r}"
                    )
        parent = [-1] * size
        for index in range(size):
            lhs, rhs = left[index], right[index]
            if lhs < 0 and rhs < 0:
                continue  # a leaf
            if (
                not (0 <= lhs < index and 0 <= rhs < index and lhs != rhs)
                or parent[lhs] >= 0
                or parent[rhs] >= 0
            ):
                raise PayloadError(
                    f"tree node {index} has children ({lhs}, {rhs}): it needs two, "
                    f"each before it and the child of no other node"
                )
            parent[lhs] = parent[rhs] = index
        if parent.count(-1) != 1:  # the last node can have no parent
            raise PayloadError(
                f"tree has {parent.count(-1)} roots: every node but the last "
                f"must be some node's child"
            )
        tree = TreeRun(
            self._next_id,
            leaf_type,
            internal_type,
            left,
            right,
            token,
            parent,
            leaf_input,
            left_inputs,
            right_inputs,
        )
        self._runs += (tree,)
        self._next_id = tree.stop
        self.done += bytes(size)
        return tree

    def _check_ref(self, ref: Any) -> None:
        """Raise unless ``ref`` is a ValueInput or names an output that an
        existing node — explicit or of a run — has."""
        if isinstance(ref, NodeOutput):
            self._check_output(ref.node_id, ref.output)
        elif not isinstance(ref, ValueInput):
            raise TypeError(f"inputs must be ValueInput/NodeOutput, got {ref!r}")

    def _check_output(self, node_id: int, output: str) -> None:
        try:
            cell_type = self.cell_type_of(node_id)
        except KeyError:
            raise ValueError(f"reference to unknown node {node_id}") from None
        if output not in cell_type.output_names:
            raise ValueError(
                f"node {node_id} ({cell_type.name!r}) has no output {output!r}"
            )

    def _link(self, producer_id: int, consumer_id: int) -> None:
        """Record that ``consumer_id`` reads an output of ``producer_id``."""
        successors = self._successors.get(producer_id)
        if successors is None:  # a run node: the run keeps its out-edges
            run = self._run_of(producer_id)
            successors = run.consumers.setdefault(producer_id, [])
        successors.append(consumer_id)

    def mark_result(self, node_id: int, output: str) -> None:
        """Declare output ``output`` of node ``node_id`` part of the
        request's final result."""
        self._check_output(node_id, output)
        self.result_refs.append((node_id, output))

    # -- the view, by node id ----------------------------------------------
    # Each answers for an explicit node from its CellNode and for any other
    # node from the run record holding it; an id the graph does not hold
    # raises KeyError.  The explicit branch is a membership test, not a
    # call: the engine asks these once per completed cell.

    def cell_type_of(self, node_id: int) -> CellType:
        nodes = self._nodes
        if node_id in nodes:
            return nodes[node_id].cell_type
        return self._run_of(node_id).cell_type_of(node_id)

    def inputs_of(self, node_id: int) -> Dict[str, Any]:
        """Input name -> ValueInput | NodeOutput, in the cell's input order
        (an explicit node's own dict; a run node's built afresh)."""
        nodes = self._nodes
        if node_id in nodes:
            return nodes[node_id].inputs
        return self._run_of(node_id).inputs_of(node_id)

    def predecessors(self, node_id: int) -> List[int]:
        """Ids of the nodes ``node_id`` reads from, each once, in input order."""
        nodes = self._nodes
        if node_id in nodes:
            return nodes[node_id].predecessors()
        return self._run_of(node_id).predecessors(node_id)

    def successors(self, node_id: int) -> Sequence[int]:
        successors = self._successors
        if node_id in successors:
            return successors[node_id]
        return self._run_of(node_id).successors(node_id)

    def subgraph_id_of(self, node_id: int) -> Optional[int]:
        """Id of the subgraph the partition put ``node_id`` in (None before)."""
        nodes = self._nodes
        if node_id in nodes:
            return nodes[node_id].subgraph_id
        return self._run_of(node_id).subgraph_id_of(node_id)

    def explicit_nodes(self) -> Dict[int, CellNode]:
        """The nodes added with :meth:`add_node`, by id in id order (the
        graph's own dict, not a copy)."""
        return self._nodes

    def runs(self) -> Sequence[Union[ChainRun, TreeRun]]:
        return self._runs

    def __len__(self) -> int:
        return self._next_id

    def __contains__(self, node_id: int) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < self._next_id

    def _run_of(self, node_id: int) -> Union[ChainRun, TreeRun]:
        # A request has a handful of runs at most; a scan beats bisecting.
        for run in self._runs:
            if run.first_id <= node_id < run.stop:
                return run
        raise KeyError(node_id)

    # -- results -----------------------------------------------------------

    def collect_results(self) -> List[Any]:
        """Gather the declared result values (real-compute mode)."""
        results = []
        for node_id, output in self.result_refs:
            produced = self.outputs.get(node_id)
            if produced is None:
                raise RuntimeError(f"result node {node_id} has not been executed")
            results.append(produced[output])
        return results

    def cell_type_census(self) -> Dict[str, int]:
        """Node counts per cell type, used by tests and the Ideal baseline."""
        census: Dict[str, int] = {}
        for node in self._nodes.values():
            census[node.cell_type.name] = census.get(node.cell_type.name, 0) + 1
        for run in self._runs:
            for name, count in run.census():
                census[name] = census.get(name, 0) + count
        return census
