"""Tests for CellGraph construction and partitioning into subgraphs."""

import pytest

from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, NodeOutput, RunShape, ValueInput
from repro.core.request import InferenceRequest
from repro.core.subgraph import partition_into_subgraphs
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload


@pytest.fixture
def lstm_type():
    return CellType("lstm", ("ids", "h", "c"), ("h", "c"))


def build_chain(lstm_type, length):
    graph = CellGraph()
    prev = None
    for t in range(length):
        inputs = {"ids": ValueInput(t)}
        if prev is None:
            inputs["h"] = ValueInput(None)
            inputs["c"] = ValueInput(None)
        else:
            inputs["h"] = NodeOutput(prev.node_id, "h")
            inputs["c"] = NodeOutput(prev.node_id, "c")
        prev = graph.add_node(lstm_type, inputs)
    graph.mark_result(prev.node_id, "h")
    return graph


class TestGraphConstruction:
    def test_missing_input_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(ValueError, match="missing inputs"):
            graph.add_node(lstm_type, {"ids": ValueInput(0)})

    def test_unknown_node_reference_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(ValueError, match="unknown node"):
            graph.add_node(
                lstm_type,
                {
                    "ids": ValueInput(0),
                    "h": NodeOutput(42, "h"),
                    "c": ValueInput(None),
                },
            )

    def test_unknown_output_reference_raises(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(ValueError, match="no output"):
            graph.add_node(
                lstm_type,
                {
                    "ids": ValueInput(0),
                    "h": NodeOutput(0, "bogus"),
                    "c": NodeOutput(0, "c"),
                },
            )

    def test_bad_input_type_raises(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(TypeError):
            graph.add_node(
                lstm_type, {"ids": 5, "h": ValueInput(None), "c": ValueInput(None)}
            )

    def test_predecessors_are_deduped(self, lstm_type):
        graph = build_chain(lstm_type, 2)
        # Node 1 consumes both h and c of node 0 — one unique predecessor.
        assert graph.predecessors(1) == [0]

    def test_successors(self, lstm_type):
        graph = build_chain(lstm_type, 3)
        assert list(graph.successors(0)) == [1]
        assert list(graph.successors(2)) == []

    def test_mark_result_validates_output_name(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(ValueError, match="no output"):
            graph.mark_result(0, "bogus")

    def test_census(self, lstm_type):
        graph = build_chain(lstm_type, 4)
        assert graph.cell_type_census() == {"lstm": 4}

    def test_collect_results_requires_execution(self, lstm_type):
        graph = build_chain(lstm_type, 1)
        with pytest.raises(RuntimeError, match="not been executed"):
            graph.collect_results()


def add_chain_run(graph, lstm_type, steps, **overrides):
    """A chain run whose initial values the request brings, so that every
    check — the shape's and the request's — runs on each call."""
    spec = dict(
        carried={"h": "h", "c": "c"},
        initial={"h": ValueInput(None), "c": ValueInput(None)},
        per_step={"ids": list(range(steps))},
    )
    spec.update(overrides)
    shape = RunShape(lstm_type, spec["carried"], spec["per_step"])
    return graph.add_run(shape, steps, spec["per_step"], initial=spec["initial"])


class TestRuns:
    """``add_run``: one record for a chain, validated once, answering for
    its nodes by id (the graph-view equality with explicit nodes is held by
    tests/test_chain_runs.py)."""

    def test_run_reserves_dense_ids_without_building_nodes(self, lstm_type):
        graph = CellGraph()
        first = graph.add_node(lstm_type, {
            "ids": ValueInput(0), "h": ValueInput(None), "c": ValueInput(None),
        })
        run = add_chain_run(graph, lstm_type, 5)
        after = graph.add_node(lstm_type, {
            "ids": ValueInput(0), "h": ValueInput(None), "c": ValueInput(None),
        })
        assert (first.node_id, run.first_id, run.last_id, after.node_id) == (0, 1, 5, 6)
        assert run.steps == 5 and len(graph) == 7
        assert list(graph._nodes) == [0, 6], "run nodes have no record"
        assert graph.cell_type_census() == {"lstm": 7}
        assert list(graph.explicit_nodes()) == [0, 6]
        assert graph.explicit_nodes()[6] is after
        assert 5 in graph and 7 not in graph and "x" not in graph
        assert [graph.cell_type_of(i).name for i in range(7)] == ["lstm"] * 7
        assert list(graph._nodes) == [0, 6], "the view by id builds nothing"
        assert graph.done == bytearray(7), "one completion byte per node id"

    def test_run_node_view_and_state_are_kept_by_id(self, lstm_type):
        graph = CellGraph()
        run = add_chain_run(graph, lstm_type, 3)
        graph.mark_result(2, "h")
        graph.outputs[2] = {"h": "row", "c": "cell"}
        assert graph.collect_results() == ["row"]
        assert graph.predecessors(1) == [0] and graph.predecessors(0) == []
        assert list(graph.successors(1)) == [2]
        assert list(graph.successors(2)) == []
        assert graph.inputs_of(1)["ids"].value == 1
        assert graph.subgraph_id_of(1) is None
        run.subgraph_id = 4
        assert [graph.subgraph_id_of(i) for i in range(3)] == [4, 4, 4]
        assert not graph._nodes
        for view in (
            graph.cell_type_of, graph.inputs_of, graph.predecessors,
            graph.successors, graph.subgraph_id_of,
        ):
            with pytest.raises(KeyError):
                view(3)

    # -- validation through ids that have no node object yet ------------------

    def test_explicit_node_may_consume_an_unbuilt_run_node(self, lstm_type):
        proj_type = CellType("proj", ("h",), ("token",))
        graph = CellGraph()
        run = add_chain_run(graph, lstm_type, 4)
        proj = graph.add_node(proj_type, {"h": NodeOutput(run.last_id, "h")})
        mid = graph.add_node(proj_type, {"h": NodeOutput(1, "h")})
        assert list(graph._nodes) == [proj.node_id, mid.node_id]
        assert list(graph.successors(run.last_id)) == [proj.node_id]
        # The implicit step edge comes first, as it would with explicit nodes.
        assert list(graph.successors(1)) == [2, mid.node_id]
        assert proj.predecessors() == [run.last_id]

    def test_reference_past_the_run_raises(self, lstm_type):
        proj_type = CellType("proj", ("h",), ("token",))
        graph = CellGraph()
        run = add_chain_run(graph, lstm_type, 4)
        with pytest.raises(ValueError, match="unknown node"):
            graph.add_node(proj_type, {"h": NodeOutput(run.last_id + 1, "h")})
        with pytest.raises(ValueError, match="unknown node"):
            graph.add_node(proj_type, {"h": NodeOutput(-1, "h")})
        assert len(graph) == 4

    def test_bad_output_of_an_unbuilt_run_node_raises(self, lstm_type):
        proj_type = CellType("proj", ("h",), ("token",))
        graph = CellGraph()
        run = add_chain_run(graph, lstm_type, 4)
        with pytest.raises(ValueError, match="no output 'logits'"):
            graph.add_node(proj_type, {"h": NodeOutput(run.last_id, "logits")})
        assert len(graph) == 4 and not graph._nodes

    def test_mark_result_takes_a_run_node_id(self, lstm_type):
        graph = CellGraph()
        run = add_chain_run(graph, lstm_type, 300)
        graph.mark_result(run.last_id, "h")
        assert graph.result_refs == [(299, "h")]
        assert not graph._nodes, "marking the result made a record"
        with pytest.raises(ValueError, match="no output"):
            graph.mark_result(run.last_id, "bogus")
        with pytest.raises(ValueError, match="unknown node"):
            graph.mark_result(300, "h")
        graph.mark_result(0, "c")
        assert graph.result_refs == [(299, "h"), (0, "c")]
        with pytest.raises(RuntimeError, match="not been executed"):
            graph.collect_results()

    def test_run_initial_may_reference_an_earlier_run(self, lstm_type):
        graph = CellGraph()
        encoder = add_chain_run(graph, lstm_type, 3)
        decoder = add_chain_run(
            graph,
            lstm_type,
            2,
            initial={
                "h": NodeOutput(encoder.last_id, "h"),
                "c": NodeOutput(encoder.last_id, "c"),
            },
        )
        assert list(graph.successors(encoder.last_id)) == [decoder.first_id]
        assert graph.predecessors(decoder.first_id) == [encoder.last_id]
        assert not graph._successors

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"per_step": {}}, "missing inputs: \\['ids'\\]"),
            ({"carried": {"h": "h"}, "initial": {"h": ValueInput(None)}}, "missing inputs: \\['c'\\]"),
            ({"carried": {"h": "h", "c": "cell"}}, "no output 'cell'"),
            ({"initial": {"h": ValueInput(None)}}, "'c' has no initial value"),
            (
                {"initial": {"h": ValueInput(None), "c": ValueInput(None), "ids": ValueInput(0)}},
                "non-carried run inputs \\['ids'\\]",
            ),
            ({"per_step": {"ids": [0, 1]}}, "2 values for 3 steps"),
            ({"per_step": {"ids": [0, 1, 2], "h": [0, 1, 2]}}, "both carried and per-step"),
            (
                {"initial": {"h": NodeOutput(9, "h"), "c": ValueInput(None)}},
                "unknown node 9",
            ),
        ],
    )
    def test_run_is_validated_once_up_front(self, lstm_type, overrides, match):
        graph = CellGraph()
        with pytest.raises(ValueError, match=match):
            add_chain_run(graph, lstm_type, 3, **overrides)
        assert len(graph) == 0 and not graph.runs()

    def test_run_rejects_zero_steps_and_raw_initial_values(self, lstm_type):
        graph = CellGraph()
        with pytest.raises(ValueError, match="at least one step"):
            add_chain_run(graph, lstm_type, 0, per_step={"ids": []})
        with pytest.raises(TypeError):
            add_chain_run(graph, lstm_type, 2, per_step={"ids": [0, 1]},
                          initial={"h": 0.0, "c": ValueInput(None)})

    def test_a_shape_fixes_the_model_half_once(self, lstm_type):
        """What a model fixes is checked when it builds its ``RunShape``;
        ``add_run`` checks only what the request brings — the step count,
        the per-step names and lengths, its own initial values."""
        zeros = {"h": ValueInput(None), "c": ValueInput(None)}
        shape = RunShape(lstm_type, {"h": "h", "c": "c"}, ("ids",), zeros)
        graph = CellGraph()
        run = graph.add_run(shape, 3, {"ids": [4, 5, 6]})
        assert run.initial is zeros and run.producers == ()
        assert (run.cell_type, run.carried) == (lstm_type, shape.carried)
        assert graph.inputs_of(0)["h"] is zeros["h"]
        with pytest.raises(ValueError, match="takes per-step inputs \\['ids'\\], got \\['pos'\\]"):
            graph.add_run(shape, 1, {"pos": [0]})
        with pytest.raises(ValueError, match="at least one step"):
            graph.add_run(shape, 0, {"ids": []})
        with pytest.raises(ValueError, match="1 values for 2 steps"):
            graph.add_run(shape, 2, {"ids": [0]})
        assert len(graph) == 3 and len(graph.runs()) == 1
        # A shape's own initial values are the same for every request:
        # ValueInputs only, and the carried names exactly.
        with pytest.raises(TypeError, match="must be ValueInputs"):
            RunShape(lstm_type, {"h": "h", "c": "c"}, ("ids",),
                     {"h": NodeOutput(run.last_id, "h"), "c": ValueInput(None)})
        with pytest.raises(ValueError, match="'c' has no initial value"):
            RunShape(lstm_type, {"h": "h", "c": "c"}, ("ids",), {"h": ValueInput(None)})
        # Without them, each request brings its own.
        bare = RunShape(lstm_type, {"h": "h", "c": "c"}, ("ids",))
        with pytest.raises(ValueError, match="no initial values"):
            graph.add_run(bare, 1, {"ids": [0]})
        follow = graph.add_run(
            bare, 1, {"ids": [0]},
            initial={"h": NodeOutput(run.last_id, "h"), "c": NodeOutput(run.last_id, "c")},
        )
        assert follow.producers == (run.last_id,)
        assert graph.predecessors(follow.first_id) == [run.last_id]


def add_small_tree(graph, **overrides):
    """((a b) c) at positions 0..4 unless ``overrides`` says otherwise."""
    spec = dict(
        leaf_type=CellType("tree_leaf", ("ids",), ("h", "c")),
        internal_type=CellType("tree_internal", ("h_l", "c_l", "h_r", "c_r"), ("h", "c")),
        left=[-1, -1, 0, -1, 2],
        right=[-1, -1, 1, -1, 3],
        token=[7, 8, None, 9, None],
        leaf_input="ids",
        left_inputs={"h_l": "h", "c_l": "c"},
        right_inputs={"h_r": "h", "c_r": "c"},
    )
    spec.update(overrides)
    return graph.add_tree(**spec)


class TestTrees:
    """``add_tree``: one record for a parse tree, validated once, answering
    for its nodes by id (``tests/test_tree_runs.py`` holds the whole view to
    the per-node oracle)."""

    def test_tree_reserves_dense_ids_after_earlier_nodes(self, lstm_type):
        graph = CellGraph()
        add_chain_run(graph, lstm_type, 3)
        tree = add_small_tree(graph)
        assert (tree.first_id, tree.stop, tree.num_leaves) == (3, 8, 3)
        assert len(graph) == 8 and not graph._nodes and len(graph.runs()) == 2
        assert graph.done == bytearray(8), "one completion byte per node id"
        assert tree.parent == [2, 2, 4, 4, -1]
        assert graph.predecessors(7) == [5, 6]
        assert graph.predecessors(5) == [3, 4]
        assert graph.predecessors(6) == []
        assert graph.inputs_of(6)["ids"].value == 9
        assert [list(graph.successors(i)) for i in range(3, 8)] == [[5], [5], [7], [7], []]
        assert graph.cell_type_census() == {"lstm": 3, "tree_leaf": 3, "tree_internal": 2}
        graph.mark_result(7, "h")
        with pytest.raises(ValueError, match="no output 'logits'"):
            graph.mark_result(6, "logits")

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"right": [-1, -1, 1, -1]}, "one common, positive length"),
            ({"token": [7, 8, None, 9]}, "one common, positive length"),
            ({"left": [], "right": [], "token": []}, "one common, positive length"),
            ({"left": [-1, -1, 4, -1, 2]}, "node 2 has children \\(4, 1\\)"),
            ({"left": [-1, -1, 2, -1, 2]}, "node 2 has children \\(2, 1\\)"),
            ({"right": [-1, -1, -1, -1, 3]}, "node 2 has children \\(0, -1\\)"),
            ({"right": [-1, -1, 0, -1, 3]}, "node 2 has children \\(0, 0\\)"),
            ({"left": [-1, -1, 0, -1, 0]}, "node 4 has children \\(0, 3\\)"),
            ({"left": [-1, -1, 0, -1, -1], "right": [-1, -1, 1, -1, -1]}, "tree has 3 roots"),
            (
                {"left": [-1, -1, 0, -1], "right": [-1, -1, 1, -1], "token": [7, 8, None, 9]},
                "tree has 2 roots",
            ),
            ({"leaf_input": "idz"}, "missing inputs: \\['ids'\\]"),
            ({"right_inputs": {"h_r": "h"}}, "missing inputs: \\['c_r'\\]"),
            ({"right_inputs": {"h_r": "h", "c_r": "c", "h_l": "h"}}, "\\['h_l'\\] read from both"),
            ({"left_inputs": {"h_l": "h", "c_l": "cell"}}, "no output 'cell'"),
        ],
    )
    def test_tree_is_validated_once_up_front(self, overrides, match):
        graph = CellGraph()
        with pytest.raises(ValueError, match=match):
            add_small_tree(graph, **overrides)
        assert len(graph) == 0 and not graph.runs()

    def test_child_output_must_exist_on_both_cell_types(self):
        graph = CellGraph()
        leaf_only = CellType("tree_leaf", ("ids",), ("h", "c", "x"))
        with pytest.raises(ValueError, match="'tree_internal' has no output 'x'"):
            add_small_tree(graph, leaf_type=leaf_only, left_inputs={"h_l": "x", "c_l": "c"})


class TestPartitioning:
    def _partition(self, model, payload):
        graph = CellGraph()
        model.unfold(graph, payload)
        request = InferenceRequest(0, payload, 0.0)
        request.graph = graph
        return graph, partition_into_subgraphs(graph, request)

    def test_lstm_chain_is_one_subgraph(self):
        model = LSTMChainModel()
        graph, subgraphs = self._partition(model, 10)
        assert len(subgraphs) == 1
        assert len(subgraphs[0].node_ids) == 10
        assert subgraphs[0].cell_type_name == "lstm"

    def test_seq2seq_yields_encoder_and_decoder_subgraphs(self):
        model = Seq2SeqModel()
        graph, subgraphs = self._partition(model, {"src": 6, "tgt_len": 4})
        by_type = {sg.cell_type_name: sg for sg in subgraphs}
        assert set(by_type) == {"encoder", "decoder"}
        assert len(by_type["encoder"].node_ids) == 6
        assert len(by_type["decoder"].node_ids) == 4

    def test_complete_tree_partition_matches_paper_example(self):
        # §4.4: a complete binary tree with 16 leaves -> 17 subgraphs: one
        # with the 15 internal nodes (31-node tree) and 16 leaf singletons.
        model = TreeLSTMModel()
        payload = TreePayload.complete(16)
        graph, subgraphs = self._partition(model, payload)
        leaf_sgs = [s for s in subgraphs if s.cell_type_name == "tree_leaf"]
        internal_sgs = [s for s in subgraphs if s.cell_type_name == "tree_internal"]
        assert len(leaf_sgs) == 16
        assert all(len(s.node_ids) == 1 for s in leaf_sgs)
        assert len(internal_sgs) == 1
        assert len(internal_sgs[0].node_ids) == 15

    def test_external_dependencies_counted(self):
        model = Seq2SeqModel()
        graph, subgraphs = self._partition(model, {"src": 3, "tgt_len": 2})
        by_type = {sg.cell_type_name: sg for sg in subgraphs}
        assert by_type["encoder"].external_pending == 0
        # Decoder's first cell waits on the encoder's final state.
        assert by_type["decoder"].external_pending == 1

    def test_initial_ready_nodes_are_sources_only(self):
        model = TreeLSTMModel()
        payload = TreePayload.complete(4)
        graph, subgraphs = self._partition(model, payload)
        internal = next(
            s for s in subgraphs if s.cell_type_name == "tree_internal"
        )
        # Bottom internal level (2 nodes) depends only on leaves (external),
        # so both are ready within the subgraph; the root is not.
        assert internal.ready_count == 2

    def test_subgraph_ids_are_assigned(self):
        model = LSTMChainModel()
        graph, subgraphs = self._partition(model, 5)
        for node_id in range(len(graph)):
            assert graph.subgraph_id_of(node_id) == subgraphs[0].subgraph_id
