"""Build servers from :class:`~repro.registry.specs.ServerSpec`.

One construction path for BatchMaker and every graph-batching baseline.
The built server gets its originating spec attached as ``server.spec``,
so the registry round-trips: ``build_server(spec).spec == spec``.

Runtime-only objects (the event loop, a cost model, fault plans, SLAs)
are not part of the spec — they are passed as overrides to
:func:`build_server` and never serialised.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.baselines import FoldServer, IdealServer, PaddedServer, TimeoutPaddedServer
from repro.core.batchmaker import BatchMakerServer
from repro.core.config import BatchingConfig
from repro.policies import bundle_from_names
from repro.registry.models import make_model
from repro.registry.specs import ServerSpec
from repro.server import InferenceServer
from repro.sim.events import EventLoop


def build_server(
    spec: ServerSpec,
    loop: Optional[EventLoop] = None,
    **runtime: Any,
) -> InferenceServer:
    """Construct the server a spec describes.

    ``runtime`` carries non-serialisable per-run objects; which keys are
    accepted depends on the kind (``cost_model`` / ``real_compute`` /
    ``fault_plan`` / ``sla`` / ``memory`` / ``energy`` / ``policies`` for
    batchmaker — an explicit ``policies`` bundle overrides the spec's
    policy names).
    """
    builder = _BUILDERS.get(spec.kind)
    if builder is None:  # unreachable: ServerSpec validates kind
        raise ValueError(f"unknown server kind {spec.kind!r}")
    if spec.memory is not None and spec.kind != "batchmaker":
        raise ValueError(
            f"memory specs require the batchmaker engine, not {spec.kind!r}: "
            "the graph-batching baselines have no per-subgraph state to account"
        )
    if spec.energy is not None and spec.kind != "batchmaker":
        raise ValueError(
            f"energy specs require the batchmaker engine, not {spec.kind!r}: "
            "the graph-batching baselines have no per-device joule accounting"
        )
    server = builder(spec, loop, runtime)
    if runtime:
        raise TypeError(
            f"unsupported runtime overrides for kind {spec.kind!r}: "
            f"{sorted(runtime)}"
        )
    server.spec = spec
    return server


def _named(spec: ServerSpec) -> Dict[str, Any]:
    return {} if spec.name is None else {"name": spec.name}


def _build_batchmaker(spec, loop, runtime):
    config = (
        BatchingConfig.from_dict(spec.config) if spec.config is not None else None
    )
    policies = runtime.pop("policies", None)
    if policies is None and spec.policies:
        policies = bundle_from_names(**spec.policies)
    sla = runtime.pop("sla", None)
    if sla is None and spec.sla:
        from repro.faults.sla import SLAConfig

        sla = SLAConfig.from_dict(spec.sla)
    memory = runtime.pop("memory", None)
    if memory is None and spec.memory:
        from repro.gpu.memory import MemorySpec

        memory = MemorySpec.from_dict(spec.memory)
    energy = runtime.pop("energy", None)
    if energy is None and spec.energy:
        from repro.gpu.energy import EnergySpec

        energy = EnergySpec.from_dict(spec.energy)
    return BatchMakerServer(
        make_model(spec.model, **spec.model_args),
        config=config,
        num_gpus=spec.num_gpus,
        loop=loop,
        policies=policies,
        cost_model=runtime.pop("cost_model", None),
        real_compute=runtime.pop("real_compute", False),
        fault_plan=runtime.pop("fault_plan", None),
        sla=sla,
        memory=memory,
        energy=energy,
        **_named(spec),
    )


def _build_padded(spec, loop, runtime, cls=PaddedServer):
    return cls(
        make_model(spec.model, **spec.model_args),
        num_gpus=spec.num_gpus,
        loop=loop,
        **_named(spec),
        **spec.params,
    )


def _build_timeout_padded(spec, loop, runtime):
    return _build_padded(spec, loop, runtime, cls=TimeoutPaddedServer)


def _build_fold(spec, loop, runtime):
    params = dict(spec.params)
    variant = params.pop("variant", None)
    model = make_model(spec.model, **spec.model_args)
    kwargs = {"num_gpus": spec.num_gpus, "loop": loop, **_named(spec), **params}
    if variant == "dynet":
        return FoldServer.dynet(model, **kwargs)
    if variant == "tensorflow_fold":
        return FoldServer.tensorflow_fold(model, **kwargs)
    if variant is not None:
        raise ValueError(f"unknown fold variant {variant!r}")
    return FoldServer(model, **kwargs)


def _build_ideal(spec, loop, runtime):
    params = dict(spec.params)
    template = params.pop("template")
    return IdealServer(
        make_model(spec.model, **spec.model_args),
        _resolve_template(template),
        num_gpus=spec.num_gpus,
        loop=loop,
        **_named(spec),
        **params,
    )


def _resolve_template(template: Any):
    """The ideal server's hard-coded structure, from serialisable form.

    ``{"complete_tree_leaves": N}`` describes a complete binary tree
    (Figure 15); ``{"chain_length": N}`` a fixed-length chain; any other
    value is passed through verbatim as the template payload.
    """
    if isinstance(template, dict) and "complete_tree_leaves" in template:
        from repro.models.tree_lstm import TreePayload

        return TreePayload.complete(template["complete_tree_leaves"])
    if isinstance(template, dict) and "chain_length" in template:
        return template["chain_length"]
    return template


_BUILDERS = {
    "batchmaker": _build_batchmaker,
    "padded": _build_padded,
    "timeout_padded": _build_timeout_padded,
    "fold": _build_fold,
    "ideal": _build_ideal,
}
