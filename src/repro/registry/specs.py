"""Declarative server specifications.

A :class:`ServerSpec` is plain data describing one inference server —
which engine (``kind``), which model, how many GPUs, the batching config,
the scheduling-policy names, and engine-specific parameters.  It exists
so BatchMaker and the four graph-batching baselines are constructed
through *one* code path (:func:`repro.registry.build_server`) instead of
each experiment module repeating constructor plumbing, and so a server's
identity round-trips: ``build(spec).spec == spec`` and
``ServerSpec.from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.spec import Spec

KINDS = ("batchmaker", "padded", "timeout_padded", "fold", "ideal")


def _copy(block: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    return None if block is None else dict(block)


class ServerSpec(Spec):
    """One server, as data.

    Parameters
    ----------
    kind:
        Engine: ``batchmaker`` (cellular batching) or one of the
        graph-batching baselines ``padded`` / ``timeout_padded`` /
        ``fold`` / ``ideal``.
    model:
        Registered model name (see :mod:`repro.registry.models`).
    model_args:
        Keyword arguments for the model constructor.
    num_gpus:
        Worker/device count.
    name:
        Display name; None lets the server pick its own default.
    config:
        ``BatchingConfig.to_dict()`` form (batchmaker only); None means
        the server's default config.
    policies:
        Policy-name overrides, e.g. ``{"placement": "unpinned"}``
        (batchmaker only); None or ``{}`` means the paper defaults —
        the bit-identity-guaranteed path.
    params:
        Engine-specific knobs: bucket_width / max_batch /
        per_batch_overhead ... for the padded servers, ``variant`` or
        overhead constants for fold, ``template`` for ideal.
    sla:
        ``SLAConfig.to_dict()`` form (batchmaker only): deadlines,
        shedding, retry and lazy-kick knobs (see :mod:`repro.faults.sla`);
        None means no SLA — the bit-identity-guaranteed path.  A runtime
        ``sla=`` override passed to ``build_server`` wins over this field.
    memory:
        ``MemorySpec.to_dict()`` form (batchmaker only): per-device byte
        capacity, weight residency and per-request state footprint (see
        :mod:`repro.gpu.memory`); None means the historical time-only
        device model — the bit-identity-guaranteed path.  A runtime
        ``memory=`` override passed to ``build_server`` wins over this
        field.
    energy:
        ``EnergySpec.to_dict()`` form (batchmaker only): idle/active power,
        DVFS frequency states and the governor that drives them (see
        :mod:`repro.gpu.energy`); None means the energy-blind engine — the
        bit-identity-guaranteed path.  A runtime ``energy=`` override
        passed to ``build_server`` wins over this field.
    """

    kind: str
    model: str
    model_args: Optional[Dict[str, Any]] = None
    num_gpus: int = 1
    name: Optional[str] = None
    config: Optional[Dict[str, Any]] = None
    policies: Optional[Dict[str, str]] = None
    params: Optional[Dict[str, Any]] = None
    sla: Optional[Dict[str, Any]] = None
    memory: Optional[Dict[str, Any]] = None
    energy: Optional[Dict[str, Any]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown server kind {self.kind!r} (have: {KINDS})")
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.model_args = dict(self.model_args or {})
        self.policies = dict(self.policies or {})
        self.params = dict(self.params or {})
        self.sla = _copy(self.sla)
        self.memory = _copy(self.memory)
        self.energy = _copy(self.energy)

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "<default name>"
        return (
            f"ServerSpec({self.kind}, model={self.model}, "
            f"num_gpus={self.num_gpus}, name={label!r})"
        )


class ClusterSpec(Spec):
    """A serving cluster, as data: N replicas of one :class:`ServerSpec`
    behind a front-end router (see :mod:`repro.cluster`).

    Parameters
    ----------
    replica:
        The spec every replica is built from.  Without ``device_classes``
        the cluster is homogeneous; with them, replicas are built from the
        same spec re-calibrated per class (cost-model tables, latency
        scale, energy envelope).
    num_replicas:
        Initial replica count (the autoscaler may add or drain replicas
        at runtime, within its configured bounds).
    router:
        Routing-policy name, a key of ``repro.cluster.routing.ROUTERS``
        (``round_robin`` / ``least_outstanding`` / ``shortest_queue`` /
        ``predicted_delay`` / ``most_free_memory`` / ``cheapest_energy`` /
        ``length_bucketed`` / ``class_affinity``); validated when the
        cluster is built, so specs stay plain data.
    router_params:
        Policy knobs, e.g. ``{"bucket_width": 16}`` for length-bucketed
        routing.
    seed:
        Base seed for routing tie-breaks — every tie-break is a pure
        function of ``(seed, request_id)`` and the tied replica ids.
    autoscaler:
        ``AutoscalerConfig.to_dict()`` form (see
        :mod:`repro.cluster.autoscaler`); None disables autoscaling and
        the cluster keeps exactly ``num_replicas`` replicas.
    name:
        Display name; None derives one from the router and replica count.
    sla:
        ``SLAConfig.to_dict()`` form for the *front door*: cluster-level
        admission control sheds arrivals whose predicted completion misses
        their deadline (``default_deadline``) or whose best predicted wait
        exceeds ``max_queue_delay``.  Independent of the replica spec's
        own ``sla``; None disables admission control entirely.
    memory:
        ``MemorySpec.to_dict()`` form for the *front door*: when its
        ``admission_free_bytes`` is set, arrivals are rejected while no
        alive replica reports at least that much free device memory
        (``"memory_reject"``).  Routing by free memory additionally needs
        the replica spec itself to carry a ``memory`` field — without one
        every replica reports infinite free bytes and this is inert.
    energy:
        ``EnergySpec.to_dict()`` form applied as the *default* energy
        envelope of every batchmaker replica that does not carry its own
        ``energy`` field (a device class's ``energy`` entry wins over
        this).  None leaves replicas exactly as their spec declares them —
        the bit-identity-guaranteed path.
    device_classes:
        Heterogeneous fleet declaration: a list of dicts, one per device
        class, each with ``name`` (unique), ``replicas`` (how many of the
        initial fleet are this class), and optionally ``latency_scale``
        (uniform slowdown of the replica's calibrated cost model, > 0,
        e.g. 2.0 for a device half as fast), ``tables`` (cell-name ->
        :data:`repro.gpu.costmodel.NAMED_TABLES` entry, re-calibrating
        individual cells, e.g. ``{"lstm": "cpu_lstm_step"}``) and
        ``energy`` (``EnergySpec.to_dict()`` form for this class).  Class
        replica counts must sum to ``num_replicas``; initial replica ids
        are assigned to classes in declaration order.  Autoscaler spawns
        pick the class most under-provisioned relative to the declared
        mix.  None (the default) keeps the homogeneous cluster.
    """

    replica: ServerSpec
    num_replicas: int = 1
    router: str = "round_robin"
    router_params: Optional[Dict[str, Any]] = None
    seed: int = 0
    autoscaler: Optional[Dict[str, Any]] = None
    name: Optional[str] = None
    sla: Optional[Dict[str, Any]] = None
    memory: Optional[Dict[str, Any]] = None
    energy: Optional[Dict[str, Any]] = None
    device_classes: Optional[list] = None

    def __post_init__(self):
        if not isinstance(self.replica, ServerSpec):
            raise TypeError(f"replica must be a ServerSpec, got {type(self.replica)!r}")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.device_classes is not None:
            self.device_classes = classes = [dict(c) for c in self.device_classes]
            if not classes:
                raise ValueError("device_classes must be non-empty when given")
            names = [c.get("name") for c in classes]
            if any(not isinstance(n, str) or not n for n in names):
                raise ValueError("every device class needs a non-empty name")
            if len(set(names)) != len(names):
                raise ValueError(f"device class names must be unique, got {names}")
            counts = [int(c.get("replicas", 0)) for c in classes]
            if any(n < 1 for n in counts):
                raise ValueError("every device class needs replicas >= 1")
            if sum(counts) != int(self.num_replicas):
                raise ValueError(
                    f"device class replicas {counts} must sum to "
                    f"num_replicas={self.num_replicas}"
                )
            for c in classes:
                scale = c.get("latency_scale", 1.0)
                if not scale > 0:
                    raise ValueError(
                        f"latency_scale must be positive, got {scale} "
                        f"for class {c['name']!r}"
                    )
        self.num_replicas = int(self.num_replicas)
        self.router_params = dict(self.router_params or {})
        self.seed = int(self.seed)
        self.autoscaler = _copy(self.autoscaler)
        self.sla = _copy(self.sla)
        self.memory = _copy(self.memory)
        self.energy = _copy(self.energy)

    def __repr__(self) -> str:
        return (
            f"ClusterSpec({self.router} x{self.num_replicas}, "
            f"replica={self.replica!r}, "
            f"autoscaler={'on' if self.autoscaler else 'off'})"
        )


class ServeSpec(Spec):
    """A live serving deployment, as data (see :mod:`repro.serve`).

    Wraps either a single :class:`ServerSpec` or a :class:`ClusterSpec`
    (exactly one) with the front-end's runtime knobs.  Like the other
    specs it is a JSON-round-trippable value object, so a deployment can
    be checked in, diffed, and rebuilt exactly.

    Parameters
    ----------
    server / cluster:
        The engine behind the front door; exactly one must be given.
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (tests).
    journal:
        Path of the append-only request-journal JSONL; None disables
        persistence (the status store then lives in memory only).
    drain_grace:
        Seconds a graceful shutdown waits for in-flight requests before
        aborting the stragglers (the store marks them ABORTED).
    """

    server: Optional[ServerSpec] = None
    cluster: Optional[ClusterSpec] = None
    host: str = "127.0.0.1"
    port: int = 8123
    journal: Optional[str] = None
    drain_grace: float = 5.0

    def __post_init__(self):
        if (self.server is None) == (self.cluster is None):
            raise ValueError("exactly one of server= / cluster= must be given")
        if self.server is not None and not isinstance(self.server, ServerSpec):
            raise TypeError(f"server must be a ServerSpec, got {type(self.server)!r}")
        if self.cluster is not None and not isinstance(self.cluster, ClusterSpec):
            raise TypeError(f"cluster must be a ClusterSpec, got {type(self.cluster)!r}")
        if not 0 <= int(self.port) <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")
        self.port = int(self.port)
        self.drain_grace = float(self.drain_grace)

    def __repr__(self) -> str:
        target = self.cluster if self.cluster is not None else self.server
        return f"ServeSpec({self.host}:{self.port}, target={target!r})"
