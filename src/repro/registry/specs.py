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

from repro.core.config import _reject_unknown_keys

KINDS = ("batchmaker", "padded", "timeout_padded", "fold", "ideal")


class ServerSpec:
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

    def __init__(
        self,
        kind: str,
        model: str,
        model_args: Optional[Dict[str, Any]] = None,
        num_gpus: int = 1,
        name: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        policies: Optional[Dict[str, str]] = None,
        params: Optional[Dict[str, Any]] = None,
        sla: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, Any]] = None,
        energy: Optional[Dict[str, Any]] = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown server kind {kind!r} (have: {KINDS})")
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.kind = kind
        self.model = model
        self.model_args = dict(model_args or {})
        self.num_gpus = num_gpus
        self.name = name
        self.config = config
        self.policies = dict(policies or {})
        self.params = dict(params or {})
        self.sla = dict(sla) if sla is not None else None
        self.memory = dict(memory) if memory is not None else None
        self.energy = dict(energy) if energy is not None else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "model": self.model,
            "model_args": dict(self.model_args),
            "num_gpus": self.num_gpus,
            "name": self.name,
            "config": self.config,
            "policies": dict(self.policies),
            "params": dict(self.params),
            "sla": dict(self.sla) if self.sla is not None else None,
            "memory": dict(self.memory) if self.memory is not None else None,
            "energy": dict(self.energy) if self.energy is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServerSpec":
        _reject_unknown_keys(
            "ServerSpec",
            data,
            (
                "kind", "model", "model_args", "num_gpus", "name", "config",
                "policies", "params", "sla", "memory", "energy",
            ),
        )
        return cls(
            kind=data["kind"],
            model=data["model"],
            model_args=data.get("model_args"),
            num_gpus=data.get("num_gpus", 1),
            name=data.get("name"),
            config=data.get("config"),
            policies=data.get("policies"),
            params=data.get("params"),
            sla=data.get("sla"),
            memory=data.get("memory"),
            energy=data.get("energy"),
        )

    def replace(self, **changes: Any) -> "ServerSpec":
        """A copy with the given fields replaced (specs are value objects)."""
        data = self.to_dict()
        data.update(changes)
        return ServerSpec.from_dict(data)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ServerSpec) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "<default name>"
        return (
            f"ServerSpec({self.kind}, model={self.model}, "
            f"num_gpus={self.num_gpus}, name={label!r})"
        )


class ClusterSpec:
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
        Routing-policy name (``round_robin`` / ``least_outstanding`` /
        ``shortest_queue`` / ``length_bucketed``); validated when the
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

    def __init__(
        self,
        replica: "ServerSpec",
        num_replicas: int = 1,
        router: str = "round_robin",
        router_params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        autoscaler: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
        sla: Optional[Dict[str, Any]] = None,
        memory: Optional[Dict[str, Any]] = None,
        energy: Optional[Dict[str, Any]] = None,
        device_classes: Optional[list] = None,
    ):
        if not isinstance(replica, ServerSpec):
            raise TypeError(f"replica must be a ServerSpec, got {type(replica)!r}")
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if device_classes is not None:
            device_classes = [dict(c) for c in device_classes]
            if not device_classes:
                raise ValueError("device_classes must be non-empty when given")
            names = [c.get("name") for c in device_classes]
            if any(not isinstance(n, str) or not n for n in names):
                raise ValueError("every device class needs a non-empty name")
            if len(set(names)) != len(names):
                raise ValueError(f"device class names must be unique, got {names}")
            counts = [int(c.get("replicas", 0)) for c in device_classes]
            if any(n < 1 for n in counts):
                raise ValueError("every device class needs replicas >= 1")
            if sum(counts) != int(num_replicas):
                raise ValueError(
                    f"device class replicas {counts} must sum to "
                    f"num_replicas={num_replicas}"
                )
            for c in device_classes:
                scale = c.get("latency_scale", 1.0)
                if not scale > 0:
                    raise ValueError(
                        f"latency_scale must be positive, got {scale} "
                        f"for class {c['name']!r}"
                    )
        self.replica = replica
        self.num_replicas = int(num_replicas)
        self.router = router
        self.router_params = dict(router_params or {})
        self.seed = int(seed)
        self.autoscaler = dict(autoscaler) if autoscaler is not None else None
        self.name = name
        self.sla = dict(sla) if sla is not None else None
        self.memory = dict(memory) if memory is not None else None
        self.energy = dict(energy) if energy is not None else None
        self.device_classes = device_classes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "replica": self.replica.to_dict(),
            "num_replicas": self.num_replicas,
            "router": self.router,
            "router_params": dict(self.router_params),
            "seed": self.seed,
            "autoscaler": dict(self.autoscaler) if self.autoscaler is not None else None,
            "name": self.name,
            "sla": dict(self.sla) if self.sla is not None else None,
            "memory": dict(self.memory) if self.memory is not None else None,
            "energy": dict(self.energy) if self.energy is not None else None,
            "device_classes": (
                [dict(c) for c in self.device_classes]
                if self.device_classes is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterSpec":
        _reject_unknown_keys(
            "ClusterSpec",
            data,
            (
                "replica", "num_replicas", "router", "router_params", "seed",
                "autoscaler", "name", "sla", "memory", "energy", "device_classes",
            ),
        )
        return cls(
            replica=ServerSpec.from_dict(data["replica"]),
            num_replicas=data.get("num_replicas", 1),
            router=data.get("router", "round_robin"),
            router_params=data.get("router_params"),
            seed=data.get("seed", 0),
            autoscaler=data.get("autoscaler"),
            name=data.get("name"),
            sla=data.get("sla"),
            memory=data.get("memory"),
            energy=data.get("energy"),
            device_classes=data.get("device_classes"),
        )

    def replace(self, **changes: Any) -> "ClusterSpec":
        """A copy with the given fields replaced (specs are value objects)."""
        data = self.to_dict()
        data.update(changes)
        if isinstance(data["replica"], ServerSpec):  # replace(replica=spec)
            data["replica"] = data["replica"].to_dict()
        return ClusterSpec.from_dict(data)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ClusterSpec) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"ClusterSpec({self.router} x{self.num_replicas}, "
            f"replica={self.replica!r}, "
            f"autoscaler={'on' if self.autoscaler else 'off'})"
        )


class ServeSpec:
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
    drift_tolerance:
        Seconds of timer lateness tolerated before the bridge's drift
        guard logs/counts a late fire (default 1 ms).
    """

    def __init__(
        self,
        server: Optional[ServerSpec] = None,
        cluster: Optional["ClusterSpec"] = None,
        host: str = "127.0.0.1",
        port: int = 8123,
        journal: Optional[str] = None,
        drain_grace: float = 5.0,
        drift_tolerance: float = 1e-3,
    ):
        if (server is None) == (cluster is None):
            raise ValueError("exactly one of server= / cluster= must be given")
        if server is not None and not isinstance(server, ServerSpec):
            raise TypeError(f"server must be a ServerSpec, got {type(server)!r}")
        if cluster is not None and not isinstance(cluster, ClusterSpec):
            raise TypeError(f"cluster must be a ClusterSpec, got {type(cluster)!r}")
        if not 0 <= int(port) <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {port}")
        if drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")
        if drift_tolerance <= 0:
            raise ValueError("drift_tolerance must be positive")
        self.server = server
        self.cluster = cluster
        self.host = host
        self.port = int(port)
        self.journal = journal
        self.drain_grace = float(drain_grace)
        self.drift_tolerance = float(drift_tolerance)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "server": self.server.to_dict() if self.server is not None else None,
            "cluster": self.cluster.to_dict() if self.cluster is not None else None,
            "host": self.host,
            "port": self.port,
            "journal": self.journal,
            "drain_grace": self.drain_grace,
            "drift_tolerance": self.drift_tolerance,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeSpec":
        _reject_unknown_keys(
            "ServeSpec",
            data,
            (
                "server", "cluster", "host", "port", "journal", "drain_grace",
                "drift_tolerance",
            ),
        )
        server = data.get("server")
        cluster = data.get("cluster")
        return cls(
            server=ServerSpec.from_dict(server) if server is not None else None,
            cluster=ClusterSpec.from_dict(cluster) if cluster is not None else None,
            host=data.get("host", "127.0.0.1"),
            port=data.get("port", 8123),
            journal=data.get("journal"),
            drain_grace=data.get("drain_grace", 5.0),
            drift_tolerance=data.get("drift_tolerance", 1e-3),
        )

    def replace(self, **changes: Any) -> "ServeSpec":
        """A copy with the given fields replaced (specs are value objects)."""
        data = self.to_dict()
        data.update(changes)
        if isinstance(data["server"], ServerSpec):
            data["server"] = data["server"].to_dict()
        if isinstance(data["cluster"], ClusterSpec):
            data["cluster"] = data["cluster"].to_dict()
        return ServeSpec.from_dict(data)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ServeSpec) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        target = self.cluster if self.cluster is not None else self.server
        return f"ServeSpec({self.host}:{self.port}, target={target!r})"
