"""Multi-process networked serving of the causal-memory protocols.

Turns the in-process protocol engines into a real causally consistent
key-value store: each replica is a standalone OS process running an
asyncio server (:mod:`repro.serve.server`) speaking a compact binary
wire protocol (:mod:`repro.serve.codec`), with key-space sharding
across replica groups (:mod:`repro.serve.shard`), session-consistent
clients (:mod:`repro.serve.client`), deterministic open-loop load
generation (:mod:`repro.serve.loadgen`), and a deployment harness
(:mod:`repro.serve.harness`) whose recorded runs -- the replicas'
write-ahead logs -- replay through the paper's conformance oracles
(:mod:`repro.serve.merge` + :mod:`repro.serve.conformance`).

See ``docs/serving.md`` for the wire format and operational guide.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.client": ("AsyncSessionClient", "SessionClient"),
    "repro.serve.codec": ("CodecError", "encoded_size"),
    "repro.serve.harness": ("ServedCluster", "serve_and_load", "serve_chaos"),
    "repro.serve.loadgen": ("LoadgenConfig", "run_worker",
                            "summarize_workers"),
    "repro.serve.merge": ("MergeError", "merge_node_logs", "replay_wal"),
    "repro.serve.server": ("SERVABLE_PROTOCOLS", "ReplicaServer"),
    "repro.serve.shard": ("ClusterSpec", "shard_of"),
})

__all__ = [
    "AsyncSessionClient",
    "ClusterSpec",
    "CodecError",
    "LoadgenConfig",
    "MergeError",
    "ReplicaServer",
    "SERVABLE_PROTOCOLS",
    "ServedCluster",
    "SessionClient",
    "encoded_size",
    "merge_node_logs",
    "replay_wal",
    "run_worker",
    "serve_and_load",
    "serve_chaos",
    "shard_of",
    "summarize_workers",
]
