"""Config serialization and content-addressed cache keys.

A campaign job must be (a) shippable to a worker process and (b)
addressable in the result cache by *what it computes*, not *when it ran*.
Both needs are served by one representation: a plain, JSON-able dict of
the fully-resolved :class:`~repro.cluster.builder.ClusterConfig` (every
default baked in, every enum reduced to its name, every nested dataclass
flattened).  The cache key is then a SHA-256 over the *canonical* JSON
rendering of that dict -- sorted keys, no whitespace, shortest-repr
floats -- salted with a code-version string so a change to the
simulator's semantics can invalidate every cached result at once.

Stability contract (tested in ``tests/test_campaign_cachekey.py``):

* insertion order of dict keys never changes the key;
* the key is identical across process boundaries (no ``id()``/``hash()``
  randomization leaks in);
* ``cluster_config_from_dict(cluster_config_to_dict(cfg))`` builds a
  config whose key -- and whose simulation -- is identical, including
  float fields (JSON shortest-repr round-trips IEEE-754 exactly);
* distinct configs (different seeds, NIC params, fault plans, ...)
  produce distinct keys;
* bumping :data:`CODE_VERSION` changes every key.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.cluster.builder import ClusterConfig
from repro.gm.constants import BarrierReliability
from repro.host.cpu import HostParams
from repro.network.fabric import NetworkParams
from repro.network.topology import LinkSpec, SwitchSpec, Topology
from repro.nic.lanai import LANAI_4_3, LANAI_7_2, LanaiModel
from repro.nic.nic import NicParams

#: Version salt folded into every cache key.  Bump whenever a change to
#: the simulator alters what any measurement would produce -- cached
#: results from older code then simply stop matching.
CODE_VERSION = "campaign-v5"  # v5: one probe table -- a telemetry job's
# summary names its series by their snapshot names and shows every
# probe, so older cached telemetry payloads no longer describe a job

#: Known cards, so configs can name a model instead of inlining its
#: whole cycle table.
_NAMED_MODELS: Dict[str, LanaiModel] = {
    LANAI_4_3.name: LANAI_4_3,
    LANAI_7_2.name: LANAI_7_2,
}


# ----------------------------------------------------------------------
# component serializers
# ----------------------------------------------------------------------
def lanai_model_to_dict(model: LanaiModel) -> dict:
    """Fully-resolved model dict (name + clock + cycle table)."""
    return {
        "name": model.name,
        "clock_mhz": model.clock_mhz,
        "cycles": dict(model.cycles),
    }


def lanai_model_from_dict(data) -> LanaiModel:
    """Inverse of :func:`lanai_model_to_dict`; also accepts a known card
    name (``"LANai 4.3"``) or an existing :class:`LanaiModel`."""
    if isinstance(data, LanaiModel):
        return data
    if isinstance(data, str):
        try:
            return _NAMED_MODELS[data]
        except KeyError:
            raise ValueError(f"unknown LANai model name {data!r}") from None
    return LanaiModel(
        name=data["name"],
        clock_mhz=data["clock_mhz"],
        cycles=dict(data["cycles"]),
    )


def nic_params_to_dict(params: NicParams) -> dict:
    """NicParams as a plain dict (reliability enum by name)."""
    out = asdict(params)
    out["barrier_reliability"] = params.barrier_reliability.name
    return out


def nic_params_from_dict(data) -> NicParams:
    """Inverse of :func:`nic_params_to_dict` (partial dicts fill
    dataclass defaults)."""
    if isinstance(data, NicParams):
        return data
    kwargs = dict(data)
    rel = kwargs.get("barrier_reliability")
    if isinstance(rel, str):
        kwargs["barrier_reliability"] = BarrierReliability[rel]
    return NicParams(**kwargs)


def host_params_from_dict(data) -> HostParams:
    """HostParams from a (possibly partial) dict; defaults fill gaps."""
    if isinstance(data, HostParams):
        return data
    return HostParams(**data)


def net_params_to_dict(params: NetworkParams) -> dict:
    """NetworkParams as a plain dict of its three timing fields."""
    return {
        "bandwidth_mbps": params.bandwidth_mbps,
        "propagation_us": params.propagation_us,
        "routing_delay_us": params.routing_delay_us,
    }


def net_params_from_dict(data) -> NetworkParams:
    """Inverse of :func:`net_params_to_dict`."""
    if isinstance(data, NetworkParams):
        return data
    return NetworkParams(**data)


def topology_to_dict(topology: Optional[Topology]) -> Optional[dict]:
    """Topology as sorted plain lists (None passes through)."""
    if topology is None:
        return None
    return {
        "switches": sorted(
            [s.switch_id, s.num_ports] for s in topology.switches
        ),
        "trunks": sorted(
            [t.switch_a, t.port_a, t.switch_b, t.port_b]
            for t in topology.trunks
        ),
        "nic_attachments": sorted(
            [nic, sw, port]
            for nic, (sw, port) in topology.nic_attachments.items()
        ),
    }


def topology_from_dict(data) -> Optional[Topology]:
    """Inverse of :func:`topology_to_dict` (None passes through)."""
    if data is None or isinstance(data, Topology):
        return data
    return Topology(
        switches=[SwitchSpec(sid, ports) for sid, ports in data["switches"]],
        trunks=[LinkSpec(a, pa, b, pb) for a, pa, b, pb in data["trunks"]],
        nic_attachments={
            nic: (sw, port) for nic, sw, port in data["nic_attachments"]
        },
    )


# ----------------------------------------------------------------------
# ClusterConfig
# ----------------------------------------------------------------------
def cluster_config_to_dict(config: ClusterConfig) -> dict:
    """The fully-resolved, JSON-able form of a cluster config."""
    return {
        "num_nodes": config.num_nodes,
        "lanai_model": lanai_model_to_dict(config.lanai_model),
        "host_params": asdict(config.host_params),
        "nic_params": nic_params_to_dict(config.nic_params),
        "net_params": net_params_to_dict(config.net_params),
        "topology": topology_to_dict(config.topology),
        "seed": config.seed,
        "trace": config.trace,
        "metrics": config.metrics,
        "profile": config.profile,
        "telemetry": config.telemetry,
        "telemetry_sample_us": config.telemetry_sample_us,
        "fault_plan": (
            None if config.fault_plan is None else config.fault_plan.to_dict()
        ),
    }


def cluster_config_from_dict(data) -> ClusterConfig:
    """Inverse of :func:`cluster_config_to_dict`.

    Accepts partial dicts (missing fields take the ClusterConfig
    defaults) and an existing :class:`ClusterConfig` (returned as-is), so
    campaign specs can carry terse configs like ``{"num_nodes": 8}``.
    """
    if isinstance(data, ClusterConfig):
        return data
    # Lazy: repro.faults.__init__ imports the soak harness, which uses
    # this package -- a top-level import here would be circular.
    from repro.faults.plan import FaultPlan

    unknown = set(data) - set(ClusterConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown ClusterConfig fields: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key == "lanai_model":
            kwargs[key] = lanai_model_from_dict(value)
        elif key == "host_params":
            kwargs[key] = host_params_from_dict(value)
        elif key == "nic_params":
            kwargs[key] = nic_params_from_dict(value)
        elif key == "net_params":
            kwargs[key] = net_params_from_dict(value)
        elif key == "topology":
            kwargs[key] = topology_from_dict(value)
        elif key == "fault_plan":
            if value is None or isinstance(value, FaultPlan):
                kwargs[key] = value
            else:
                kwargs[key] = FaultPlan.from_dict(value)
        else:
            kwargs[key] = value
    return ClusterConfig(**kwargs)


# ----------------------------------------------------------------------
# canonical hashing
# ----------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN/Inf.

    ``json`` renders floats with ``repr`` (shortest string that parses
    back to the same IEEE-754 double), so equal floats always serialize
    identically and round-trip exactly -- across runs, processes and
    platforms.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(payload: Any, code_version: str = CODE_VERSION) -> str:
    """The content-addressed cache key for a JSON-able payload."""
    import hashlib  # on first use: a run without a store never hashes

    text = canonical_json({"code_version": code_version, "payload": payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
