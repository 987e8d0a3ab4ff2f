"""Serialization of system configurations to and from JSON.

Experiments are defined by :class:`~repro.params.SystemParams` trees;
saving them alongside results makes every run reproducible from its
artifacts (and lets configuration sweeps be described as data).

The format is a plain nested JSON object mirroring the dataclass tree,
with enums stored by name::

    {"n_nodes": 4,
     "processor": {"issue_width": 4, ...},
     "consistency": "SC",
     ...}

Unknown keys are rejected (catching typos in hand-written configs).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, TextIO, Union

from repro.params import (
    BranchPredictorParams,
    CacheParams,
    ConsistencyImpl,
    ConsistencyModel,
    MemoryLatencies,
    ProcessorParams,
    SchedulerParams,
    SystemParams,
    TlbParams,
)

_ENUMS = {
    "consistency": ConsistencyModel,
    "consistency_impl": ConsistencyImpl,
}

_NESTED = {
    "processor": ProcessorParams,
    "bpred": BranchPredictorParams,
    "l1i": CacheParams,
    "l1d": CacheParams,
    "l2": CacheParams,
    "itlb": TlbParams,
    "dtlb": TlbParams,
    "latencies": MemoryLatencies,
    "scheduler": SchedulerParams,
}


def params_to_dict(params: SystemParams) -> Dict[str, Any]:
    """SystemParams -> plain JSON-serializable dict."""
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if field.name in _ENUMS:
            out[field.name] = value.name
        elif dataclasses.is_dataclass(value):
            out[field.name] = dataclasses.asdict(value)
        else:
            out[field.name] = value
    return out


def params_from_dict(data: Dict[str, Any]) -> SystemParams:
    """Plain dict -> SystemParams (unknown keys raise ``ValueError``)."""
    known = {f.name for f in dataclasses.fields(SystemParams)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown SystemParams keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _ENUMS:
            kwargs[key] = _ENUMS[key][value]
        elif key in _NESTED:
            cls = _NESTED[key]
            nested_known = {f.name for f in dataclasses.fields(cls)}
            nested_unknown = set(value) - nested_known
            if nested_unknown:
                raise ValueError(
                    f"unknown {cls.__name__} keys in {key!r}: "
                    f"{sorted(nested_unknown)}")
            kwargs[key] = cls(**value)
        else:
            kwargs[key] = value
    return SystemParams(**kwargs)


def save_params(params: SystemParams,
                target: Union[str, TextIO]) -> None:
    """Write a configuration to a path or open file."""
    text = json.dumps(params_to_dict(params), indent=2, sort_keys=True)
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.write(text + "\n")
    else:
        target.write(text + "\n")


def load_params(source: Union[str, TextIO]) -> SystemParams:
    """Read a configuration from a path or open file."""
    if isinstance(source, str):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = json.load(source)
    return params_from_dict(data)
