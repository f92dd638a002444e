"""Experiment manifests: one JSON document that pins every output byte.

Manifests are validated strictly: unknown fields, wrong types and
out-of-range values are rejected with their path, a field given twice is
rejected by name, missing fields take documented defaults, and the resolved
(fully materialized) manifest is written beside every command's outputs so a
rerun from that copy reproduces them byte for byte.
"""

from __future__ import annotations

import json
import math
from copy import deepcopy

SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """Invalid manifest content; message carries the offending field path."""


DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "world": {
        "n_blobs": 512,
        "descriptor_dim": 32,
        "patch_center": [1.0, 0.0, 0.0],
        "patch_radius": math.pi / 3.0,
        "group_id": "pair-0",
    },
    "codebook": {
        "n_dirs": 4096,
        "n_inplane": 36,
    },
    "ranking": {
        "coarse_dirs": 512,
        "descent_steps": 32,
    },
    "sweep": {
        "thresholds": [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
        "caps": [0.25, 0.5, 0.75, 1.0],
        "trials": 10,
        "eval_samples": 100,
        "samples_per_rotation": 1,
        "noise_factor": 0.5,
        "train_rotations_per_class": 8,
    },
    "policy": {
        "episodes": 230,
        "threshold": 0.4,
        "max_moves": 3,
        "noise_factor": 0.05,
        "train_threshold": 0.5,
        "reachable": {
            "kind": "trajectory",
            "circles": 5,
            "steps": 32,
            "sphere_dirs": 512,
        },
    },
    "compare": {
        "metrics": ["primary", "mse", "blob_match"],
        "sigmas": [0.0, 0.5, 1.0, 2.0],
    },
}

_NUMERIC = (int, float)

_TYPES = {
    ("schema_version",): int,
    ("seed",): int,
    ("world", "n_blobs"): int,
    ("world", "descriptor_dim"): int,
    ("world", "patch_center"): list,
    ("world", "patch_radius"): _NUMERIC,
    ("world", "group_id"): str,
    ("codebook", "n_dirs"): int,
    ("codebook", "n_inplane"): int,
    ("ranking", "coarse_dirs"): int,
    ("ranking", "descent_steps"): int,
    ("sweep", "thresholds"): list,
    ("sweep", "caps"): list,
    ("sweep", "trials"): int,
    ("sweep", "eval_samples"): int,
    ("sweep", "samples_per_rotation"): int,
    ("sweep", "noise_factor"): _NUMERIC,
    ("sweep", "train_rotations_per_class"): int,
    ("policy", "episodes"): int,
    ("policy", "threshold"): _NUMERIC,
    ("policy", "max_moves"): int,
    ("policy", "noise_factor"): _NUMERIC,
    ("policy", "train_threshold"): _NUMERIC,
    ("policy", "reachable", "kind"): str,
    ("policy", "reachable", "circles"): int,
    ("policy", "reachable", "steps"): int,
    ("policy", "reachable", "sphere_dirs"): int,
    ("compare", "metrics"): list,
    ("compare", "sigmas"): list,
}

# Allowed values, checked after the types: path -> (test, what the test asks).
# Checked up front so that a bad value is a configuration error, not a failure
# after set-up.
_RANGES = {
    ("schema_version",): (lambda v: v == SCHEMA_VERSION, f"{SCHEMA_VERSION}"),
    ("world", "n_blobs"): (lambda v: v >= 4, ">= 4"),
    ("world", "descriptor_dim"): (lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
    ("world", "patch_center"): (lambda v: len(v) == 3, "a list of 3 components"),
    ("world", "patch_radius"): (lambda v: 0.0 < v < math.pi / 2.0, "in (0, pi/2)"),
    ("codebook", "n_dirs"): (lambda v: v >= 1, ">= 1"),
    ("codebook", "n_inplane"): (lambda v: v >= 1, ">= 1"),
    ("ranking", "coarse_dirs"): (lambda v: v >= 1, ">= 1"),
    ("ranking", "descent_steps"): (lambda v: v >= 0, ">= 0"),
    ("sweep", "noise_factor"): (lambda v: v >= 0, ">= 0"),
    ("policy", "noise_factor"): (lambda v: v >= 0, ">= 0"),
    ("policy", "reachable", "kind"): (
        lambda v: v in ("trajectory", "sphere"), "'trajectory' or 'sphere'"),
}


def _merge(defaults, data, path=""):
    if not isinstance(data, dict):
        raise ManifestError(f"{path or 'manifest'}: expected an object, got {type(data).__name__}")
    out = deepcopy(defaults)
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ManifestError(f"unknown field: {where}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _check_types(resolved, path=()):
    for key, value in resolved.items():
        where = path + (key,)
        if isinstance(value, dict):
            _check_types(value, where)
            continue
        expected = _TYPES.get(where)
        if expected is None:
            continue
        if expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected) and not isinstance(value, bool)
        if not ok:
            raise ManifestError(f"{'.'.join(where)}: expected {getattr(expected, '__name__', 'number')}")


def _check_ranges(resolved):
    for where, (ok, allowed) in _RANGES.items():
        value = resolved
        for key in where:
            value = value[key]
        if not ok(value):
            raise ManifestError(f"{'.'.join(where)}: must be {allowed}, got {value!r}")


def resolve(data: dict | None) -> dict:
    """Merge user fields over the defaults and validate the result."""
    resolved = _merge(DEFAULTS, data or {})
    _check_types(resolved)
    _check_ranges(resolved)
    return resolved


def _unique_keys(pairs) -> dict:
    """JSON object hook that refuses a key given twice in one object."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ManifestError(f"duplicate field: {key}")
        out[key] = value
    return out


def load(path) -> dict:
    try:
        with open(path) as f:
            data = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest {path} is not valid JSON: {e}") from e
    return resolve(data)


def save(resolved: dict, path) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")
