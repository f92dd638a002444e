"""Experiment manifests: one JSON document that pins every output byte.

Every leaf field has one row in ``FIELDS``: its default, its type and the
values it allows.  ``resolve`` checks the whole manifest against that table
before any work is done, so an unknown field, a wrong type or an
out-of-range value, even in a field the command does not use, is a
configuration error (the CLI exits 2 and writes nothing) that names its path.
A field given twice is rejected by name, and missing fields take their
defaults.  The resolved (fully materialized) manifest is written beside every
command's outputs so a rerun from that copy reproduces them byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from copy import deepcopy

from .baselines import METRIC_NAMES

SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """Invalid manifest content; message carries the offending field path."""


_NUMBER = (int, float)


def _is_a(v, kind) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def _finite(v) -> bool:
    """A number a float holds finitely; an int too large for a float is not."""
    return _is_a(v, _NUMBER) and -sys.float_info.max <= v <= sys.float_info.max


def _at_least(lo):
    return lambda v: v >= lo, f">= {lo}"


_FINITE_NONNEGATIVE = (lambda v: _finite(v) and v >= 0, "finite and >= 0")
_OPEN_UNIT = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_UNIT_LIST = (lambda v: all(_is_a(x, _NUMBER) and 0.0 <= x <= 1.0 for x in v),
              "a list of numbers in [0, 1]")

# One row per leaf field, keyed by its dotted path:
# (default, type, allowed-values test or None, what the test asks).
# A number field accepts int and float; bool is never an int or a number.
FIELDS = {
    "schema_version": (SCHEMA_VERSION, int, lambda v: v == SCHEMA_VERSION, f"{SCHEMA_VERSION}"),
    "seed": (0, int, None, None),
    "world.n_blobs": (512, int, *_at_least(4)),
    "world.descriptor_dim": (32, int, lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
    "world.patch_center": (
        [1.0, 0.0, 0.0], list,
        lambda v: len(v) == 3 and all(map(_finite, v))
        and 0.0 < sum(float(x) * float(x) for x in v) < math.inf,
        "3 numbers with a finite, nonzero norm"),
    "world.patch_radius": (
        math.pi / 3.0, _NUMBER, lambda v: 0.0 < v < math.pi / 2.0, "in (0, pi/2)"),
    "world.group_id": ("pair-0", str, None, None),
    "codebook.n_dirs": (4096, int, *_at_least(1)),
    "codebook.n_inplane": (36, int, *_at_least(1)),
    "ranking.coarse_dirs": (512, int, *_at_least(1)),
    "ranking.descent_steps": (32, int, *_at_least(0)),
    "sweep.thresholds": ([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0], list, *_UNIT_LIST),
    "sweep.caps": ([0.25, 0.5, 0.75, 1.0], list, *_UNIT_LIST),
    "sweep.trials": (10, int, *_at_least(1)),
    "sweep.eval_samples": (100, int, *_at_least(1)),
    "sweep.samples_per_rotation": (1, int, *_at_least(1)),
    "sweep.noise_factor": (0.5, _NUMBER, *_FINITE_NONNEGATIVE),
    "sweep.train_rotations_per_class": (8, int, *_at_least(1)),
    "policy.episodes": (230, int, *_at_least(1)),
    "policy.threshold": (0.4, _NUMBER, *_OPEN_UNIT),
    "policy.max_moves": (3, int, *_at_least(0)),
    "policy.noise_factor": (0.05, _NUMBER, *_FINITE_NONNEGATIVE),
    "policy.train_threshold": (0.5, _NUMBER, *_OPEN_UNIT),
    "policy.reachable.kind": (
        "trajectory", str, lambda v: v in ("trajectory", "sphere"), "'trajectory' or 'sphere'"),
    "policy.reachable.circles": (5, int, *_at_least(1)),
    "policy.reachable.steps": (32, int, *_at_least(1)),
    "policy.reachable.sphere_dirs": (512, int, *_at_least(1)),
    "compare.metrics": (
        list(METRIC_NAMES), list, lambda v: all(x in METRIC_NAMES for x in v),
        f"a list of names from {', '.join(METRIC_NAMES)}"),
    "compare.sigmas": (
        [0.0, 0.5, 1.0, 2.0], list,
        lambda v: len(v) > 0 and all(_finite(x) and x >= 0 for x in v),
        "a nonempty list of finite numbers >= 0"),
}


def _nested(flat: dict) -> dict:
    out = {}
    for path, value in flat.items():
        *sections, leaf = path.split(".")
        node = out
        for key in sections:
            node = node.setdefault(key, {})
        node[leaf] = value
    return out


DEFAULTS = _nested({path: row[0] for path, row in FIELDS.items()})


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


def resolve(data: dict | None) -> dict:
    """Merge user fields over the defaults and check every field's type and
    range against ``FIELDS``."""
    resolved = _merge(DEFAULTS, data or {})
    for path, (_, kind, ok, allowed) in FIELDS.items():
        value = resolved
        for key in path.split("."):
            value = value[key]
        if not _is_a(value, kind):
            raise ManifestError(f"{path}: expected {getattr(kind, '__name__', 'number')}")
        if ok is not None and not ok(value):
            raise ManifestError(f"{path}: must be {allowed}, got {value!r}")
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
