"""Run configuration shared by the library and the CLI.

A single tolerance value drives every open/closed cone decision so that
boundary vectors classify consistently across modules.  Precedence when
resolving a configuration: explicit overrides (CLI flags) beat the JSON file
named by the ``GARDINGLAB_CONFIG`` environment variable, which beats the
built-in defaults.

The module also holds what every other module shares without numpy: the
``Record`` mixin, ``VectorParseError``, which the CLI maps to exit 65
without importing ``io``, and ``_check_tol``, the tolerance check of every
library function (``RunConfig`` wants a positive one).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
    "CONFIG_ENV_VAR",
    "VectorParseError",
    "Record",
    "RunConfig",
    "load_config",
]

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000

CONFIG_ENV_VAR = "GARDINGLAB_CONFIG"

_FORMATS = ("human", "machine")
_MAX_RECORDED_VIOLATIONS = 10


def _check_tol(tol: float) -> None:
    """Refuse a NaN, infinite or negative tolerance; zero is valid."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")


class VectorParseError(ValueError):
    """Malformed numeric file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Record:
    """Mixin giving a report dataclass its ``to_record()`` from its fields.

    The class-level ``record_tag``, when set, leads the record as
    ``"record"`` and an ``ok`` property closes it.  ``violations`` keeps its
    first 10 entries, nested records and sequences are converted, and fields
    declared with ``metadata={"record": False}`` are left out.
    """

    record_tag: ClassVar[Optional[str]] = None

    def to_record(self) -> dict:
        record = {} if self.record_tag is None else {"record": self.record_tag}
        for f in dataclasses.fields(self):
            if f.metadata.get("record", True):
                value = getattr(self, f.name)
                if f.name == "violations":
                    value = value[:_MAX_RECORDED_VIOLATIONS]
                record[f.name] = _record_value(value)
        if isinstance(getattr(type(self), "ok", None), property):
            record["ok"] = self.ok
        return record


def _record_value(value):
    if isinstance(value, Record):
        return value.to_record()
    if isinstance(value, (list, tuple)):
        return [_record_value(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    """Knobs for reproducible runs: one tolerance, one seed, fixed budgets."""

    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    output_format: str = "human"

    def __post_init__(self) -> None:
        # Values may come from a JSON file, so types are checked, not assumed;
        # bool is an int subclass and is refused explicitly.
        tol = self.tol
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and 0 < tol < math.inf):
            raise ValueError(f"tol must be a finite positive number, got {tol!r}")
        for name in ("seed", "samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.output_format not in _FORMATS:
            raise ValueError(
                f"output_format must be one of {_FORMATS}, got {self.output_format!r}"
            )


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunConfig))


def load_config(overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from defaults, the env-var file, and overrides.

    ``overrides`` entries that are None are treated as absent.  Unknown keys,
    in either source, are rejected rather than silently dropped.
    """
    environ = os.environ if env is None else env
    values: dict = {}
    path = environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        unknown = set(data) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
        values.update(data)
    if overrides:
        unknown = set(overrides) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown config overrides {sorted(unknown)}")
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
