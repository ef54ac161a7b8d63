"""Run configuration shared by the library and the CLI.

A single tolerance value drives every open/closed cone decision so that
boundary vectors classify consistently across modules.  Precedence when
resolving a configuration: explicit overrides (CLI flags) beat the JSON file
named by the ``GARDINGLAB_CONFIG`` environment variable, which beats the
built-in defaults.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000
DEFAULT_RESTARTS = 32

CONFIG_ENV_VAR = "GARDINGLAB_CONFIG"

_FORMATS = ("human", "machine")
_MAX_RECORDED_VIOLATIONS = 10


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
    restarts: int = DEFAULT_RESTARTS
    output_format: str = "human"

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
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
