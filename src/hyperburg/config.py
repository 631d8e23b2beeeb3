"""Run configuration: a single strict JSON document.

The dataclasses :class:`RunConfig`, :class:`ICConfig` and
:class:`OutputConfig` are the schema.  Their fields are the JSON keys, their
defaults the JSON defaults (cfl 0.4, record_stride 1, blowup_threshold null,
output directory "out", both emits true), and each ``__post_init__`` holds
its block's value rules.  So a configuration built in code, by a preset or
by ``dataclasses.replace`` is checked exactly as a JSON file is, and
``ModelParams`` checks its own fields.  :class:`ICConfig` is also the
library's one description of initial data.

:func:`config_from_dict` rejects unknown and missing keys at every level, so
typos fail loudly instead of silently running defaults.  Every number must
be finite; ``grid.n`` and ``record_stride`` must be integers; JSON null is
accepted only for ``blowup_threshold``, where it means the default.  A
normalized echo of the configuration is embedded in every run report, and
re-running that echo reproduces the run bit for bit.  Non-finite numbers in
any output document are written as null (see
:func:`~hyperburg.runner.json_text`).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError, ParameterError
from .model import ModelParams
from .solver import Grid, check_domain_margin

__all__ = ["ICConfig", "OutputConfig", "RunConfig", "load_config", "refinement_ladder",
           "resolve_output_dir"]

OUTPUT_ROOT_ENV = "HYPERBURG_OUT"
PROFILE_FAMILIES = ("odd_bump",)
# The one key whose JSON value may be null.
NULLABLE = "blowup_threshold"
# How an error names the JSON type of the non-number fields.
TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


@dataclass(frozen=True)
class ICConfig:
    """Initial data, in JSON and in the library: the amplitudes ``a`` of v and
    ``b`` of dv/dt on ``family``'s profile of half-width ``params.L``, or both
    moment targets, which :func:`~hyperburg.initial_data.calibrated_profile`
    turns into amplitudes on the run grid."""

    family: str
    F0_target: Optional[float] = None
    F1_target: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.family not in PROFILE_FAMILIES:
            raise ConfigError(f"ic.family must be one of {PROFILE_FAMILIES}, got {self.family!r}")
        targets, raw = (self.F0_target, self.F1_target), (self.a, self.b)
        has_targets = targets != (None, None)
        if has_targets == (raw != (None, None)):
            raise ConfigError("ic must give either both moment targets (F0_target, F1_target) "
                              "or both raw amplitudes (a, b)")
        given = targets if has_targets else raw
        if None in given:
            raise ConfigError("ic needs both F0_target and F1_target" if has_targets
                              else "ic needs both amplitudes a and b")
        if not all(map(math.isfinite, given)):
            raise ConfigError(f"ic numbers must be finite, got {given}")

    @property
    def uses_targets(self) -> bool:
        return self.F0_target is not None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    emit_csv: bool = True
    emit_report: bool = True

    def __post_init__(self):
        if not isinstance(self.directory, str) or not self.directory:
            raise ConfigError(
                f"output.directory must be a non-empty string, got {self.directory!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run.  The domain must shield its boundary up to ``t_end`` (see
    :func:`~hyperburg.solver.check_domain_margin`, which also checks t_end)."""

    params: ModelParams
    grid: Grid
    t_end: float
    ic: ICConfig
    output: OutputConfig = OutputConfig()
    cfl: float = 0.4
    blowup_threshold: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.blowup_threshold is not None and not (0.0 < self.blowup_threshold < math.inf):
            raise ConfigError(
                f"blowup_threshold must be finite and > 0, got {self.blowup_threshold}")
        if type(self.record_stride) is not int or self.record_stride < 1:
            raise ConfigError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        check_domain_margin(self.grid, self.params, self.t_end)

    def to_dict(self) -> dict:
        """Normalized echo (defaults made explicit); re-runnable as-is."""
        return {
            "params": dict(vars(self.params)),
            "grid": dict(vars(self.grid)),
            "cfl": self.cfl,
            "t_end": self.t_end,
            "blowup_threshold": self.blowup_threshold,
            "record_stride": self.record_stride,
            "ic": {k: v for k, v in vars(self.ic).items() if v is not None},
            "output": dict(vars(self.output)),
        }


@functools.cache
def _schema(cls) -> tuple[dict[str, type], frozenset[str]]:
    """Each field's value type (Optional unwrapped) and the required field
    names of a config block's class, read once per class."""
    hints = typing.get_type_hints(cls)
    kinds = {name: (typing.get_args(hint) or (hint,))[0] for name, hint in hints.items()}
    return kinds, frozenset(f.name for f in dataclasses.fields(cls)
                            if f.default is dataclasses.MISSING)


def _read(cls, block: Any, where: str):
    """``cls`` built from the JSON object ``block``, named ``where`` in errors."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {type(block).__name__}")
    kinds, required = _schema(cls)
    unknown = block.keys() - kinds
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - block.keys()
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    values = {}
    for key, value in block.items():
        kind = kinds[key]
        if value is None and key == NULLABLE:
            pass
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an integer past the largest double
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
        elif kind in TYPE_NAMES:  # bool is an int: no bool for an int field, nor int for a bool
            if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
                raise ConfigError(f"{where}.{key} must be {TYPE_NAMES[kind]}, got {value!r}")
        else:
            value = _read(kind, value, key)
        values[key] = value
    try:
        return cls(**values)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises:
        ConfigError: on unknown/missing keys, bad values, or a grid that
            cannot causally shield its boundary up to t_end.
    """
    return _read(RunConfig, doc, "config")


def load_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def refinement_ladder(base: RunConfig, levels: int) -> list[RunConfig]:
    """Nested refinement of ``base``: level k has n_k = (n0 - 1) 2^k + 1 nodes.

    Each level halves dx (and so the CFL dt) exactly and writes to
    ``<base directory>-n<n_k>``; all else is ``base``'s.  Steps nothing.
    Raises ConfigError for fewer than 2 levels.
    """
    if levels < 2:
        raise ConfigError(f"a refinement ladder needs levels >= 2, got {levels}")
    ns = [(base.grid.n - 1) * 2**k + 1 for k in range(levels)]
    return [replace(base, grid=replace(base.grid, n=n),
                    output=replace(base.output, directory=f"{base.output.directory}-n{n}"))
            for n in ns]


def resolve_output_dir(config: RunConfig) -> Path:
    """Effective output directory: the configured one, rooted by the
    HYPERBURG_OUT environment variable, when set, if it is relative."""
    chosen = Path(config.output.directory)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not chosen.is_absolute():
        return Path(root) / chosen
    return chosen
