"""Run configuration: a single strict JSON document.

The dataclasses :class:`RunConfig`, :class:`ICConfig` and
:class:`OutputConfig` are the schema.  Their fields are the JSON keys, their
defaults the JSON defaults (cfl 0.4, record_stride 1, blowup_threshold null,
output directory "out", both emits true), and each ``__post_init__`` holds
its block's value rules, however the block is built; the run's rules are
:func:`~hyperburg.solver.check_run`'s, which ``integrate`` shares.
:class:`ICConfig` is also the library's one description of initial data.

:func:`config_from_dict` rejects unknown and missing keys at every level, so
typos fail loudly instead of silently running defaults.  Every number must
be finite and pass :func:`~hyperburg.model._real`, the one real-number rule
(a real number, not a bool, kept as a float); ``grid.n`` and
``record_stride`` must be Python ints; JSON null is accepted only for
``blowup_threshold``, where it means the default.  Every run report embeds
a normalized echo of the configuration, and re-running that echo reproduces
the run bit for bit.  Non-finite numbers in any output document are written
as null (see :func:`~hyperburg.runner.json_text`).
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
from .model import ModelParams, _real
from .solver import Grid, check_run

__all__ = ["ICConfig", "OutputConfig", "RunConfig", "config_from_dict", "load_config",
           "refinement_ladder", "resolve_output_dir"]

OUTPUT_ROOT_ENV = "HYPERBURG_OUT"
PROFILE_FAMILIES = ("odd_bump",)


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
        has_targets = (self.F0_target, self.F1_target) != (None, None)
        if has_targets == ((self.a, self.b) != (None, None)):
            raise ConfigError("ic must give either both moment targets (F0_target, F1_target) "
                              "or both raw amplitudes (a, b)")
        for name in ("F0_target", "F1_target") if has_targets else ("a", "b"):
            if getattr(self, name) is None:
                raise ConfigError("ic needs both F0_target and F1_target" if has_targets
                                  else "ic needs both amplitudes a and b")
            value = _real(getattr(self, name), f"ic.{name}", ConfigError)
            if not math.isfinite(value):
                raise ConfigError(f"ic numbers must be finite, got {name}={value!r}")
            object.__setattr__(self, name, value)

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
        for name in ("emit_csv", "emit_report"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"output.{name} must be a boolean, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run, checked by :func:`~hyperburg.solver.check_run`; among its
    rules, the domain must shield its boundary up to ``t_end``."""

    params: ModelParams
    grid: Grid
    t_end: float
    ic: ICConfig
    output: OutputConfig = OutputConfig()
    cfl: float = 0.4
    blowup_threshold: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self):
        checked = check_run(self.grid, self.params, self.t_end, self.cfl, self.blowup_threshold,
                            self.record_stride)
        for name, value in zip(("t_end", "cfl", "blowup_threshold"), checked):
            object.__setattr__(self, name, value)

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
    if not required <= block.keys() <= kinds.keys():
        unknown = block.keys() - kinds
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        raise ConfigError(f"missing keys in {where}: {sorted(required - block.keys())}")
    values = dict(block)
    for key, value in block.items():
        kind = kinds[key]
        if kind is float and not (value is None and key == "blowup_threshold"):
            value = _real(value, f"{where}.{key}", ConfigError)
            if not math.isfinite(value):
                raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
            values[key] = value
        elif kind not in (float, int, bool, str):
            values[key] = _read(kind, value, key)
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
    ``<base directory>-n<n_k>``; all else is ``base``'s, the record stride
    included.  So the levels record at the coarsest level's times exactly
    when its dt is a power of two, whose running sums do not round: the
    ``identity`` preset's levels step 2^-8, 2^-9 and 2^-10 and all end at
    t = 1.0, while the ``blowup`` preset's dt = 0.00625 is not a power of
    two, and its levels end at 0.1937500000000001, 0.18124999999999986 and
    0.17656249999999962.  Steps nothing.  Raises ConfigError unless
    ``levels`` is an int >= 2.
    """
    if type(levels) is not int or levels < 2:
        raise ConfigError(f"a refinement ladder needs integer levels >= 2, got {levels!r}")
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
