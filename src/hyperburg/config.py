"""Run configuration: a single strict JSON document.

Unknown keys are rejected at every level so typos in experiment definitions
fail loudly instead of silently running defaults.  A normalized echo of the
configuration is embedded in every run report, and re-running that echo
reproduces the run bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError
from .initial_data import PROFILE_FAMILIES
from .model import ModelParams, validate_params
from .solver import Grid, check_domain_margin

__all__ = ["ICConfig", "OutputConfig", "RunConfig", "load_config", "refinement_ladder",
           "resolve_output_dir"]

OUTPUT_ROOT_ENV = "HYPERBURG_OUT"


@dataclass(frozen=True)
class ICConfig:
    """Initial-condition block: moment targets or raw amplitudes."""

    family: str
    F0_target: Optional[float] = None
    F1_target: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    @property
    def uses_targets(self) -> bool:
        return self.F0_target is not None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    emit_csv: bool = True
    emit_report: bool = True


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: Grid
    t_end: float
    ic: ICConfig
    output: OutputConfig
    cfl: float = 0.4
    blowup_threshold: Optional[float] = None
    record_stride: int = 1

    def to_dict(self) -> dict:
        """Normalized echo (defaults made explicit); re-runnable as-is."""
        ic: dict[str, Any] = {"family": self.ic.family}
        if self.ic.uses_targets:
            ic["F0_target"] = self.ic.F0_target
            ic["F1_target"] = self.ic.F1_target
        else:
            ic["a"] = self.ic.a
            ic["b"] = self.ic.b
        return {
            "params": dict(vars(self.params)),
            "grid": dict(vars(self.grid)),
            "cfl": self.cfl,
            "t_end": self.t_end,
            "blowup_threshold": self.blowup_threshold,
            "record_stride": self.record_stride,
            "ic": ic,
            "output": dict(vars(self.output)),
        }


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _number(block: dict, key: str, where: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises:
        ConfigError: on unknown/missing keys, bad values, or a grid that
            cannot causally shield its boundary up to t_end.
    """
    _require_keys(
        doc,
        allowed={"params", "grid", "cfl", "t_end", "blowup_threshold",
                 "record_stride", "ic", "output"},
        required={"params", "grid", "t_end", "ic"},
        where="config",
    )

    pb = doc["params"]
    _require_keys(pb, {"mu", "nu", "L"}, {"mu", "nu", "L"}, "params")
    try:
        params = validate_params(pb["mu"], pb["nu"], pb["L"])
    except Exception as exc:
        raise ConfigError(f"params: {exc}") from exc

    gb = doc["grid"]
    _require_keys(gb, {"xmin", "xmax", "n"}, {"xmin", "xmax", "n"}, "grid")
    n = gb["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(f"grid.n must be an integer, got {n!r}")
    try:
        grid = Grid(_number(gb, "xmin", "grid"), _number(gb, "xmax", "grid"), n)
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc

    t_end = _number(doc, "t_end", "config")
    if not (t_end > 0.0):
        raise ConfigError(f"t_end must be positive, got {t_end}")

    cfl = _number(doc, "cfl", "config") if "cfl" in doc else 0.4
    if not (0.0 < cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")

    threshold = None
    if doc.get("blowup_threshold") is not None:
        threshold = _number(doc, "blowup_threshold", "config")
        if not (threshold > 0.0):
            raise ConfigError(f"blowup_threshold must be positive, got {threshold}")

    stride = doc.get("record_stride", 1)
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"record_stride must be an integer >= 1, got {stride!r}")

    ib = doc["ic"]
    _require_keys(
        ib,
        allowed={"family", "F0_target", "F1_target", "a", "b"},
        required={"family"},
        where="ic",
    )
    family = ib["family"]
    if family not in PROFILE_FAMILIES:
        raise ConfigError(f"ic.family must be one of {PROFILE_FAMILIES}, got {family!r}")
    has_targets = "F0_target" in ib or "F1_target" in ib
    has_raw = "a" in ib or "b" in ib
    if has_targets == has_raw:
        raise ConfigError(
            "ic must give either both moment targets (F0_target, F1_target) "
            "or both raw amplitudes (a, b)"
        )
    if has_targets:
        if "F0_target" not in ib or "F1_target" not in ib:
            raise ConfigError("ic needs both F0_target and F1_target")
        ic = ICConfig(
            family=family,
            F0_target=_number(ib, "F0_target", "ic"),
            F1_target=_number(ib, "F1_target", "ic"),
        )
    else:
        if "a" not in ib or "b" not in ib:
            raise ConfigError("ic needs both amplitudes a and b")
        ic = ICConfig(family=family, a=_number(ib, "a", "ic"), b=_number(ib, "b", "ic"))

    ob = doc.get("output", {})
    _require_keys(ob, {"directory", "emit_csv", "emit_report"}, set(), "output")
    directory = ob.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"output.directory must be a non-empty string, got {directory!r}")
    for key in ("emit_csv", "emit_report"):
        if key in ob and not isinstance(ob[key], bool):
            raise ConfigError(f"output.{key} must be a boolean, got {ob[key]!r}")
    output = OutputConfig(
        directory=directory,
        emit_csv=ob.get("emit_csv", True),
        emit_report=ob.get("emit_report", True),
    )

    config = RunConfig(
        params=params,
        grid=grid,
        t_end=t_end,
        ic=ic,
        output=output,
        cfl=cfl,
        blowup_threshold=threshold,
        record_stride=stride,
    )
    check_domain_margin(grid, params, t_end)
    return config


def load_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
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
