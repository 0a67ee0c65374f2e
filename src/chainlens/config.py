"""Run configuration: one declarative file, flag overrides, defaults.

A run is described by a single JSON file whose keys match RunConfig's
fields; every field has a default, so an empty file (or none at all) is
a valid configuration. Command-line flags override file values, which
override defaults. Unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default.

The API key deliberately has no config-file slot: secrets travel only
through the CHAINLENS_API_KEY environment variable.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ChainlensError
from .rules import CLASSIFIER_KINDS, METHODS, check_date_range, parse_day

FORMATS = ("csv", "json", "svg")


class ConfigError(ChainlensError):
    """Invalid configuration file or flag value; a usage error."""


# How a config value of each annotated type is spelled in JSON: the
# Python types ``json.loads`` gives for it, and a name for messages.
_JSON_SPELLING = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    Path: ((str,), "a string"),
    dt.date: ((str,), "a date string"),
    dict: ((dict,), "an object"),
    type(None): ((type(None),), "null"),
}


def _check_types(values: dict, cls, where: str = "") -> None:
    """Raise ConfigError unless each value is spelled as the JSON of
    the type ``cls`` annotates its field with."""
    hints = get_type_hints(cls)
    for name, value in values.items():
        spellings = [_JSON_SPELLING[t] for t in get_args(hints[name]) or (hints[name],)]
        types = tuple(t for accepted, _ in spellings for t in accepted)
        # bool subclasses int, but true is no JSON number
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            expected = " or ".join(dict.fromkeys(what for _, what in spellings))
            raise ConfigError(f"{where}{name} must be {expected}, got {value!r}")


def _check_block(block: str, values: dict, cls, reserved: set) -> None:
    """Raise ConfigError unless the ``block`` settings name fields of
    ``cls`` other than ``reserved``, each spelled as its type."""
    allowed = {f.name for f in fields(cls)} - reserved
    bad = set(values) - allowed
    if bad:
        raise ConfigError(
            f"unknown {block!r} settings {sorted(bad)}; allowed: {sorted(allowed)}"
        )
    _check_types(values, cls, f"{block!r} setting ")


# What each checked field must be, for the message, and its value's test
_RULES = {
    "method": (f"one of {METHODS + ('all',)}", lambda v: v in METHODS + ("all",)),
    "classifier": (
        f"one of {CLASSIFIER_KINDS + ('all',)}", lambda v: v in CLASSIFIER_KINDS + ("all",)
    ),
    "format": (f"one of {FORMATS}", lambda v: v in FORMATS),
    "seed": ("a nonnegative integer", lambda v: v >= 0),
    "split": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "k": ("'auto' or a positive integer", lambda v: v == "auto" or type(v) is int and v >= 1),
}


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    out: str = "artifacts"
    seed: int = 0
    cutoff: str | None = None
    start: str | None = None
    end: str | None = None
    method: str = "all"
    k: int | str = "auto"
    classifier: str = "all"
    split: float = 0.8
    format: str = "svg"
    api: dict = field(default_factory=dict)
    generate: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_types(vars(self), RunConfig)
        for name, (wants, ok) in _RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {wants}, got {value!r}")
        if "api_key" in self.api:
            raise ConfigError(
                "api_key does not belong in a config file; set CHAINLENS_API_KEY"
            )
        if self.api:  # the api and synthetic modules load only for their blocks
            from .api import ApiClientConfig

            # the key comes from the environment, the range from start/end
            _check_block("api", self.api, ApiClientConfig, {"api_key", "date_range"})
        if "seed" in self.generate:
            raise ConfigError("set the seed at the top level, not inside 'generate'")
        if self.generate:
            from .synthetic import SyntheticSpec

            _check_block("generate", self.generate, SyntheticSpec, {"seed"})
        days = {name: getattr(self, name) for name in ("cutoff", "start", "end")}
        days["'generate' start_day"] = self.generate.get("start_day")
        for name, value in days.items():
            if value is not None:
                try:
                    days[name] = parse_day(value)
                except ValueError as exc:
                    raise ConfigError(f"bad {name} date: {exc}") from exc
        check_date_range(days["start"], days["end"], ConfigError)

    @property
    def methods(self) -> tuple[str, ...]:
        return METHODS if self.method == "all" else (self.method,)

    @property
    def classifiers(self) -> tuple[str, ...]:
        return CLASSIFIER_KINDS if self.classifier == "all" else (self.classifier,)

    @property
    def k_value(self) -> int | None:
        return None if self.k == "auto" else int(self.k)

    @property
    def cutoff_date(self) -> dt.date | None:
        return parse_day(self.cutoff) if self.cutoff is not None else None

    @property
    def date_range(self) -> tuple[dt.date | None, dt.date | None] | None:
        if self.start is None and self.end is None:
            return None
        lo = parse_day(self.start) if self.start is not None else None
        hi = parse_day(self.end) if self.end is not None else None
        return lo, hi


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(values) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(
            f"{path}: unknown config key(s) {unknown}; valid: {sorted(_FIELD_NAMES)}"
        )
    return values


def build_config(config_path: str | Path | None, overrides: dict) -> RunConfig:
    """Defaults, overlaid with the config file, overlaid with flags.

    ``overrides`` holds flag values; None entries mean "flag not given"
    and never mask a file value.
    """
    values: dict = {}
    if config_path is not None:
        values.update(load_config_file(config_path))
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in _FIELD_NAMES:
            raise ConfigError(f"unknown config override {name!r}")
        values[name] = value
    return RunConfig(**values)
