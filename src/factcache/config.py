"""Configuration loading for the command-line tool.

One JSON document configures the slow source, the model client, pipeline
knobs, evaluation parameters and data paths. Each key is one row of `KEYS`;
a missing or null one keeps its `Config` default, an unknown one is ignored,
and every error names its dotted key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, ParseError, read_json
from .metrics import SUREParams

DEFAULT_CONFIG_PATH = "./factcache.json"


@dataclass
class Config:
    state_path: str = "./factcache_state.json"
    capacity: Optional[int] = None
    prefetch_depth: int = 1
    slow_kind: str = "memory"
    slow_locator: str = ""
    model_kind: str = "mock"
    model_endpoint: str = ""
    api_key_env: str = ""
    model_max_tokens: int = 64
    model_priors: dict[str, str] = field(default_factory=dict)
    k: int = 1
    extractor: str = "alias_dictionary"
    sure_params: SUREParams = field(default_factory=SUREParams)
    seed: int = 7
    templates_path: str = ""
    entities_path: str = ""
    benchmark_path: str = ""
    multihop_path: str = ""


# key path, Config attribute, type, check: the allowed values, the least
# int, or INPUT or OUTPUT for a path resolved against the config's directory
# (an input must be a file when set; an output must be set, and be no
# directory but in one)
INPUT, OUTPUT = "input", "output"
KEYS = (
    ("store.state_path", "state_path", str, OUTPUT),
    ("store.capacity", "capacity", int, 1),
    ("store.prefetch_depth", "prefetch_depth", int, (0, 1)),
    ("slow_source.kind", "slow_kind", str,
     ("memory", "local_dump", "remote_sparql")),
    ("slow_source.locator", "slow_locator", str, None),
    ("model.kind", "model_kind", str, ("mock", "http")),
    ("model.endpoint", "model_endpoint", str, None),
    ("model.api_key_env", "api_key_env", str, None),
    ("model.max_tokens", "model_max_tokens", int, 1),
    ("model.priors", "model_priors", dict, None),
    ("pipeline.k", "k", int, 1),
    ("pipeline.extractor", "extractor", str,
     ("alias_dictionary", "model_prompted")),
    ("eval.seed", "seed", int, None),
    ("data.templates_path", "templates_path", str, INPUT),
    ("data.entities_path", "entities_path", str, INPUT),
    ("data.benchmark_path", "benchmark_path", str, INPUT),
    ("data.multihop_path", "multihop_path", str, INPUT),
)
ATTRS = {key: attr for key, attr, _, _ in KEYS}
# a kind, the key it needs set, and that key's check when it is needed
NEEDS = (
    ("slow_source.kind", "local_dump", "slow_source.locator", INPUT),
    ("slow_source.kind", "remote_sparql", "slow_source.locator", None),
    ("model.kind", "http", "model.endpoint", None),
)
# the eval.sure weights SUREParams checks; other keys there are ignored
SURE_WEIGHTS = ("a", "b", "alpha", "beta")
TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object"}


def load_config(path: Optional[str] = None) -> Config:
    """Read the config file; a missing default file yields pure defaults."""
    config_path = Path(path or DEFAULT_CONFIG_PATH)
    if not config_path.exists():
        if path is not None:
            raise ConfigError(f"config file not found: {path}")
        return Config()
    try:
        raw = read_json(config_path)
    except ParseError as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(str(exc)) from exc
    raw = _object(raw, "config")
    base = config_path.parent
    cfg = Config()
    for key, attr, kind, check in KEYS:
        section, name = key.split(".")
        value = _object(raw.get(section), section).get(
            name, getattr(cfg, attr))
        if value is not None:  # a default too, so state_path resolves
            setattr(cfg, attr, _checked(key, value, kind, check, base))
    for kind_key, kind, key, check in NEEDS:
        value = getattr(cfg, ATTRS[key])
        if getattr(cfg, ATTRS[kind_key]) == kind:
            if not value:
                raise ConfigError(f"{key} is required by {kind_key} {kind!r}")
            setattr(cfg, ATTRS[key], _checked(key, value, str, check, base))
    if not all(type(v) is str for v in cfg.model_priors.values()):
        raise ConfigError(f"model.priors must be an object of strings, "
                          f"got {cfg.model_priors!r}")
    sure = _object(_object(raw.get("eval"), "eval").get("sure"), "eval.sure")
    weights = {name: sure[name] for name in SURE_WEIGHTS if name in sure}
    try:
        cfg.sure_params = SUREParams(**weights)
    except ValueError as exc:  # its message starts with the weight's name
        raise ConfigError(f"eval.sure.{exc}") from exc
    return cfg


def _object(value, key: str) -> dict:
    """A config object without its nulls; a missing or null one is empty."""
    if value is None:
        return {}
    if type(value) is not dict:
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return {name: item for name, item in value.items() if item is not None}


def _checked(key: str, value, kind: type, check, base: Path):
    """Check a value against its row; return it, a path resolved."""
    if type(value) is not kind:  # so a bool is not an int
        raise ConfigError(f"{key} must be {TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(check, tuple) and value not in check:
        allowed = " or ".join(repr(choice) for choice in check)
        raise ConfigError(f"{key} must be {allowed}, got {value!r}")
    if type(check) is int and value < check:
        raise ConfigError(f"{key} must be >= {check}, got {value!r}")
    if check == OUTPUT and (not value or "\0" in value
                            or (base / value).is_dir()):
        raise ConfigError(f"{key} must name a file, got {value!r}")
    if check in (INPUT, OUTPUT) and value:
        value = str(base / value)  # an absolute value stays as it is
        if check == INPUT and not Path(value).is_file():
            raise ConfigError(f"{key} is not a file: {value}")
        if check == OUTPUT and not Path(value).parent.is_dir():
            raise ConfigError(f"{key} is in no directory that exists: "
                              f"{value}")
    return value
