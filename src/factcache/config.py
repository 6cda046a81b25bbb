"""Configuration loading for the command-line tool.

One JSON document configures the slow source, the model client, pipeline
knobs, evaluation parameters, and data paths. Anything omitted or null
falls back to a sensible default and unknown keys are ignored; a value of
the wrong type (a section or `model.priors` that is not an object, a count
that is not an integer, an `eval.sure` weight that is not a finite
number, a name or path that is not a string) is an error naming its key,
and referenced input paths must resolve at load time.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .metrics import SUREParams

DEFAULT_CONFIG_PATH = "./factcache.json"


@dataclass
class Config:
    # store
    state_path: str = "./factcache_state.json"
    capacity: Optional[int] = None
    prefetch_depth: int = 1
    # slow source
    slow_kind: str = "memory"  # memory | local_dump | remote_sparql
    slow_locator: str = ""
    # model client
    model_kind: str = "mock"  # mock | http
    model_endpoint: str = ""
    api_key_env: str = ""
    model_max_tokens: int = 64
    model_priors: dict[str, str] = field(default_factory=dict)
    # pipeline
    k: int = 1
    extractor: str = "alias_dictionary"
    # eval
    sure_params: SUREParams = field(default_factory=SUREParams)
    seed: int = 7
    # data
    templates_path: str = ""
    entities_path: str = ""
    benchmark_path: str = ""
    multihop_path: str = ""

    def api_key(self) -> Optional[str]:
        if not self.api_key_env:
            return None
        return os.environ.get(self.api_key_env)


def load_config(path: Optional[str] = None) -> Config:
    """Read the config file; a missing default file yields pure defaults."""
    config_path = Path(path or DEFAULT_CONFIG_PATH)
    if not config_path.exists():
        if path is not None:
            raise ConfigError(f"config file not found: {path}")
        return Config()
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    raw = _object(raw, "config")
    store = _object(raw.get("store"), "store")
    slow = _object(raw.get("slow_source"), "slow_source")
    model = _object(raw.get("model"), "model")
    pipe = _object(raw.get("pipeline"), "pipeline")
    eval_cfg = _object(raw.get("eval"), "eval")
    data = _object(raw.get("data"), "data")
    sure = _object(eval_cfg.get("sure"), "eval.sure")
    sure = {key: sure[key] for key in ("a", "b", "alpha", "beta")
            if key in sure}
    for key, value in sure.items():
        # a bool is not a number here, nor is an int past the float range
        if type(value) not in (int, float) or abs(value) > sys.float_info.max:
            raise ConfigError(
                f"eval.sure.{key} must be a finite number, got {value!r}")
        try:
            SUREParams(**{key: value})  # the range check of this weight
        except ValueError as exc:
            raise ConfigError(
                f"eval.sure.{key}: {exc}, got {value!r}") from exc

    try:
        cfg = Config(
            state_path=store.get("state_path", "./factcache_state.json"),
            capacity=store.get("capacity"),
            prefetch_depth=store.get("prefetch_depth", 1),
            slow_kind=slow.get("kind", "memory"),
            slow_locator=slow.get("locator", ""),
            model_kind=model.get("kind", "mock"),
            model_endpoint=model.get("endpoint", ""),
            api_key_env=model.get("api_key_env", ""),
            model_max_tokens=model.get("max_tokens", 64),
            model_priors=model.get("priors", {}),
            k=pipe.get("k", 1),
            extractor=pipe.get("extractor", "alias_dictionary"),
            sure_params=SUREParams(**sure),
            seed=eval_cfg.get("seed", 7),
            templates_path=data.get("templates_path", ""),
            entities_path=data.get("entities_path", ""),
            benchmark_path=data.get("benchmark_path", ""),
            multihop_path=data.get("multihop_path", ""),
        )
        _validate(cfg, config_path.parent)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return cfg


def _object(value, name: str) -> dict:
    """A config object without its nulls, so that each falls back to its
    default; a missing or null object is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return {key: item for key, item in value.items() if item is not None}


def _validate(cfg: Config, base: Path) -> None:
    for key, value in (("store.capacity", cfg.capacity),
                       ("store.prefetch_depth", cfg.prefetch_depth),
                       ("model.max_tokens", cfg.model_max_tokens),
                       ("pipeline.k", cfg.k), ("eval.seed", cfg.seed)):
        if value is not None and type(value) is not int:  # a bool is not
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    for key, value in (("store.state_path", cfg.state_path),
                       ("slow_source.kind", cfg.slow_kind),
                       ("slow_source.locator", cfg.slow_locator),
                       ("model.kind", cfg.model_kind),
                       ("model.endpoint", cfg.model_endpoint),
                       ("model.api_key_env", cfg.api_key_env),
                       ("pipeline.extractor", cfg.extractor),
                       ("data.templates_path", cfg.templates_path),
                       ("data.entities_path", cfg.entities_path),
                       ("data.benchmark_path", cfg.benchmark_path),
                       ("data.multihop_path", cfg.multihop_path)):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    priors = cfg.model_priors
    if not (isinstance(priors, dict)
            and all(isinstance(v, str) for v in priors.values())):
        raise ConfigError(
            f"model.priors must be an object of strings, got {priors!r}")
    if cfg.slow_kind not in ("memory", "local_dump", "remote_sparql"):
        raise ConfigError(f"unknown slow source kind: {cfg.slow_kind!r}")
    if cfg.slow_kind == "local_dump":
        if not cfg.slow_locator:
            raise ConfigError("local_dump slow source needs a locator path")
        resolved = _resolve(base, cfg.slow_locator)
        if not resolved.exists():
            raise ConfigError(f"slow source dump not found: {resolved}")
        cfg.slow_locator = str(resolved)
    if cfg.slow_kind == "remote_sparql" and not cfg.slow_locator:
        raise ConfigError("remote_sparql slow source needs an endpoint URL")
    if cfg.model_kind not in ("mock", "http"):
        raise ConfigError(f"unknown model kind: {cfg.model_kind!r}")
    if cfg.model_kind == "http" and not cfg.model_endpoint:
        raise ConfigError("http model needs an endpoint")
    if cfg.k < 1:
        raise ConfigError("pipeline.k must be >= 1")
    if cfg.prefetch_depth not in (0, 1):
        raise ConfigError("store.prefetch_depth must be 0 or 1")
    if cfg.capacity is not None and cfg.capacity < 1:
        raise ConfigError("store.capacity must be >= 1 when set")
    if cfg.extractor not in ("alias_dictionary", "model_prompted"):
        raise ConfigError(f"unknown extractor: {cfg.extractor!r}")
    cfg.state_path = str(_resolve(base, cfg.state_path))
    for attr in ("templates_path", "entities_path", "benchmark_path",
                 "multihop_path"):
        value = getattr(cfg, attr)
        if value:
            resolved = _resolve(base, value)
            if not resolved.exists():
                raise ConfigError(f"data.{attr} does not exist: {resolved}")
            setattr(cfg, attr, str(resolved))


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p)
