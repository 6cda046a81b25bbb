from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from factcache.cli import main
from factcache.config import (ATTRS, INPUT, KEYS, OUTPUT, SURE_WEIGHTS,
                              Config, load_config)
from factcache.errors import ConfigError
from factcache.metrics import SUREParams


def test_removed_pipeline_keys_are_ignored(tmp_path):
    # pipeline.max_hops and pipeline.scorer were never wired; a config
    # written while they existed must still load
    path = tmp_path / "factcache.json"
    path.write_text(json.dumps({"pipeline": {
        "k": 2, "max_hops": 5, "scorer": "lexical",
        "extractor": "model_prompted"}}), encoding="utf-8")
    cfg = load_config(str(path))
    assert (cfg.k, cfg.extractor) == (2, "model_prompted")
    assert not hasattr(cfg, "max_hops") and not hasattr(cfg, "scorer")


def run_cache_stats(tmp_path, capsys, config) -> tuple[int, str]:
    path = tmp_path / "factcache.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["--config", str(path), "cache", "stats"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ([], "config"),
    ({"store": []}, "store"),
    ({"eval": {"sure": 1}}, "eval.sure"),
    ({"store": {"capacity": "10"}}, "store.capacity"),
    ({"store": {"capacity": True}}, "store.capacity"),
    ({"store": {"prefetch_depth": True}}, "store.prefetch_depth"),
    ({"model": {"max_tokens": "64"}}, "model.max_tokens"),
    ({"pipeline": {"k": "2"}}, "pipeline.k"),
    ({"eval": {"seed": 1.5}}, "eval.seed"),
    ({"store": {"state_path": 5}}, "store.state_path"),
    ({"slow_source": {"kind": ["memory"]}}, "slow_source.kind"),
    ({"model": {"kind": "http", "endpoint": 5}}, "model.endpoint"),
    ({"model": {"api_key_env": True}}, "model.api_key_env"),
    ({"model": {"priors": ["x"]}}, "model.priors"),
    ({"model": {"priors": {"q": 5}}}, "model.priors"),
    ({"pipeline": {"extractor": {}}}, "pipeline.extractor"),
    ({"data": {"entities_path": 1}}, "data.entities_path"),
    ({"eval": {"sure": {"a": "x"}}}, "eval.sure.a"),
    ({"eval": {"sure": {"beta": [1]}}}, "eval.sure.beta"),
    ({"eval": {"sure": {"alpha": True}}}, "eval.sure.alpha"),
    ({"eval": {"sure": {"b": 10 ** 400}}}, "eval.sure.b"),
    ({"eval": {"sure": {"a": float("inf")}}}, "eval.sure.a"),
    ({"eval": {"sure": {"a": -1}}}, "eval.sure.a"),
    ({"data": {"templates_path": "nope.json"}}, "data.templates_path"),
    ({"slow_source": {"kind": "sqlite"}}, "slow_source.kind"),
    ({"model": {"kind": "openai"}}, "model.kind"),
    ({"pipeline": {"extractor": "regex"}}, "pipeline.extractor"),
    ({"pipeline": {"k": 0}}, "pipeline.k"),
    ({"store": {"capacity": 0}}, "store.capacity"),
    ({"store": {"prefetch_depth": 2}}, "store.prefetch_depth"),
    ({"slow_source": {"kind": "local_dump"}}, "slow_source.locator"),
    ({"slow_source": {"kind": "local_dump", "locator": "nope.jsonl"}},
     "slow_source.locator"),
    ({"slow_source": {"kind": "remote_sparql"}}, "slow_source.locator"),
    ({"model": {"kind": "http"}}, "model.endpoint"),
    ({"data": {"benchmark_path": "nope.jsonl"}}, "data.benchmark_path"),
    ({"store": {"state_path": ""}}, "store.state_path"),
    ({"store": {"state_path": "."}}, "store.state_path"),
    ({"model": {"max_tokens": 0}}, "model.max_tokens"),
    ({"model": {"max_tokens": -3}}, "model.max_tokens"),
    # the config's own directory: an input path must name a file
    ({"data": {"entities_path": "."}}, "data.entities_path"),
    ({"slow_source": {"kind": "local_dump", "locator": "."}},
     "slow_source.locator"),
    # an output path in a directory that does not exist
    ({"store": {"state_path": "nodir/state.json"}}, "store.state_path"),
    # a path holding NUL, which no file name can
    ({"store": {"state_path": "a\u0000b"}}, "store.state_path"),
])
def test_a_malformed_config_is_an_error_naming_the_key(tmp_path, capsys,
                                                       config, key):
    code, err = run_cache_stats(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("error: ") and key in err


def test_a_missing_default_file_means_defaults_but_a_named_one_is_an_error(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default file is ./factcache.json
    assert load_config() == Config()
    with pytest.raises(ConfigError, match="config file not found: gone.json"):
        load_config("gone.json")


def test_a_config_that_is_not_json_is_an_error_naming_it(tmp_path):
    path = tmp_path / "factcache.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not JSON") as exc:
        load_config(str(path))
    assert str(path) in str(exc.value)


def test_unknown_sure_keys_are_ignored(tmp_path):
    path = tmp_path / "factcache.json"
    path.write_text(json.dumps({"eval": {"sure": {"zz": 1, "b": 2}}}),
                    encoding="utf-8")
    assert load_config(str(path)).sure_params == SUREParams(b=2)


@pytest.mark.parametrize("config", [
    {"store": None},
    {"store": {"state_path": None, "capacity": None}},
    {"pipeline": {"k": None}},
    {"eval": {"sure": None, "seed": None}},
])
def test_a_null_section_or_key_means_its_default(tmp_path, capsys, config):
    code, err = run_cache_stats(tmp_path, capsys, config)
    assert (code, err) == (0, "")
    assert load_config(str(tmp_path / "factcache.json")) == Config(
        state_path=str(tmp_path / "factcache_state.json"))


def readme_config() -> dict:
    readme = Path(__file__).parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S)[1])


def key_paths(doc: dict, prefix: str = ""):
    """The dotted paths of a config's leaves; a keyed object is a leaf."""
    for name, value in doc.items():
        path = prefix + name
        if isinstance(value, dict) and path not in ATTRS:
            yield from key_paths(value, path + ".")
        else:
            yield path


def test_the_readme_example_names_every_key_and_loads(tmp_path):
    doc = readme_config()
    assert set(key_paths(doc)) == set(ATTRS) | {
        f"eval.sure.{name}" for name in SURE_WEIGHTS}
    (tmp_path / "dump.jsonl").write_text("", encoding="utf-8")
    path = tmp_path / "factcache.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.slow_locator == str(tmp_path / "dump.jsonl")
    assert cfg.state_path == str(tmp_path / "factcache_state.json")


# --- any JSON as a config file ----------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# strings load_config treats specially: a path naming this file, a
# directory, nothing, a missing directory's file, or holding a NUL, which
# no path can; and a URL
_TEXTS = {INPUT: ["factcache.json", "nope.json"],
          OUTPUT: ["state.json", "nodir/state.json"],
          None: ["https://unit.test"]}


def _special(kind: type, check):
    """A value of the key's type that its check treats specially: one of
    its choices, a bound, a path or a URL."""
    if isinstance(check, tuple):
        return st.sampled_from(check)
    if kind is str:
        return st.sampled_from(["", ".", "a\0b", *_TEXTS[check]])
    return st.integers(-1, 2) if kind is int else _JSON


# each key's row, the eval.sure weights' too
_ROWS = [(key, kind, check) for key, _, kind, check in KEYS] + [
    (f"eval.sure.{name}", float, None) for name in SURE_WEIGHTS]


@st.composite
def _configs(draw):
    """A config object setting one to four keys, each to a value its check
    treats specially; one time in 8, a key, a section or the whole file is
    any JSON instead."""
    def part(shaped):
        return draw(_JSON) if draw(st.integers(0, 7)) == 0 else shaped

    config = {}
    for key, kind, check in draw(st.lists(st.sampled_from(_ROWS), min_size=1,
                                          max_size=4, unique=True)):
        *sections, name = key.split(".")
        parent = config
        for section in sections:
            parent = parent.setdefault(section, {})
        parent[name] = part(draw(_special(kind, check)))
    return part({section: part(value) for section, value in config.items()})


@given(config=_configs())
@settings(max_examples=200, deadline=None)
def test_any_json_config_loads_usable_or_is_a_config_error(tmp_path_factory,
                                                          config):
    event(_loads_usable_or_refused(tmp_path_factory, config))


def _loads_usable_or_refused(tmp_path_factory, config) -> str:
    """Write `config` as a config file and load it: it is refused with a
    ConfigError or loads with every key of its type. Returns what it read:
    "refused", "read empty" (the defaults) or "typed with content"."""
    path = tmp_path_factory.mktemp("config") / "factcache.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return "refused"
    for key, attr, kind, check in KEYS:
        value = getattr(cfg, attr)
        assert type(value) is kind or (value is None and attr == "capacity")
        if check in (INPUT, OUTPUT) and value:
            try:  # the system takes the path: it may name no file
                os.stat(value)
            except OSError:
                pass
    assert all(type(v) is str for v in cfg.model_priors.values())
    assert isinstance(cfg.sure_params, SUREParams)
    empty = path.with_name("empty.json")  # the defaults, from that directory
    empty.write_text("{}", encoding="utf-8")
    return ("typed with content" if cfg != load_config(str(empty))
            else "read empty")


# a kind that needs no other key set
_SELF_CONTAINED = {"slow_source.kind": "memory", "model.kind": "mock"}


def _valid(key: str, kind: type, check):
    """A value the key's check accepts with no other key set."""
    if key in _SELF_CONTAINED:
        return st.just(_SELF_CONTAINED[key])
    if isinstance(check, tuple):
        return st.sampled_from(check)
    if check in (INPUT, OUTPUT):  # this file; a file in its directory
        return st.just("factcache.json" if check == INPUT else "state.json")
    if kind is int:
        return st.integers(1 if check is None else check, 9)
    if kind is float:  # an eval.sure weight
        return st.floats(0.25, 4.0)
    if kind is dict:
        return st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                               min_size=1, max_size=2)
    return st.text(min_size=1, max_size=6)


@st.composite
def _near_valid_configs(draw):
    """A config object setting one to four keys to values their checks
    accept; in half the draws one of them is broken instead, set to a value
    its check treats specially or to any JSON."""
    rows = draw(st.lists(st.sampled_from(_ROWS), min_size=1, max_size=4,
                         unique=True))
    broken = draw(st.sampled_from(rows)) if draw(st.booleans()) else None
    config = {}
    for row in rows:
        key, kind, check = row
        *sections, name = key.split(".")
        parent = config
        for section in sections:
            parent = parent.setdefault(section, {})
        parent[name] = draw(_special(kind, check) | _JSON if row == broken
                            else _valid(key, kind, check))
    return config


def test_a_near_valid_config_loads_usable(tmp_path_factory):
    """The companion of the any-JSON property: near-valid configs reach its
    typed checks, at a fixed seed in at least half the examples."""
    reads = []

    @seed(49)
    @settings(max_examples=100, deadline=None, database=None)
    @given(config=_near_valid_configs())
    def run(config):
        reads.append(_loads_usable_or_refused(tmp_path_factory, config))

    run()
    with_content = reads.count("typed with content")
    assert with_content >= len(reads) / 2, (
        f"{with_content} of {len(reads)} loaded with content")
