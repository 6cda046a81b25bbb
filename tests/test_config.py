from __future__ import annotations

import json

from factcache.config import load_config


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
