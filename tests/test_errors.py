"""The one writer of output files, errors.write_text, through the three
writers that call it (dump, benchmark and state files), and the one JSON
decoder, errors.parse_json."""

from __future__ import annotations

import os

import pytest

from factcache.cache import (EditRequest, InMemorySlowSource, TieredFactStore,
                             read_dump, save_state, write_dump)
from factcache.dataset import emit_benchmark, load_benchmark, record_line
from factcache.errors import parse_json, write_text
from factcache.triples import Source
from conftest import FIXTURES, SNAPSHOT, triple

FACTS = [
    triple("CH", "capital", "Bern", subject_label="Schweiz",
           object_label="Bern", source=Source.WIKIDATA, fetched_at=SNAPSHOT),
    triple("Zürich", "population", "421 878", object_is_entity=False,
           object_label="421 878", source=Source.WIKIDATA),
]
ITEMS = load_benchmark(FIXTURES / "single_hop_item.jsonl")


def state_of(facts) -> TieredFactStore:
    """A store that read `facts` through, with an edit to CH."""
    store = TieredFactStore(InMemorySlowSource(facts), prefetch_depth=0)
    store.retrieve("Zürich")
    store.apply_update(EditRequest("CH", "capital", "Bärn",
                                   issued_at=SNAPSHOT,
                                   subject_label="Schweiz"))
    return store


def failing(values):
    """`values` one by one, then an error: a writer's input that fails
    after part of the file would have been written."""
    yield from values
    raise RuntimeError("input failed")


def save_unencodable_state(path):
    """save_state of a store holding a lone surrogate, which UTF-8 cannot
    encode, so the file's text fails partway."""
    store = state_of(FACTS)
    store.apply_update(EditRequest("CH", "motto", "\ud800"))
    save_state(store, path)


# each writer: writing good input, and input that fails partway
WRITERS = {
    "dump": (lambda path: write_dump(path, FACTS, SNAPSHOT),
             lambda path: write_dump(path, failing(FACTS[:1]), SNAPSHOT)),
    "benchmark": (lambda path: emit_benchmark(ITEMS * 3, path),
                  lambda path: emit_benchmark(failing(ITEMS), path)),
    "state": (lambda path: save_state(state_of(FACTS), path),
              save_unencodable_state),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_partway_leaves_the_old_file(tmp_path, writer):
    write, fail = WRITERS[writer]
    path = tmp_path / "out"
    write(path)
    old = path.read_bytes()
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        fail(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("writer", WRITERS)
def test_a_new_output_file_has_the_umask_mode(tmp_path, writer):
    umask = os.umask(0o027)
    try:
        WRITERS[writer][0](tmp_path / "out")
    finally:
        os.umask(umask)
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("writer", WRITERS)
def test_a_symlinked_output_is_written_through(tmp_path, writer):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "out"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link"
    link.symlink_to(target)
    WRITERS[writer][0](link)
    assert link.is_symlink() and target.read_text(encoding="utf-8") != "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link"]
    assert [p.name for p in target.parent.iterdir()] == ["out"]


def test_a_dump_is_written_byte_for_byte(tmp_path):
    path = tmp_path / "dump.jsonl"
    assert write_dump(path, FACTS, SNAPSHOT) == 2
    assert path.read_text(encoding="utf-8") == (
        '{"snapshot_at": "2024-01-01T00:00:00+00:00"}\n'
        '{"subject_id": "CH", "subject_label": "Schweiz", "relation_id": '
        '"capital", "relation_label": "capital", "object_id": "Bern", '
        '"object_label": "Bern", "source": "wikidata", "fetched_at": '
        '"2024-01-01T00:00:00+00:00"}\n'
        '{"subject_id": "Zürich", "subject_label": "Zürich", "relation_id": '
        '"population", "relation_label": "population", "object_id": null, '
        '"object_label": "421 878", "source": "wikidata", "fetched_at": '
        'null}\n')
    assert write_dump(path, FACTS) == 2
    assert read_dump(path) == (None, FACTS)


def test_a_benchmark_file_is_one_record_a_line(tmp_path):
    path = tmp_path / "items.jsonl"
    assert emit_benchmark(iter(ITEMS * 2), path) == 2
    assert path.read_text(encoding="utf-8") == \
        "".join(record_line(item) + "\n" for item in ITEMS * 2)
    assert emit_benchmark([], path) == 0 and path.read_bytes() == b""


def test_a_state_file_is_written_byte_for_byte(tmp_path):
    path = tmp_path / "state.json"
    save_state(state_of(FACTS), path)
    assert path.read_text(encoding="utf-8") == """\
{
  "stats": {
    "hits": 0,
    "misses": 1,
    "slow_fetches": 1,
    "updates_applied": 1,
    "replacements": 0,
    "prefetch_fetches": 0,
    "evictions": 0
  },
  "entries": [
    {
      "subject_id": "CH",
      "subject_label": "Schweiz",
      "relation_id": "capital",
      "relation_label": "capital",
      "object_id": "Bärn",
      "object_label": "Bärn",
      "source": "synthetic",
      "fetched_at": "2024-01-01T00:00:00+00:00",
      "version": 1,
      "edited": true
    },
    {
      "subject_id": "Zürich",
      "subject_label": "Zürich",
      "relation_id": "population",
      "relation_label": "population",
      "object_id": null,
      "object_label": "421 878",
      "source": "wikidata",
      "fetched_at": null,
      "version": 1,
      "edited": false
    }
  ],
  "incomplete": [
    "CH"
  ]
}"""


def test_a_replace_that_fails_leaves_no_temporary_file(tmp_path):
    (tmp_path / "folder").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_text(tmp_path / "folder", "text")
    assert [p.name for p in tmp_path.iterdir()] == ["folder"]
    assert str(exc.value).endswith(f"'{tmp_path / 'folder'}'")
    with pytest.raises(FileNotFoundError) as exc:
        write_text(tmp_path / "nodir" / "out", "text")
    assert str(exc.value).endswith(f"'{tmp_path / 'nodir' / 'out'}'")


@pytest.mark.parametrize("text", [
    r'"\ud800"', r'{"\uDFFF": 1}', r'["ok", "a\udbff"]', r'"\ude00\ud83d"'],
    ids=["high", "low-key", "nested", "pair-reversed"])
def test_a_json_string_with_a_lone_surrogate_is_refused(text):
    with pytest.raises(ValueError, match="lone surrogate"):
        parse_json(text)


@pytest.mark.parametrize("text, value", [
    (r'"\ud83d\ude00"', "\U0001f600"),  # a pair spells one code point
    (r'"\\ud800"', "\\ud800"),  # an escaped backslash, then text
    ('{"Zürich": [1, null]}', {"Zürich": [1, None]})],
    ids=["pair", "escaped-backslash", "plain"])
def test_json_without_a_lone_surrogate_decodes_as_before(text, value):
    assert parse_json(text) == value
