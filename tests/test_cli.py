from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import factcache.cache
import factcache.cli
import factcache.pipeline
from factcache import sparqlio
from factcache.cache import write_dump
from factcache.cli import main
from factcache.config import Config
from factcache.models import HttpCompletionModel, MockTableModel
from factcache.triples import Source, TaskKind
from conftest import FIXTURES, SNAPSHOT, subject_facts_endpoint, triple


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding a dump-backed config."""
    monkeypatch.chdir(tmp_path)
    triples = [
        triple("America", "head of government", "Joe Biden",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Sioux Falls", "head of government", "Paul Ten Haken",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Viarmes", "head of government", "William Rouyer",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("France", "capital", "Paris",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Sweden", "capital", "Stockholm",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        triple("Norway", "capital", "Oslo",
               source=Source.WIKIDATA, fetched_at=SNAPSHOT),
    ]
    write_dump(tmp_path / "dump.jsonl", triples, snapshot_at=SNAPSHOT)
    config = {
        "store": {"state_path": "state.json", "prefetch_depth": 1},
        "slow_source": {"kind": "local_dump", "locator": "dump.jsonl"},
        "model": {"kind": "mock", "priors": {}},
        "eval": {"seed": 7},
    }
    (tmp_path / "factcache.json").write_text(json.dumps(config))
    return tmp_path


def count_dump_parses(monkeypatch) -> list:
    """Count read_dump calls, wherever the CLI makes them."""
    calls = []
    real = factcache.cache.read_dump

    def counting(path):
        calls.append(path)
        return real(path)

    for module in (factcache.cache, factcache.cli):
        monkeypatch.setattr(module, "read_dump", counting)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fetch_fixture(directory, **cells) -> str:
    """A copy of the recorded Wikidata triples reply whose first row has
    `cells`' values, written under `directory`; its path."""
    payload = json.loads(
        (FIXTURES / "wikidata_triples_response.json").read_text())
    for name, value in cells.items():
        payload["results"]["bindings"][0][name]["value"] = value
    path = directory / "fixture.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestEdit:
    def test_insert_then_noop_replace(self, workdir, capsys):
        code, out, _ = run(capsys, "edit", "US", "head_of_gov", "Biden")
        assert code == 0 and out.strip() == "INSERTED"
        code, out, _ = run(capsys, "edit", "US", "head_of_gov", "Biden")
        assert code == 0 and out.strip() == "REPLACED (no change)"
        code, out, _ = run(capsys, "edit", "US", "head_of_gov", "Harris")
        assert code == 0 and out.strip() == "REPLACED"

    def test_missing_argument_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["edit", "US", "head_of_gov"])
        assert exc.value.code == 2

    def test_state_persists_between_invocations(self, workdir, capsys):
        run(capsys, "edit", "US", "head_of_gov", "Biden")
        assert Path("state.json").exists()
        code, out, _ = run(capsys, "cache", "stats")
        assert "updates_applied=1" in out

    def test_a_literal_edit_repeats_as_no_change(self, workdir, capsys):
        argv = ("edit", "America", "population", "331", "--literal")
        assert run(capsys, *argv)[:2] == (0, "INSERTED\n")
        assert run(capsys, *argv)[:2] == (0, "REPLACED (no change)\n")

    def test_a_literal_takes_no_other_object_label(self, workdir, capsys):
        # a stored literal is its label, so the label would replace 331
        code, out, err = run(capsys, "edit", "America", "population", "331",
                             "--literal", "--object-label", "three hundred")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--object-label" in err
        assert not Path("state.json").exists()
        code, out, _ = run(capsys, "edit", "America", "population", "331",
                           "--literal", "--object-label", "331")
        assert (code, out) == (0, "INSERTED\n")


class TestQuery:
    QUESTION = "Who is the current head of government for Sioux Falls?"

    def test_cached_answer(self, workdir, capsys):
        code, out, _ = run(capsys, "query", self.QUESTION)
        assert code == 0
        assert out.strip() == "Paul Ten Haken"

    def test_trace_shows_a_hit_on_the_second_run(self, workdir, capsys):
        run(capsys, "query", self.QUESTION)
        code, out, err = run(capsys, "query", self.QUESTION, "--trace")
        assert code == 0
        assert out.strip() == "Paul Ten Haken"  # machine output only
        assert "1 hit(s), 0 miss(es)" in err
        assert "(Sioux Falls, head of government, Paul Ten Haken)" in err
        assert "Q: Who is the current head of government for Sioux Falls?" in err

    def test_trace_prints_the_five_stage_latencies(self, workdir, capsys):
        code, out, err = run(capsys, "query", self.QUESTION, "--trace")
        assert code == 0 and out.strip() == "Paul Ten Haken"
        [line] = [l for l in err.splitlines() if l.startswith("latency: ")]
        stages = dict(field.split("=") for field in line.split()[1:])
        assert list(stages) == ["extract", "retrieve", "rank", "assemble",
                                "generate"]
        assert all(re.fullmatch(r"\d+us", us) for us in stages.values())

    def test_one_query_parses_the_dump_once(self, workdir, capsys,
                                           monkeypatch):
        calls = count_dump_parses(monkeypatch)
        code, out, _ = run(capsys, "query", self.QUESTION)
        assert code == 0 and out.strip() == "Paul Ten Haken"
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, parses", [
        (["edit", "US", "head_of_gov", "Biden"], 0),
        (["cache", "stats"], 0),
        (["cache", "load", "dump.jsonl"], 1),
    ], ids=["edit", "cache-stats", "cache-load"])
    def test_a_command_parses_the_dump_only_to_read_it(
            self, workdir, capsys, monkeypatch, argv, parses):
        calls = count_dump_parses(monkeypatch)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == parses

    def test_shared_label_resolves_to_the_first_dump_subject(
            self, workdir, capsys):
        # two subjects named "Springfield"; the one first in the file wins,
        # though its id sorts after the other's
        write_dump(workdir / "dump.jsonl", [
            triple("Q2", "population", "116250", subject_label="Springfield",
                   object_is_entity=False),
            triple("Q1", "population", "169176", subject_label="Springfield",
                   object_is_entity=False),
        ], snapshot_at=SNAPSHOT)
        for _ in range(2):  # fresh state, then with Q2 resident
            code, out, err = run(capsys, "query",
                                 "What is the population of Springfield?",
                                 "--trace")
            assert code == 0
            assert "entities: Q2" in err
            assert out.strip() == "116250"

    def test_a_remote_sparql_slow_source_answers_from_the_endpoint(
            self, workdir, capsys, monkeypatch):
        # with no dump, only the entities file lets "America" be extracted
        (workdir / "factcache.json").write_text(json.dumps({
            "store": {"state_path": "state.json"},
            "slow_source": {"kind": "remote_sparql",
                            "locator": "https://unit.test/sparql"},
            "data": {"entities_path": "entities.json"}}))
        (workdir / "entities.json").write_text(json.dumps(
            [{"id": "Q30", "label": "America"}]))
        sent_at = []
        monkeypatch.setattr(sparqlio, "http_transport",
                            subject_facts_endpoint({"Q30": [
                                ("P6", "head of government", "Q6279",
                                 "Joe Biden"),
                                ("P36", "capital", "Q61", "Washington")]},
                                sent_at))
        code, out, _ = run(capsys, "query", "Who is the current head of "
                           "government for America?")
        assert code == 0 and out.strip() == "Joe Biden"
        assert len(sent_at) == 3  # the miss and its two neighbours
        assert sent_at[-1] - sent_at[0] < 0.1

    def test_the_alias_index_learns_a_subject_name_read_through(
            self, workdir, capsys, monkeypatch):
        (workdir / "factcache.json").write_text(json.dumps({
            "store": {"state_path": "state.json", "prefetch_depth": 0},
            "slow_source": {"kind": "remote_sparql",
                            "locator": "https://unit.test/sparql"},
            "data": {"entities_path": "entities.json"}}))
        (workdir / "entities.json").write_text(json.dumps(
            [{"id": "Q30", "label": "America"}]))
        monkeypatch.setattr(sparqlio, "http_transport",
                            subject_facts_endpoint(
                                {"Q30": [("P6", "head of government",
                                          "Q6279", "Joe Biden")]},
                                [], labels={"Q30": "United States"}))
        code, _, err = run(capsys, "query", "--trace", "Who is the current "
                           "head of government for America?")
        assert code == 0
        assert "evidence: (United States, head of government, Joe Biden)" \
            in err
        code, out, _ = run(capsys, "query", "Who is the current head of "
                           "government for the United States?")
        assert code == 0 and out.strip() == "Joe Biden"

    def test_an_entity_under_its_id_and_label_is_registered_once(
            self, workdir, capsys, monkeypatch):
        (workdir / "entities.json").write_text(json.dumps([
            {"id": "Q30", "label": "United States of America",
             "aliases": ["America", "the States"]}]))
        config = json.loads((workdir / "factcache.json").read_text())
        config["data"] = {"entities_path": "entities.json"}
        (workdir / "factcache.json").write_text(json.dumps(config))
        added = []
        add_all = factcache.pipeline.AliasIndex.add_all

        def spy(index, pairs):
            added.extend(pairs)
            add_all(index, pairs)

        monkeypatch.setattr(factcache.pipeline.AliasIndex, "add_all", spy)
        code, _, _ = run(capsys, "query", "Who leads the States?")
        assert code == 0
        assert sorted(a for a in added if a[1] == "Q30") == [
            ("America", "Q30"), ("United States of America", "Q30"),
            ("the States", "Q30")]

    def test_unknown_task_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["query", "q", "--task", "nonsense"])
        assert exc.value.code == 2


class TestCache:
    QUESTION = "Who is the current head of government for Sioux Falls?"

    def test_stats_after_warm_and_cold_query(self, workdir, capsys):
        run(capsys, "query", self.QUESTION)
        run(capsys, "query", self.QUESTION)
        code, out, _ = run(capsys, "cache", "stats")
        assert code == 0
        assert "hits=1" in out and "misses=1" in out

    def test_sync_against_unchanged_dump(self, workdir, capsys):
        run(capsys, "query", self.QUESTION)
        code, out, _ = run(capsys, "cache", "sync")
        assert code == 0
        assert out.strip() == "0 changed"

    def test_sync_picks_up_a_dump_change(self, workdir, capsys):
        run(capsys, "query", self.QUESTION)
        changed = [
            triple("Sioux Falls", "head of government", "Someone New",
                   source=Source.WIKIDATA, fetched_at=SNAPSHOT),
        ]
        write_dump(workdir / "dump.jsonl", changed, snapshot_at=SNAPSHOT)
        code, out, _ = run(capsys, "cache", "sync")
        assert out.strip() == "1 changed"
        code, out, _ = run(capsys, "query", self.QUESTION)
        assert out.strip() == "Someone New"

    def test_sync_keeps_an_edit_over_a_snapshot_time_without_an_offset(
            self, workdir, capsys):
        dump = workdir / "dump.jsonl"
        head, rows = dump.read_text().split("\n", 1)
        dump.write_text(head.replace("+00:00", "") + "\n" + rows)
        assert '"2024-01-01T00:00:00"}' in dump.read_text()
        run(capsys, "edit", "America", "head of government", "Kamala Harris")
        assert run(capsys, "cache", "sync") == (0, "0 changed\n", "")
        assert run(capsys, "query", "Who is the current head of government "
                   "for America?")[:2] == (0, "Kamala Harris\n")

    def test_an_edit_over_a_state_time_without_an_offset(self, workdir,
                                                          capsys):
        argv = ("edit", "America", "capital", "Paris")
        assert run(capsys, *argv) == (0, "INSERTED\n", "")
        state = json.loads(Path("state.json").read_text())
        (entry,) = state["entries"]
        entry["fetched_at"] = entry["fetched_at"].removesuffix("+00:00")
        Path("state.json").write_text(json.dumps(state))
        assert run(capsys, *argv) == (0, "REPLACED (no change)\n", "")

    def test_load_reports_the_triple_count(self, workdir, capsys):
        dump_lines = sum(
            1 for line in (workdir / "dump.jsonl").read_text().splitlines()
            if "subject_id" in line)
        code, out, _ = run(capsys, "cache", "load", str(workdir / "dump.jsonl"))
        assert code == 0
        assert out.strip() == f"{dump_lines} triples"

    def test_load_without_a_dump_path_is_a_usage_error(self, workdir,
                                                        capsys):
        code, out, err = run(capsys, "cache", "load")
        assert (code, out) == (2, "")
        assert err.strip() == "cache load requires a dump file path"


class TestCorruptInput:
    QUESTION = "Who is the current head of government for Sioux Falls?"

    @pytest.mark.parametrize("text", [
        "not json",
        '{"entries": [{"subject_id": "US", "object_label": "x"}]}',
        '{"stats": {"hits": "x"}}'],
        ids=["not-json", "entry-without-relation", "text-count"])
    def test_query_with_a_corrupt_state_file(self, workdir, capsys, text):
        (workdir / "state.json").write_text(text)
        code, out, err = run(capsys, "query", self.QUESTION)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "state.json" in err

    def test_query_over_a_dump_row_of_the_wrong_type(self, workdir, capsys):
        dump = workdir / "dump.jsonl"
        lines = dump.read_text().splitlines()
        row = json.loads(lines[1])
        dump.write_text("\n".join(
            [lines[0], json.dumps({**row, "object_label": 5}), *lines[2:]]))
        code, out, err = run(capsys, "query", self.QUESTION)
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: ") and "object_label" in err

    def surrogate_dump(self, workdir) -> str:
        """A copy of the dump whose second line's label is the JSON escape
        of a lone surrogate, which no UTF-8 text holds; its name."""
        lines = (workdir / "dump.jsonl").read_text().splitlines()
        row = {**json.loads(lines[1]), "object_label": "\ud800"}
        (workdir / "surrogate.jsonl").write_text("\n".join(
            [lines[0], json.dumps(row), *lines[2:]]))
        return "surrogate.jsonl"

    def test_query_over_a_dump_row_with_a_lone_surrogate(self, workdir,
                                                         capsys):
        config = json.loads((workdir / "factcache.json").read_text())
        config["slow_source"]["locator"] = self.surrogate_dump(workdir)
        (workdir / "factcache.json").write_text(json.dumps(config))
        code, out, err = run(capsys, "query", self.QUESTION)
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: surrogate.jsonl: ")
        assert "lone surrogate" in err
        assert not Path("state.json").exists()

    def test_build_over_a_dump_row_with_a_lone_surrogate(self, workdir,
                                                         capsys):
        Path("items.jsonl").write_text("old\n")
        code, out, err = run(capsys, "data", "build", "--triples",
                             self.surrogate_dump(workdir), "--out",
                             "items.jsonl")
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: ") and "lone surrogate" in err
        assert Path("items.jsonl").read_text() == "old\n"

    @pytest.mark.parametrize("extra", [[], ["--filter-ambiguous"]],
                             ids=["rows", "filtered"])
    def test_fetch_a_reply_with_a_lone_surrogate(self, workdir, capsys,
                                                 extra):
        fixture = fetch_fixture(workdir, objectLabel="\ud800")
        code, out, err = run(capsys, "data", "fetch", "--relation", "P6",
                             "--fixture", fixture, *extra)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {fixture}: ")
        assert "lone surrogate" in err

    def test_an_argument_that_is_not_text(self, workdir, capsys):
        run(capsys, "edit", "America", "capital", "Washington")
        saved = Path("state.json").read_bytes()
        # the system keeps an argument's undecodable bytes as surrogates
        code, out, err = run(capsys, "edit", "America", "capital", "\udcff")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "not valid text" in err
        assert Path("state.json").read_bytes() == saved

    @pytest.mark.parametrize("text, key", [
        ("not json", "Expecting"), ('{"a": 1}', "JSON list"),
        ('[{"label": "x"}]', "id"), ('[{"id": ""}]', "id"),
        ('[{"id": "Q1", "aliases": "abc"}]', "aliases"),
        ('[{"id": "Q1", "aliases": [""]}]', "aliases"),
        ('[{"id": "Q1", "label": 5}]', "label")],
        ids=["not-json", "not-a-list", "no-id", "empty-id", "text-aliases",
             "empty-alias", "int-label"])
    def test_query_with_a_corrupt_entities_file(self, workdir, capsys, text,
                                                key):
        config = json.loads((workdir / "factcache.json").read_text())
        config["data"] = {"entities_path": "entities.json"}
        (workdir / "factcache.json").write_text(json.dumps(config))
        (workdir / "entities.json").write_text(text)
        code, out, err = run(capsys, "query", self.QUESTION)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "entities.json" in err
        assert key in err

    @pytest.mark.parametrize("row", [
        "{broken",
        json.dumps({"subject_id": "US", "relation_id": "r",
                    "object_label": "x", "source": "bogus"})],
        ids=["not-json", "unknown-source"])
    def test_cache_load_with_a_broken_dump_line(self, workdir, capsys, row):
        dump = workdir / "broken.jsonl"
        dump.write_text((workdir / "dump.jsonl").read_text() + row + "\n")
        lines = len(dump.read_text().splitlines())
        code, out, err = run(capsys, "cache", "load", str(dump))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {lines}: ")
        assert str(dump) in err
        assert not Path("state.json").exists()

    @pytest.mark.parametrize("name", ["missing.jsonl", "folder"])
    @pytest.mark.parametrize("command", [
        ["cache", "load"],
        ["data", "build", "--out", "items.jsonl", "--triples"],
        ["data", "validate", "--items"],
        ["eval", "main", "--items"],
        ["data", "fetch", "--relation", "P6", "--fixture"]],
        ids=["cache-load", "data-build", "data-validate", "eval-main",
             "data-fetch"])
    def test_an_input_path_that_names_no_file(self, workdir, capsys, command,
                                              name):
        (workdir / "folder").mkdir()
        code, out, err = run(capsys, *command, name)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name}: cannot be read: ")
        assert "Traceback" not in err
        assert not Path("state.json").exists()

    @pytest.mark.parametrize("path", ["nodir/items.jsonl", "folder"])
    def test_an_output_path_that_cannot_be_written(self, workdir, capsys,
                                                   path):
        (workdir / "folder").mkdir()
        code, out, err = run(capsys, "data", "build", "--triples",
                             "dump.jsonl", "--out", path)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and path in err
        assert ".tmp" not in err and "Traceback" not in err

    @pytest.mark.parametrize("data, key", [
        (b"5\n", "JSON object"),
        (b'{"s1_label": "A", "MultihopQA_query": 5}\n', "MultihopQA_query"),
        (b"\xff\n", "not UTF-8")],
        ids=["int-record", "int-multihop-query", "not-utf8"])
    def test_validate_a_bad_benchmark_line(self, workdir, capsys, data, key):
        (workdir / "items.jsonl").write_bytes(data)
        code, out, err = run(capsys, "data", "validate", "--items",
                             "items.jsonl")
        assert code == 1 and out == ""
        assert err.startswith("error: line 1: items.jsonl: ") and key in err
        code, out, err = run(capsys, "data", "validate", "--lenient",
                             "--items", "items.jsonl")
        assert code == 0 and out.strip() == "0 items OK"

    @pytest.mark.parametrize("query", [
        "In which administrative territorial entity is the entities Amtrak "
        "owns located?",
        "In which {} is the entities {} owns located?"],
        ids=["no-placeholder", "two-placeholders"])
    def test_validate_a_multihop_query_without_one_placeholder(
            self, workdir, capsys, query):
        record = json.loads((FIXTURES / "multihop_item.jsonl").read_text())
        record["MultihopQA_query"] = query
        (workdir / "items.jsonl").write_text(json.dumps(record) + "\n")
        assert run(capsys, "data", "validate", "--items", "items.jsonl") == (
            1, "", "error: line 1: items.jsonl: multihop query must keep "
                   "exactly one {} placeholder\n")

    @pytest.mark.parametrize("hops", [1, 6])
    def test_validate_a_chain_of_a_bad_length(self, workdir, capsys, hops):
        record = {"s1_label": "e0", "MultihopQA_query": "Who is {}?"}
        for i in range(1, hops + 1):
            record |= {f"relation_label_{i}": "spouse", f"o{i}_label": f"e{i}",
                       f"qa_query_{i}": f"Who is e{i - 1}'s spouse?"}
        (workdir / "items.jsonl").write_text(json.dumps(record) + "\n")
        assert run(capsys, "data", "validate", "--items", "items.jsonl") == (
            1, "", f"error: line 1: items.jsonl: chain length must be 2..5, "
                   f"got {hops}\n")

    @pytest.mark.parametrize("kb", ["dbpedia", "wikidata"])
    def test_fetch_a_relation_that_names_no_property(self, workdir, capsys,
                                                     kb):
        fixture = str(FIXTURES / f"{kb}_triples_response.json")
        for extra in ((), ("--filter-ambiguous",)):
            code, out, err = run(capsys, "data", "fetch", "--kb", kb,
                                 "--relation", "/", "--fixture", fixture,
                                 *extra)
            assert code == 1 and out == ""
            assert err == "error: relation '/' names no property id\n"

    @pytest.mark.parametrize("option", ["--limit", "--offset"])
    def test_fetch_a_negative_limit_or_offset(self, workdir, capsys, option):
        fixture = str(FIXTURES / "wikidata_triples_response.json")
        code, out, err = run(capsys, "data", "fetch", "--relation", "P6",
                             option, "-1", "--fixture", fixture)
        assert code == 1 and out == ""
        assert err == "error: limit and offset must be non-negative\n"

    def test_fetch_a_wikidata_relation_that_is_no_property_id(self, workdir,
                                                               capsys):
        fixture = str(FIXTURES / "wikidata_triples_response.json")
        code, out, err = run(capsys, "data", "fetch", "--relation", "P6 } #",
                             "--fixture", fixture)
        assert code == 1 and out == ""
        assert err == "error: relation 'P6 } #' names no property id\n"

    def test_fetch_a_relation_count_that_is_no_integer(self, workdir,
                                                        capsys):
        fixture = fetch_fixture(workdir, relationCount="x")
        for extra in ((), ("--filter-ambiguous",)):
            code, out, err = run(capsys, "data", "fetch", "--relation", "P6",
                                 "--fixture", fixture, *extra)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "relationCount 'x'" in err

    @pytest.mark.parametrize("row, key", [
        ({"id": "P6", "qa": ["Who heads {}?"]}, "label is missing"),
        ({"id": "P6", "label": "head", "qa": ["Who heads it?"],
          "completion": ["{}"], "cloze": ["{}"], "choice": ["{}"],
          "nest": ["{}"]},
         "qa must be")],
        ids=["no-label", "no-placeholder"])
    def test_build_with_a_bad_templates_file(self, workdir, capsys, row, key):
        config = json.loads((workdir / "factcache.json").read_text())
        config["data"] = {"templates_path": "templates.json"}
        (workdir / "factcache.json").write_text(json.dumps(config))
        (workdir / "templates.json").write_text(json.dumps([row]))
        code, out, err = run(capsys, "data", "build", "--triples",
                             "dump.jsonl", "--out", "items.jsonl")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "templates.json: relation 0: " \
            in err and key in err


class TestData:
    def test_validate_reference_pair(self, workdir, capsys):
        code, out, _ = run(capsys, "data", "validate", "--items",
                           str(FIXTURES / "benchmark_pair.jsonl"))
        assert code == 0
        assert out.strip() == "2 items OK"

    def test_validate_rejects_broken_files(self, workdir, capsys, tmp_path):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"subject_label": "incomplete"}\n')
        code, out, err = run(capsys, "data", "validate", "--items", str(bad))
        assert code == 1
        assert "error" in err

    def test_build_is_deterministic_under_a_seed(self, workdir, capsys):
        for name in ("a.jsonl", "b.jsonl"):
            code, _, _ = run(capsys, "--seed", "7", "data", "build",
                             "--triples", "dump.jsonl", "--out", name)
            assert code == 0
        assert (workdir / "a.jsonl").read_bytes() == \
            (workdir / "b.jsonl").read_bytes()

    def test_seed_flag_overrides_the_configured_seed(self, workdir, capsys):
        run(capsys, "--seed", "7", "data", "build", "--triples", "dump.jsonl",
            "--out", "seven.jsonl")
        run(capsys, "--seed", "8", "data", "build", "--triples", "dump.jsonl",
            "--out", "eight.jsonl")
        assert (workdir / "seven.jsonl").read_bytes() != \
            (workdir / "eight.jsonl").read_bytes()

    def test_build_then_validate(self, workdir, capsys):
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        code, out, _ = run(capsys, "data", "validate", "--items",
                           "items.jsonl")
        assert code == 0
        assert out.strip().endswith("items OK")

    def test_multihop_build_validates_and_repeats(self, workdir, capsys):
        sample = Path(__file__).parent.parent / "sample_data" / "dump.jsonl"
        (workdir / "desk.jsonl").write_bytes(sample.read_bytes())
        for name in ("a.jsonl", "b.jsonl"):
            code, out, _ = run(capsys, "data", "build", "--triples",
                               "desk.jsonl", "--out", name, "--multihop",
                               "--hops", "2")
            assert code == 0
            assert not out.startswith("0 items")
        code, out, _ = run(capsys, "data", "validate", "--items", "a.jsonl")
        assert code == 0 and out.strip().endswith("items OK")
        assert (workdir / "a.jsonl").read_bytes() == \
            (workdir / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_build_skips_a_fact_whose_choice_line_would_misread(
            self, workdir, capsys, seed):
        # the sample dump, with Viarmes' head of government labelled so
        # that, first on a choice line, it reads back as two options
        sample = Path(__file__).parent.parent / "sample_data" / "dump.jsonl"
        text = sample.read_text(encoding="utf-8")
        label = '"object_label": "William Rouyer"'
        assert text.count(label) == 1
        (workdir / "gore.jsonl").write_text(
            text.replace(label, '"object_label": "Al B: Gore"'),
            encoding="utf-8")
        code, out, err = run(capsys, "--seed", seed, "data", "build",
                             "--triples", "gore.jsonl", "--out", "items.jsonl")
        assert (code, out, err) == (0, "2 items written to items.jsonl\n", "")
        code, out, _ = run(capsys, "data", "validate", "--items",
                           "items.jsonl")
        assert (code, out) == (0, "2 items OK\n")

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_build_takes_a_dump_that_mixes_relation_ids(self, workdir,
                                                        capsys, seed):
        # the sample dump, with Viarmes' head of government named by its
        # id, as data fetch writes it, and the others by label
        sample = Path(__file__).parent.parent / "sample_data" / "dump.jsonl"
        text = sample.read_text(encoding="utf-8")
        row = '"subject_label": "Viarmes", "relation_id": '
        assert text.count(row + '"head of government"') == 1
        (workdir / "mixed.jsonl").write_text(
            text.replace(row + '"head of government"', row + '"P6"'),
            encoding="utf-8")
        code, out, err = run(capsys, "--seed", seed, "data", "build",
                             "--triples", "mixed.jsonl", "--out",
                             "items.jsonl")
        assert (code, out, err) == (0, "2 items written to items.jsonl\n", "")
        code, out, _ = run(capsys, "data", "validate", "--items",
                           "items.jsonl")
        assert (code, out) == (0, "2 items OK\n")

    def test_build_count_keeps_the_first_items(self, workdir, capsys):
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "all.jsonl")
        code, out, _ = run(capsys, "data", "build", "--triples", "dump.jsonl",
                           "--out", "one.jsonl", "--count", "1")
        assert (code, out) == (0, "1 items written to one.jsonl\n")
        first = (workdir / "all.jsonl").read_text().splitlines(True)[0]
        assert (workdir / "one.jsonl").read_text() == first

    def test_fetch_fixture_mode(self, workdir, capsys):
        code, out, _ = run(
            capsys, "data", "fetch", "--kb", "wikidata", "--relation", "P6",
            "--fixture", str(FIXTURES / "wikidata_triples_response.json"))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["subject_label"] == "Sioux Falls"
        assert rows[0]["object_label"] == "Paul Ten Haken"

    def test_fetch_filtered_fixture_repeats_byte_for_byte(self, workdir,
                                                          capsys):
        argv = ("data", "fetch", "--relation", "P6", "--filter-ambiguous",
                "--fixture", str(FIXTURES / "wikidata_triples_response.json"))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        # a replay has no fetch time to stamp
        assert all(json.loads(line)["fetched_at"] is None
                   for line in out.splitlines())
        assert run(capsys, *argv) == (code, out, "")

    def test_fetch_skips_a_subject_made_of_slashes(self, workdir, capsys):
        argv = ("data", "fetch", "--relation", "P6", "--filter-ambiguous",
                "--fixture")
        _, whole, _ = run(capsys, *argv,
                          str(FIXTURES / "wikidata_triples_response.json"))
        code, out, err = run(capsys, *argv,
                             fetch_fixture(workdir, subject="/"))
        assert code == 0 and err == ""
        # the first row, Sioux Falls', names no subject, so it is dropped
        kept = [line for line in whole.splitlines() if "Sioux" not in line]
        assert len(kept) < len(whole.splitlines())
        assert out.splitlines() == kept

    def test_fetch_properties_fixture_mode(self, workdir, capsys):
        code, out, _ = run(
            capsys, "data", "fetch", "--kb", "dbpedia", "--properties",
            "--fixture", str(FIXTURES / "equivalent_properties_response.json"))
        labels = [json.loads(line)["label"] for line in out.splitlines()]
        assert "birth place" in labels
        assert "VIAF ID" not in labels

    def test_fetch_properties_prints_each_pair_s_fields_in_order(
            self, workdir, capsys):
        code, out, _ = run(
            capsys, "data", "fetch", "--kb", "dbpedia", "--properties",
            "--fixture", str(FIXTURES / "equivalent_properties_response.json"))
        assert code == 0
        assert out.splitlines()[0] == (
            '{"dbpedia_property": "http://dbpedia.org/ontology/birthPlace", '
            '"wikidata_property": "P19", "label": "birth place"}')


@pytest.mark.parametrize("command, message", [
    (["data", "fetch", "--fixture",
      str(FIXTURES / "wikidata_triples_response.json")],
     "data fetch requires --relation or --properties"),
    (["data", "validate"],
     "data validate requires --items or a configured benchmark_path"),
    (["eval", "main"], "eval main requires --items or a configured path"),
    (["eval", "rq1"], "eval rq1 requires --items or a configured path"),
    (["eval", "rq2"], "eval rq2 requires --items or a configured path")],
    ids=["fetch", "validate", "eval-main", "eval-rq1", "eval-rq2"])
def test_a_command_without_its_input_is_a_usage_error(workdir, capsys,
                                                      command, message):
    assert run(capsys, *command) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, argument", [
    (["edit", "", "head of government", "X"], "subject"),
    (["edit", "America", "", "X"], "relation"),
    (["edit", "America", "head of government", ""], "object"),
    (["query", ""], "question"),
    (["eval", "rq1", "--items", "items.jsonl", "--counts", "0"], "--counts"),
    (["eval", "rq3", "--sizes", "0"], "--sizes"),
    (["data", "build", "--triples", "dump.jsonl", "--out", "items.jsonl",
      "--count", "-1"], "--count"),
    (["data", "build", "--triples", "dump.jsonl", "--out", "items.jsonl",
      "--multihop", "--hops", "0"], "--hops"),
    (["data", "build", "--triples", "dump.jsonl", "--out", "items.jsonl",
      "--multihop", "--hops", "6"], "--hops")],
    ids=["edit-subject", "edit-relation", "edit-object", "query", "counts",
         "sizes", "count", "hops-0", "hops-6"])
def test_a_bad_argument_is_a_usage_error(workdir, capsys, argv, argument):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {argument}: " in err
    assert "Traceback" not in err
    assert not Path("items.jsonl").exists() and not Path("state.json").exists()


def test_an_http_model_reads_its_key_from_the_named_variable(monkeypatch):
    monkeypatch.setenv("FACTCACHE_TEST_KEY", "sekrit")
    cfg = Config(model_kind="http", model_endpoint="http://127.0.0.1:9/c",
                 api_key_env="FACTCACHE_TEST_KEY", model_max_tokens=16)
    model = factcache.cli._model(cfg)
    assert isinstance(model, HttpCompletionModel)
    assert (model.endpoint, model.api_key, model.max_tokens) == (
        "http://127.0.0.1:9/c", "sekrit", 16)


class TestEval:
    def test_main_suite_on_a_built_desk_set(self, workdir, capsys):
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        code, out, _ = run(capsys, "eval", "main", "--items", "items.jsonl",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["dd"] == 0.0
        assert report["sure"] == report["em_macro"]

    def test_rq1_emits_the_four_point_curve(self, workdir, capsys):
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        code, out, _ = run(capsys, "eval", "rq1", "--items", "items.jsonl",
                           "--format", "json")
        curve = json.loads(out)["em_by_edit_count"]
        assert list(curve) == ["1", "2", "5", "10"]

    def test_rq1_table_prints_one_line_per_edit_count(self, workdir, capsys):
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        code, out, _ = run(capsys, "eval", "rq1", "--items", "items.jsonl",
                           "--counts", "1", "2")
        assert code == 0
        assert re.fullmatch(r"edits=1 EM=\d+\.\d\d\nedits=2 EM=\d+\.\d\d\n",
                            out)

    def test_rq3_table_prints_one_line_per_size(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "rq3", "--sizes", "1", "10")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["size=1", "EM=100.00"], ["size=10", "EM=100.00"]]
        assert all(re.fullmatch(r"size=\d+ EM=100\.00 lookup=\d+\.\d{3}ms "
                                r"answer=\d+\.\d{3}ms", line)
                   for line in lines)

    def test_rq3_small_sizes(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "rq3", "--sizes", "1", "10",
                           "--format", "json")
        points = json.loads(out)
        assert points["1"]["em"] == 100.0
        assert points["10"]["em"] == 100.0

    def test_rq3_json_lists_each_point_s_fields_in_order(self, workdir,
                                                         capsys):
        code, out, _ = run(capsys, "eval", "rq3", "--sizes", "1", "10",
                           "--format", "json")
        assert code == 0
        points = json.loads(out)
        assert list(points) == ["1", "10"]
        assert [list(point) for point in points.values()] == [
            ["em", "median_lookup_s", "median_answer_s"]] * 2

    @staticmethod
    def build_sample_chains(workdir, capsys):
        """Chains from the sample dump, with its entities configured."""
        sample = Path(__file__).parent.parent / "sample_data"
        for name in ("dump.jsonl", "entities.json"):
            (workdir / name).write_bytes((sample / name).read_bytes())
        config = json.loads((workdir / "factcache.json").read_text())
        config["data"] = {"entities_path": "entities.json"}
        (workdir / "factcache.json").write_text(json.dumps(config))
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "chains.jsonl", "--multihop")

    @staticmethod
    def dialogue_asked(monkeypatch) -> list:
        """The query of each dialogue prompt the mock model is given, in
        order, filled as the model answers."""
        asked = []
        generate = MockTableModel.generate

        def spy(model, prompt):
            if prompt.task is TaskKind.DIALOGUE:
                asked.append(prompt.query)
            return generate(model, prompt)

        monkeypatch.setattr(MockTableModel, "generate", spy)
        return asked

    def test_rq2_reads_the_dialogue_with_the_configured_entities(
            self, workdir, capsys, monkeypatch):
        self.build_sample_chains(workdir, capsys)
        asked = self.dialogue_asked(monkeypatch)
        code, _, _ = run(capsys, "eval", "rq2", "--items", "chains.jsonl")
        assert code == 0
        # hop 1 answers "Joe Biden", and hop 2 names that answer as subject
        assert "Who is Joe Biden's spouse?" in asked

    def test_rq2_dialogue_keeps_the_hop_question_around_the_last_answer(
            self, workdir, capsys, monkeypatch):
        # an entities file tags Jill Biden a female person; hop 2's
        # question reads as its template does, with her name as subject
        write_dump(workdir / "dump.jsonl", [
            triple("Joe Biden", "spouse", "Jill Biden"),
            triple("Jill Biden", "P54", "Team X",
                   relation_label="member of sports team")],
            snapshot_at=SNAPSHOT)
        (workdir / "entities.json").write_text(json.dumps([
            {"id": "Jill Biden", "label": "Jill Biden", "kind": "person",
             "gender": "female"}]))
        config = json.loads((workdir / "factcache.json").read_text())
        config["data"] = {"entities_path": "entities.json"}
        (workdir / "factcache.json").write_text(json.dumps(config))
        code, out, _ = run(capsys, "data", "build", "--triples", "dump.jsonl",
                           "--out", "chains.jsonl", "--multihop", "--hops",
                           "2")
        assert (code, out) == (0, "1 items written to chains.jsonl\n")
        asked = self.dialogue_asked(monkeypatch)
        code, _, _ = run(capsys, "eval", "rq2", "--items", "chains.jsonl")
        assert code == 0
        assert asked == ["Who is Joe Biden's spouse?",
                         "Which sports team does Jill Biden play for?"]

    def test_rq2_json_lists_em_counts_and_reference_em(self, workdir,
                                                       capsys):
        self.build_sample_chains(workdir, capsys)
        code, out, _ = run(capsys, "eval", "rq2", "--items", "chains.jsonl",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["em", "counts", "reference_em"]
        assert report["em"] == {"decompose": {"2": 100.0},
                                "dialogue": {"2": 50.0}}

    def test_an_eval_parses_the_entities_file_once(
            self, workdir, capsys, monkeypatch):
        self.build_sample_chains(workdir, capsys)
        calls = []
        load = factcache.cli.load_entities

        def counting(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(factcache.cli, "load_entities", counting)
        code, _, _ = run(capsys, "eval", "rq2", "--items", "chains.jsonl")
        assert code == 0
        assert len(calls) == 1

    def test_a_dump_label_outranks_an_item_label_alike(
            self, workdir, capsys, monkeypatch):
        # the items name "America"; the dump, registered first, now names
        # another subject "AMERICA!", which tokenizes alike
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        write_dump(workdir / "dump.jsonl", [
            triple("Q30", "head of government", "Joe Biden",
                   subject_label="AMERICA!")], snapshot_at=SNAPSHOT)
        seen = {}
        evaluate = factcache.cli.run_main_eval

        def spy(items, pipeline, **kwargs):
            for surface in ("America", "Sioux Falls"):
                seen[surface] = pipeline.aliases.lookup(surface)
            return evaluate(items, pipeline, **kwargs)

        monkeypatch.setattr(factcache.cli, "run_main_eval", spy)
        code, _, _ = run(capsys, "eval", "main", "--items", "items.jsonl")
        assert code == 0
        # "Sioux Falls" is only in the items now
        assert seen == {"America": "Q30", "Sioux Falls": "Sioux Falls"}

    def test_bad_suite_name_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nonsense"])
        assert exc.value.code == 2

    def test_eval_does_not_touch_saved_state(self, workdir, capsys):
        run(capsys, "edit", "US", "head_of_gov", "Biden")
        before = Path("state.json").read_text()
        run(capsys, "data", "build", "--triples", "dump.jsonl",
            "--out", "items.jsonl")
        run(capsys, "eval", "main", "--items", "items.jsonl")
        assert Path("state.json").read_text() == before
