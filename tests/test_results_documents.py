"""Campaign documents through the results pipeline: load, render, diff.

The checked-in fixture (tests/data/results/) is a real
``campaign run rare-events --reps 2 --out`` document plus one golden
render per format.  Goldens are byte-for-byte: the document embeds its
tables (schema /2), re-rendering must not depend on simulation code,
jobs count, or cache temperature.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import build_campaign, result_document, run_campaign
from repro.results import render_tables
from repro.results.render import FORMATS
from repro.results.diff import diff_documents, diff_flat, flatten, render_diff
from repro.results.source import (
    DocumentError,
    document_fingerprint,
    generic_task_table,
    load_document,
    parse_document,
    tables_for_document,
    tables_from_store,
)
from repro.store import ResultStore, encode_value

DATA = os.path.join(os.path.dirname(__file__), "data", "results")
FIXTURE = os.path.join(DATA, "rare_events_reps2.doc.json")

GOLDEN_BY_FORMAT = {
    "ascii": "golden.txt",
    "markdown": "golden.md",
    "latex": "golden.tex",
    "csv": "golden.csv",
    "html": "golden.html",
    "json": "golden.json",
}


def fixture_dict():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestDocumentLoading:
    def test_fixture_loads_with_embedded_tables(self):
        doc = load_document(FIXTURE)
        assert doc.schema == "repro-campaign-result/2"
        assert doc.campaign == "rare-events"
        assert doc.tables is not None and len(doc.tables) == 1
        assert doc.tables[0].name == "rare-events"
        assert len(doc.labels) == 6
        assert doc.failed_labels == ()

    def test_rejects_unknown_schema(self):
        data = fixture_dict()
        data["schema"] = "repro-campaign-result/99"
        with pytest.raises(DocumentError, match="unsupported document schema"):
            parse_document(data)

    def test_rejects_non_object(self):
        with pytest.raises(DocumentError, match="JSON object"):
            parse_document(["not", "a", "document"])

    def test_schema_1_compat_reader_rebuilds_tables(self):
        data = fixture_dict()
        data["schema"] = "repro-campaign-result/1"
        del data["tables"]
        doc = parse_document(data)
        assert doc.tables is None
        rebuilt = tables_for_document(doc)
        embedded = list(load_document(FIXTURE).tables)
        assert rebuilt == embedded

    def test_embedded_tables_match_reaggregation(self):
        # the /2 fast path and the /1-style rebuild must agree exactly
        doc = load_document(FIXTURE)
        assert tables_for_document(doc, prefer_embedded=False) == \
            list(doc.tables)

    def test_results_raise_on_failed_tasks(self):
        data = fixture_dict()
        task = data["tasks"][0]
        del task["result"]
        task["error"] = {"type": "RuntimeError", "message": "boom",
                         "timed_out": False}
        doc = parse_document(data)
        with pytest.raises(DocumentError, match="1 failed task"):
            doc.results()

    def test_reaggregation_needs_the_campaigns_own_tasks(self):
        # A task short of the campaign's list must not aggregate into a
        # silently partial table.
        data = fixture_dict()
        data["schema"] = "repro-campaign-result/1"
        del data["tables"]
        del data["tasks"][-1]
        with pytest.raises(DocumentError, match="5 task.*not the 6 task"):
            tables_for_document(parse_document(data))

    def test_unknown_campaign_falls_back_to_generic_table(self):
        data = fixture_dict()
        data["campaign"] = "ad-hoc-specfile"
        del data["tables"]
        doc = parse_document(data)
        tables = tables_for_document(doc)
        assert tables == [generic_task_table(doc)]
        assert tables[0].headers == ("label", "digest", "result")
        assert len(tables[0].rows) == 6


class TestFingerprint:
    def test_stable_across_schema_and_embedded_tables(self):
        doc2 = load_document(FIXTURE)
        data = fixture_dict()
        data["schema"] = "repro-campaign-result/1"
        del data["tables"]
        doc1 = parse_document(data)
        assert document_fingerprint(doc1) == document_fingerprint(doc2)

    def test_sensitive_to_payloads(self):
        data = fixture_dict()
        data["tasks"][0]["digest"] = "0" * 12
        assert document_fingerprint(parse_document(data)) != \
            document_fingerprint(load_document(FIXTURE))


class TestGoldenRenders:
    @pytest.mark.parametrize("fmt,golden", sorted(GOLDEN_BY_FORMAT.items()))
    def test_render_matches_golden_bytes(self, fmt, golden):
        doc = load_document(FIXTURE)
        rendered = render_tables(tables_for_document(doc), fmt) + "\n"
        with open(os.path.join(DATA, golden), "rb") as fh:
            assert rendered.encode("utf-8") == fh.read()


class TestFlattenAndDiff:
    def test_flatten_paths(self):
        flat = flatten({"a": {"b": [1, {"c": 2}]}, "d": 3})
        assert flat == {"a.b[0]": 1, "a.b[1].c": 2, "d": 3}

    def test_diff_flat_reports_absent_sides(self):
        diffs = diff_flat({"x": 1, "y": 2}, {"x": 1, "z": 3})
        assert diffs == [("y", 2, "<absent>"), ("z", "<absent>", 3)]

    def test_identical_documents(self):
        doc = load_document(FIXTURE)
        diff = diff_documents(doc, doc)
        assert diff.identical
        assert "documents identical" in render_diff(diff)

    def test_seed_change_names_diverging_spec_params(self):
        doc_a = load_document(FIXTURE)
        definition = build_campaign("rare-events", reps=2, seed=7)
        result = run_campaign(definition.labeled_specs,
                              name=definition.name)
        doc_b = parse_document(result_document(definition, result))

        diff = diff_documents(doc_a, doc_b)
        assert not diff.identical
        assert ("seed", 0, 7) in diff.params
        assert len(diff.tasks) == 6          # every replicate reseeded
        for task in diff.tasks:
            paths = [p for p, _a, _b in task.diverging_params]
            assert paths == ["cluster.seed"]

        text = render_diff(diff)
        assert "param seed: 0 -> 7" in text
        assert "spec cluster.seed: 0 -> 7" in text
        # same labels on both sides: divergence is parametric
        assert diff.only_a == [] and diff.only_b == []

    def test_provenance_lines_query_store_index(self, tmp_path):
        doc_a = load_document(FIXTURE)
        data = fixture_dict()
        data["tasks"][0]["digest"] = "f" * 12
        doc_b = parse_document(data)
        with ResultStore(str(tmp_path)) as store:
            store.put(doc_a.tasks[0]["key"], {"result": 1, "snapshot": {}})
            text = render_diff(diff_documents(doc_a, doc_b), store=store)
        digest = doc_a.tasks[0]["digest"]
        assert f"provenance A: 1 cached key(s) under digest {digest}" in text
        assert "provenance B: 0 cached key(s)" in text


class TestStoreBackedTables:
    def test_tables_from_store_match_document(self, tmp_path):
        definition = build_campaign("rare-events", reps=2)
        with ResultStore(str(tmp_path)) as store:
            run_campaign(definition.labeled_specs, name=definition.name,
                         store=store)
            tables = tables_from_store(definition, store)
        assert tables == list(load_document(FIXTURE).tables)

    def test_missing_results_name_the_campaign(self, tmp_path):
        definition = build_campaign("rare-events", reps=2)
        with ResultStore(str(tmp_path)) as store:
            with pytest.raises(DocumentError,
                               match="missing 6/6.*rare-events"):
                tables_from_store(definition, store)

    def test_document_regenerates_byte_identical(self, tmp_path):
        # cold store, then warm store: the fixture must be reproducible
        definition = build_campaign("rare-events", reps=2)
        docs = []
        with ResultStore(str(tmp_path)) as store:
            for _ in range(2):
                result = run_campaign(definition.labeled_specs,
                                      name=definition.name, store=store)
                from repro.obs.export import render_json
                docs.append(render_json(result_document(definition, result)))
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            fixture = fh.read()
        assert docs[0] == docs[1] == fixture


def test_fixture_docs_deep_equal_ignores_key_field_only():
    # the task "key" embeds the package version; everything else in the
    # fixture must be derivable from the simulation alone
    data = fixture_dict()
    from repro import __version__
    for task in data["tasks"]:
        assert task["key"].endswith(f":{__version__}")
        assert task["key"].split(":")[0].startswith(task["digest"])


# ----------------------------------------------------------------------
# Loader fuzz: a malformed document is a ValueError, never a traceback
# ----------------------------------------------------------------------
def _json(floats):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | floats
        | st.text(max_size=6),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.text(max_size=6), children,
                                            max_size=3)),
        max_leaves=8)


_JSON = _json(st.floats())
#: What the store codec accepts: a NaN does not read back equal.
_STORABLE = _json(st.floats(allow_nan=False))


def _encoded(value):
    enc, payload = encode_value(value)
    return {"enc": enc, "payload": payload}


#: A result payload: an encoded JSON value (shaped like the reducers'
#: results or not), a retired or unknown encoding, or junk.
_RESULT = st.one_of(
    st.builds(_encoded, _STORABLE | st.fixed_dictionaries({
        "passed": _STORABLE, "isolated": _STORABLE})),
    st.fixed_dictionaries({
        "enc": st.sampled_from(["json", "json+zlib", "pickle", "msgpack"]),
        "payload": st.text(max_size=12)}),
    _JSON)

_ERROR = st.fixed_dictionaries({"type": st.text(max_size=6),
                                "message": st.text(max_size=6)}) | _JSON


def _task(labels):
    return st.one_of(
        st.fixed_dictionaries({"label": labels, "digest": st.text(max_size=6),
                               "key": st.text(max_size=6),
                               "result": _RESULT}),
        st.fixed_dictionaries({"label": labels, "digest": st.text(max_size=6),
                               "error": _ERROR}),
        _JSON)


#: An embedded table: each field well-formed or arbitrary.
_TABLE = st.fixed_dictionaries(
    {"name": st.text(max_size=6) | _JSON,
     "headers": st.lists(st.text(max_size=4), max_size=3) | _JSON,
     "rows": st.lists(st.lists(_JSON, max_size=3) | _JSON,
                      max_size=3) | _JSON},
    optional={"title": st.none() | st.text(max_size=6) | _JSON,
              "footer": st.lists(st.text(max_size=6), max_size=2) | _JSON})

_PARAMS = st.fixed_dictionaries({}, optional={
    "reps": st.integers(-1, 2) | _JSON, "nodes": st.integers(1, 5) | _JSON,
    "seed": st.integers(0, 2) | _JSON, "round_length": _JSON,
    "specs": _JSON}) | _JSON

#: Documents of an arbitrary shape.
_ANY_DOCUMENT = st.fixed_dictionaries(
    {"schema": st.sampled_from(["repro-campaign-result/1",
                                "repro-campaign-result/2"])},
    optional={
        "campaign": st.sampled_from(["validate", "table2", "rare-events",
                                     "spec-file"]) | _JSON,
        "params": _PARAMS,
        "tasks": st.lists(_task(st.text(max_size=6)), max_size=3) | _JSON,
        "tables": st.lists(_TABLE | _JSON, max_size=2) | _JSON,
        "metrics": _JSON,
    })


def _campaign_labels(name, **params):
    return [label for label, _spec
            in build_campaign(name, **params).labeled_specs]


#: Documents whose tasks are a named campaign's own tasks, so their
#: payloads reach the campaign's aggregate and tables.
_CAMPAIGN_DOCUMENT = st.sampled_from([
    ("table2", {"seed": 0, "round_length": 0.0025},
     _campaign_labels("table2")),
    ("rare-events", {"reps": 1, "nodes": 4, "seed": 0},
     _campaign_labels("rare-events", reps=1)),
]).flatmap(lambda named: st.fixed_dictionaries({
    "schema": st.just("repro-campaign-result/1"),
    "campaign": st.just(named[0]),
    "params": st.just(named[1]),
    "tasks": st.tuples(*(_task(st.just(label)) for label in named[2]))
    .map(list),
}))


#: Documents whose embedded tables are what readers render.
_TABLES_DOCUMENT = st.fixed_dictionaries({
    "schema": st.just("repro-campaign-result/2"),
    "tables": st.lists(_TABLE, min_size=1, max_size=2),
})

#: Named-campaign documents with arbitrary params, which the re-
#: aggregation path rebuilds the campaign from.
_PARAMS_DOCUMENT = st.fixed_dictionaries({
    "schema": st.just("repro-campaign-result/1"),
    "campaign": st.sampled_from(["validate", "table2", "rare-events"]),
    "params": st.fixed_dictionaries({
        "reps": st.integers(-1, 2), "nodes": st.integers(1, 5),
        "seed": st.integers(0, 2), "round_length": _JSON}),
})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_ANY_DOCUMENT | _CAMPAIGN_DOCUMENT | _PARAMS_DOCUMENT
       | _TABLES_DOCUMENT)
def test_document_loader_fuzz_raises_only_value_errors(data):
    # DocumentError is a ValueError: the CLI reports either as exit 2.
    try:
        doc = parse_document(data)
    except DocumentError:
        return
    document_fingerprint(doc)

    def render():
        tables = tables_for_document(doc)
        for fmt in FORMATS:
            render_tables(tables, fmt)

    for read in (render, doc.results, lambda: diff_documents(doc, doc)):
        try:
            read()
        except ValueError:
            pass
