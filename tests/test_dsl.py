"""Parsing, canonical serialization, round-trips, and error recovery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.dsl import SourceSpan, _lex, parse, serialize
from tmkit.render import dot_well_formed, render_static

from helpers import (
    CORPUS_NAMES,
    load_corpus_model,
    models_equal,
    random_valid_model,
    reference_lex,
)


def test_parse_empty_model():
    result = parse("model empty")
    assert result.model is not None
    assert result.model.name == "empty"
    assert result.model.things == ()
    assert result.diagnostics == []


def test_serialize_empty_model():
    model = parse("model empty").model
    assert serialize(model) == "model empty\n"


def test_parse_reservoir_corpus():
    model = load_corpus_model("reservoir")
    assert {t.name for t in model.things} == {"water", "level", "decision"}
    assert [m.name for m in model.root_machines] == [
        "source",
        "valve",
        "tank",
        "processor",
        "decider",
    ]
    assert [m.name for m in model.machines_by_path[("valve",)].children] == ["control"]
    assert [m.name for m in model.machines_by_path[("tank",)].children] == ["sensor"]
    wanted = [
        t
        for t in model.triggers
        if str(t.src) == "processor.process" and str(t.dst) == "decider.create"
    ]
    assert len(wanted) == 1


def test_truncated_flow_is_one_e001_with_span_on_the_arrow():
    text = "model broken\nflow water tank.process ->"
    result = parse(text, "broken.tm")
    assert result.model is None
    e001 = [d for d in result.diagnostics if d.code == "E001"]
    assert len(e001) == 1
    span = e001[0].location
    assert isinstance(span, SourceSpan)
    assert span.start_line == 2
    # the dangling arrow sits at columns 25-26
    assert span.start_col == 25
    assert span.end_col == 26


def test_parser_resynchronizes_at_line_starts():
    text = (
        "model recover\n"
        "thing water\n"
        "flow water ->\n"
        "machine tank\n"
        "trigger ~> tank.create\n"
        "flow water tank.create -> tank.release\n"
    )
    result = parse(text)
    e001 = [d for d in result.diagnostics if d.code == "E001"]
    assert len(e001) >= 2
    lines = {d.location.start_line for d in e001}
    assert len(lines) >= 2


def test_every_parse_diagnostic_has_a_span_in_bounds():
    text = "model broken\nthing thing\nflow x a.b -> c.d\nmachine {\n"
    result = parse(text, "b.tm")
    assert result.diagnostics
    n_lines = text.count("\n") + 1
    for diag in result.diagnostics:
        span = diag.location
        assert isinstance(span, SourceSpan)
        assert 1 <= span.start_line <= n_lines
        assert 1 <= span.start_col
        assert (span.end_line, span.end_col) >= (span.start_line, span.start_col)


def test_unknown_keyword_is_syntax_error():
    result = parse("model m\nwidget foo\n")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E001"]


def test_duplicate_declaration_is_error_not_merge():
    result = parse("model m\nthing a\nthing a\n")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E106"]


def test_duplicate_flow_declaration_is_e106():
    result = parse(
        "model m\nthing x\nmachine a\n"
        "flow x a.create -> a.release\n"
        "flow x a.create -> a.release\n"
    )
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E106"]


def test_duplicate_chronology_block_is_e106():
    result = parse(
        "model m\nthing x\nmachine a\n"
        "flow x a.create -> a.release\n"
        "event e { flow x a.create -> a.release }\n"
        "chronology { }\nchronology { }\n"
    )
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E106"]


def test_stage_kind_names_are_reserved():
    result = parse("model m\nmachine create\n")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E001"]


def test_duplicate_chronology_edge_is_e106():
    result = parse(
        "model m\nthing x\nmachine a\n"
        "flow x a.create -> a.release\n"
        "event e { flow x a.create -> a.release }\n"
        "event f { node a.create }\n"
        "chronology { e -> f e -> f }\n"
    )
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E106"]


def test_chronology_self_loop_is_e302():
    result = parse(
        "model m\nthing x\nmachine a\n"
        "flow x a.create -> a.release\n"
        "event e { flow x a.create -> a.release }\n"
        "chronology { e -> e }\n"
    )
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E302"]


def test_validation_diagnostics_carry_spans():
    text = (
        "model m\n"
        "thing water\n"
        "machine a\n"
        "machine b\n"
        "flow water a.process -> b.receive\n"
    )
    result = parse(text, "m.tm")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E103"]
    span = result.diagnostics[0].location
    assert isinstance(span, SourceSpan)
    assert span.start_line == 5


def test_comments_and_blank_lines_are_ignored():
    result = parse("# header\nmodel m  # trailing\n\n  # indented comment\nthing a\n")
    assert result.model is not None
    assert [t.name for t in result.model.things] == ["a"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_round_trip_structural_identity(name):
    model = load_corpus_model(name)
    reparsed = parse(serialize(model)).model
    assert reparsed is not None
    assert models_equal(model, reparsed)
    assert reparsed == model


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_serialize_fixed_point(name):
    model = load_corpus_model(name)
    once = serialize(model)
    twice = serialize(parse(once).model)
    assert once == twice


@pytest.mark.parametrize("seed", range(40))
def test_random_model_round_trip(seed):
    model = random_valid_model(seed)
    text = serialize(model)
    result = parse(text)
    assert result.model is not None, [str(d) for d in result.diagnostics]
    assert models_equal(model, result.model)
    assert serialize(result.model) == text


def test_canonical_order_groups_categories():
    text = (
        "model shuffled\n"
        "flow water a.create -> a.release\n"
        "thing water\n"
        "machine a\n"
    )
    model = parse(text).model
    assert model is not None
    out = serialize(model)
    assert out.index("thing water") < out.index("machine a") < out.index("flow water")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="model thingmachineflowtrigger{}->~>.\n abc_#é²ñß\U0001f642", max_size=200))
def test_parser_never_crashes(text):
    result = parse(text)
    assert (result.model is None) == any(d.is_error for d in result.diagnostics)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_lexer_matches_reference_on_any_text(text):
    assert _lex(text) == reference_lex(text)


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet="model thingmachineflowtrigger{}->~>.\n abc_#é²ñß\U0001f642\r\t", max_size=200
    ),
    st.sampled_from(["", "-", "~", "#", "# tail"]),
)
def test_lexer_matches_reference_on_tm_alphabet(text, tail):
    assert _lex(text + tail) == reference_lex(text + tail)


def test_trailing_comment_does_not_move_the_eof_span():
    result = parse("# only a comment", "c.tm")
    assert [d.code for d in result.diagnostics] == ["E001"]
    span = result.diagnostics[0].location
    assert (span.start_line, span.start_col, span.end_line, span.end_col) == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "text, line, col",
    [("model m\nthing café\n", 2, 10), ("model m\nthing x²\n", 2, 8), ("model ñ\n", 1, 7)],
)
def test_non_ascii_identifier_character_is_e001_with_span(text, line, col):
    result = parse(text, "u.tm")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["E001"]
    span = result.diagnostics[0].location
    assert isinstance(span, SourceSpan)
    assert (span.start_line, span.start_col) == (line, col)


def test_deep_machine_nesting_has_no_recursion_limit():
    # Texts are compared, not models: == on nested Machines recurses.
    depth = 3000
    opening = "model deep\n" + "".join(f"machine m{i} {{\n" for i in range(depth))
    result = parse(opening + "}\n" * depth)
    assert result.model is not None
    assert len(result.model.machines) == depth
    text = serialize(result.model)
    assert serialize(parse(text).model) == text
    assert dot_well_formed(str(render_static(result.model)))
    unclosed = parse(opening)
    assert unclosed.model is None
    assert [d.code for d in unclosed.diagnostics] == ["E001"]
