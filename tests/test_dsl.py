"""Parsing, canonical serialization, round-trips, and error recovery."""

from __future__ import annotations

import gc
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmkit.dsl
from tmkit.core import (
    STAGE_KINDS,
    ChronologyDecl,
    EventDecl,
    FlowDecl,
    MachineDecl,
    ThingDecl,
    parse_stage_ref,
)
from tmkit.dsl import SourceSpan, _Parser, _scan, parse, serialize
from tmkit.render import dot_well_formed, render_static

from helpers import (
    CORPUS_NAMES,
    bench_workloads,
    collector_runs,
    corpus_path,
    generated_line_events,
    line_events,
    load_corpus_model,
    models_equal,
    random_valid_model,
    reference_lex,
    reference_parse,
)
from test_acceptance import MUTATIONS


def _lex(text: str) -> list:
    """The token stream before folding: ``_scan``'s unfolded mode."""
    return _scan(text, "d.tm", fold=False)[0]


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



@pytest.mark.parametrize(
    "block, first",
    [
        ("machine a\nevent e {\n  flow x a.create\n}",
         (6, "syntax error: expected '->', found '}'")),
        ("machine a {\n  flow x a.create\n}",
         (4, "syntax error: expected 'machine' or '}' inside machine block, found 'flow'")),
        ("machine a {\n  machine b {\n    flow x a.create\n  }\n}",
         (5, "syntax error: expected 'machine' or '}' inside machine block, found 'flow'")),
        ("machine a\nevent e {\n  flow x a.create {\n  }\n}",
         (5, "syntax error: expected '->', found '{'")),
        ("chronology {\n  e ->\n}",
         (5, "syntax error: expected event name, found '}'")),
        # a block left open ends at a line only the top level takes
        ("machine a\nevent e {\n  flow x a.create",
         (6, "syntax error: expected '->', found 'thing'")),
    ],
    ids=["event", "machine", "nested-machine", "inner-brace", "chronology", "unclosed"],
)
def test_one_mistake_in_a_block_is_one_e001(block, first):
    text = "model m\nthing x\n" + block + "\nthing y\n"
    diagnostics, _, _ = _paths_agree(text)
    e001 = [(span.start_line, message) for code, _, span, message in diagnostics
            if code == "E001"]
    assert e001 == [first]
    _, decls, _ = _Parser(*_scan(text, "d.tm"), "d.tm").parse()
    assert [d.name for d in decls if type(d) is ThingDecl] == ["x", "y"]


def test_every_parse_diagnostic_has_a_span_in_bounds():
    # `tm` prints each diagnostic's location as its span, so every code must
    # carry one: syntax, build and validation diagnostics alike.
    base = corpus_path("murderer.tm").read_text()
    texts = ["model broken\nthing thing\nflow x a.b -> c.d\nmachine {\n"]
    texts += [mutate(base) for mutate in MUTATIONS.values()]
    texts += [text for text, _ in bench_workloads().relay().broken.values()]
    codes = set()
    for text in texts:
        result = parse(text, "b.tm")
        assert result.diagnostics
        n_lines = text.count("\n") + 1
        for diag in result.diagnostics:
            codes.add(diag.code)
            span = diag.location
            assert isinstance(span, SourceSpan)
            assert 1 <= span.start_line <= n_lines
            assert 1 <= span.start_col
            assert (span.end_line, span.end_col) >= (span.start_line, span.start_col)
    assert {"E102", "E103", "E105"} <= codes


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


def test_a_stage_reference_without_a_machine_path_is_e001():
    # A bare stage kind names no machine; read as a path, it would give an
    # E101 for an empty segment instead.
    result = parse("model m\nthing x\nmachine a\nflow x transfer -> a.transfer\n")
    assert result.model is None
    pinned = [
        (d.code, d.location.start_line, d.location.start_col, d.message)
        for d in result.diagnostics
        if d.is_error
    ]
    assert pinned == [(
        "E001", 4, 8, "syntax error: stage reference needs a machine path"
    )]


_IN_MACHINE = "syntax error: expected 'machine' or '}' inside machine block, found 'bogus'"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("model m\nevent e {\n",
         [(2, 9, "syntax error: unterminated event block, expected '}'")]),
        ("model m\nmachine a {\n",
         [(2, 11, "syntax error: unterminated machine block, expected '}'")]),
        # the first block's braces are counted, so the second block is parsed
        ("model m\nmachine a {\n  bogus\n}\nmachine b {\n  bogus\n}\n",
         [(3, 3, _IN_MACHINE), (6, 3, _IN_MACHINE)]),
        # a mid-file E001 sits at the failing token, not one token back
        ("model m\nthing x\nmachine a {\n  bogus }\n", [(4, 3, _IN_MACHINE)]),
    ],
    ids=["unterminated-event", "unterminated-machine", "two-machine-blocks", "mid-file"],
)
def test_e001_sits_at_the_failing_token(text, expected):
    result = parse(text)
    assert [(d.code, d.location.start_line, d.location.start_col, d.message)
            for d in result.diagnostics] == [("E001", *e) for e in expected]


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


@pytest.mark.parametrize(
    "text,expected",
    [
        # The flow's E102 stays on its line, not machine f1's, and machine t1's
        # W202 on its own line, not trigger t1's.
        (
            "model m\nthing x\nmachine a\nmachine t1\nflow x a.create -> a.transfer\n"
            "trigger a.create ~> a.release\nmachine f1\n",
            [("E102", 5), ("E102", 6), ("W202", 4), ("W202", 7)],
        ),
        # Machine x's W202 stays on its line, not the event x's.
        (
            "model m\nmachine x\nthing x\nmachine a\nflow x a.create -> a.process\n"
            "event x {\n  flow x a.create -> a.process\n}\n",
            [("W202", 2)],
        ),
    ],
    ids=["edges-and-machines", "machine-thing-and-event"],
)
def test_an_element_sharing_an_id_with_another_kind_keeps_its_own_span(text, expected):
    diagnostics = parse(text, "w.tm").diagnostics
    assert [(d.code, d.location.start_line) for d in diagnostics] == expected


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


# Each token takes the spaces, comment and line end after it; these pin the
# positions and line starts that absorbing them must keep.
@pytest.mark.parametrize(
    "text, expected",
    [
        # a token, spaces and a comment at the end of the text, no newline
        ("model m  # c",
         [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
          ("eof", "", 1, 10, 10, False)]),
        ("model m\r\nthing x\r\n",
         [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
          ("kw", "thing", 2, 1, 5, True), ("ident", "x", 2, 7, 7, False),
          ("eof", "", 3, 1, 1, True)]),
        # a blank line holding only spaces, inside the text and at its end
        ("model m\n \t \nthing x\n   ",
         [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
          ("kw", "thing", 3, 1, 5, True), ("ident", "x", 3, 7, 7, False),
          ("eof", "", 4, 4, 4, True)]),
        # a comment-only last line, with and without its newline
        ("model m\n  # last",
         [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
          ("eof", "", 2, 3, 3, True)]),
        ("model m\n# last\n",
         [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
          ("eof", "", 3, 1, 1, True)]),
        # a "." that continues a reference on the line after a line end
        ("flow x a.create -> a # c\n  .release\n",
         [("kw", "flow", 1, 1, 4, True), ("ident", "x", 1, 6, 6, False),
          ("ident", "a", 1, 8, 8, False), (".", ".", 1, 9, 9, False),
          ("kw", "create", 1, 10, 15, False), ("->", "->", 1, 17, 18, False),
          ("ident", "a", 1, 20, 20, False), (".", ".", 2, 3, 3, True),
          ("kw", "release", 2, 4, 10, False), ("eof", "", 3, 1, 1, True)]),
    ],
    ids=["comment-at-eof", "crlf", "blank-spaces", "comment-last-line",
         "comment-last-line-newline", "continuation"],
)
def test_line_ends_spaces_and_comments_keep_token_positions(text, expected):
    assert _lex(text) == reference_lex(text) == expected
    _paths_agree(text)


def test_a_folded_line_takes_its_comment_without_moving_the_eof_token():
    tokens, folded = _scan("model m\nthing x  # c", "d.tm")
    assert tokens == [("kw", "model", 1, 1, 5, True), ("ident", "m", 1, 7, 7, False),
                      ("kw", "thing", 2, 1, 5, True), ("eof", "", 2, 10, 10, False)]
    assert folded == {2: ThingDecl("x", SourceSpan("d.tm", 2, 1, 2, 7))}
    # a "." after the line end continues the last reference: no fold
    assert _scan("flow x a.create -> a.release # c\n\n  .process", "d.tm")[1] == {}


def _scan_matches(text: str) -> tuple[int, int]:
    """The regex matches ``_scan`` makes on ``text``, and the tokens it returns."""
    real = tmkit.dsl._scan_re
    matches = 0

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def finditer(self, text):
            nonlocal matches
            for match in self.pattern.finditer(text):
                matches += 1
                yield match

    with mock.patch.object(tmkit.dsl, "_scan_re", lambda *args: Counting(real(*args))):
        tokens, _ = _scan(text, "d.tm")
    return matches, len(tokens)


def test_scan_makes_one_regex_match_per_token_on_a_relay():
    # Spaces, line ends and comments go into the match of the token before
    # them; a match per space run and line end doubled the scan's matches.
    matches, tokens = _scan_matches(bench_workloads().relay(400).models["relay"])
    assert matches <= tokens, (matches, tokens)


def test_scan_folds_a_relay_to_at_most_5000_tokens():
    # Leaf machine lines, event heads and the chronology block are one token
    # each, as flow, trigger and thing lines are: 7,208 tokens when only those
    # three folded, 4,809 with these.
    tokens, _ = _scan(bench_workloads().relay(400).models["relay"], "d.tm")
    assert len(tokens) <= 5000, len(tokens)


def test_scan_folds_a_relay_to_at_most_3000_tokens():
    # Each event block is one token too, where its head, its item lines and
    # its "}" were six: 2,807 tokens.
    tokens, _ = _scan(bench_workloads().relay(400).models["relay"], "d.tm")
    assert len(tokens) <= 3000, len(tokens)


def test_scan_folds_the_corpus_to_at_most_200_tokens():
    # Each machine block folds whole, nested ones included, where its leaves
    # were one token each and its head and "}" lines were tokens too: 198
    # tokens, 252 when the leaves folded one line at a time.
    tokens = sum(len(_scan(corpus_path(f"{name}.tm").read_text(), "d.tm")[0])
                 for name in CORPUS_NAMES)
    assert tokens <= 200, tokens


def test_parse_reads_no_event_body_of_a_relay():
    # Every relay event folds whole, so the token parser reads none of them.
    text = bench_workloads().relay(400).models["relay"]
    with mock.patch.object(_Parser, "parse_body", side_effect=AssertionError) as body:
        assert parse(text).model is not None
    assert body.call_count == 0


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_scan_matches_only_tokens_and_blank_or_comment_lines_on_the_corpus(name):
    text = corpus_path(f"{name}.tm").read_text()
    blank = sum(not line.split("#", 1)[0].strip(" \t\r") for line in text.splitlines())
    matches, tokens = _scan_matches(text)
    assert matches <= tokens + blank, (matches, tokens, blank)


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


# -- folded lines ------------------------------------------------------------
# parse folds each complete flow, trigger, thing and leaf machine line, each
# whole machine, event and chronology block into one token. The token path
# (unfolded _scan and the token parser alone) is the reference it must match.


def _open_braces_at_folds(text: str) -> list[int]:
    """For each folded keyword, the "{" that the token stream before it
    leaves open, a "}" at depth 0 counting for nothing."""
    tokens, folded = _scan(text, "d.tm")
    keywords = {tokens[at][2:4] for at in folded}  # (line, col)
    depths, depth = [], 0
    for tok in _lex(text):
        if tok[2:4] in keywords:
            depths.append(depth)
        depth = max(depth + (tok.kind == "{") - (tok.kind == "}"), 0)
    assert len(depths) == len(folded)
    return depths


def test_a_line_inside_a_block_folds_only_with_its_whole_block():
    workloads = bench_workloads()
    bases = [corpus_path(f"{name}.tm").read_text() for name in CORPUS_NAMES]
    texts = list(bases)
    for inputs in (workloads.relay(40), workloads.flood(12, 12)):
        texts += list(inputs.models.values()) + [text for text, _ in inputs.broken.values()]
    bases += [workloads.relay(3).models["relay"], workloads.flood(3, 3).models["flood"]]
    texts += [_mutant(seed, bases) for seed in range(2000)]
    texts += [_token_mutant(seed, bases) for seed in range(2000)]
    folds = 0
    for text in texts:
        depths = _open_braces_at_folds(text)
        assert not any(depths), text
        folds += len(depths)
    assert folds > 10000, folds


def _outcome(text: str) -> tuple[list, str | None]:
    result = parse(text, "d.tm")
    diagnostics = [(d.code, d.severity, d.location, d.message) for d in result.diagnostics]
    return diagnostics, None if result.model is None else serialize(result.model)


def _paths_agree(text: str) -> tuple[list, str | None, int]:
    """Both paths' diagnostics and canonical text, once checked equal, and
    the number of folded shapes. The folded token stream is checked against
    ``_lex``'s with each folded line or block cut to its keyword, and the
    token parser's output on the two streams against each other."""
    tokens, folded = _scan(text, "d.tm")
    keywords = {tokens[at][2:4] for at in folded}  # (line, col)
    lines = {line for decl in folded.values()
             for line in range(decl.span.start_line, decl.span.end_line + 1)}
    lexed = _lex(text)
    assert tokens == [tok for tok in lexed
                      if tok.line not in lines or tok[2:4] in keywords or tok.kind == "eof"]
    assert _Parser(tokens, folded, "d.tm").parse() == _Parser(lexed, {}, "d.tm").parse()
    outcome = _outcome(text)
    with mock.patch.object(tmkit.dsl, "_scan", lambda text, file: _scan(text, file, False)):
        assert _outcome(text) == outcome
    return (*outcome, len(folded))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_folded_lines_parse_like_tokens_on_the_corpus(name):
    text = corpus_path(f"{name}.tm").read_text()
    diagnostics, canonical, folded = _paths_agree(text)
    assert diagnostics == [] and canonical is not None and folded > 0


@pytest.mark.parametrize("seed", range(3))
def test_folded_lines_parse_like_tokens_on_relays_and_their_broken_variants(seed):
    workloads = bench_workloads()
    for inputs in (workloads.relay(40, seed), workloads.flood(12, 12, seed)):
        texts = list(inputs.models.values()) + [text for text, _ in inputs.broken.values()]
        for text in texts:
            assert 3 * _paths_agree(text)[2] > text.count("\n")


_FRAGMENTS = (".", "->", "~>", "{", "}", "#", "# a.b", "\n", "\n.", ".\n", "\r", "\t", " ",
              "node", "thing", "flow", "trigger", "event", "create", "release", "transfer",
              "x", "env", "é", "a.b.release", "->x.create")


def _mutant(seed: int, bases: list[str]) -> str:
    rng = random.Random(seed)
    lines = bases[seed % len(bases)].split("\n")
    if len(lines) > 60:  # a window of a corpus model keeps each parse short
        at = rng.randrange(len(lines))
        lines = ["model w"] + lines[at:at + rng.randint(2, 20)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        op = rng.randrange(7)
        if op == 0:
            at = rng.randint(0, len(line))
            lines[i] = line[:at] + rng.choice(_FRAGMENTS) + line[at:]
        elif op == 1:
            a = rng.randint(0, len(line))
            lines[i] = line[:a] + line[rng.randint(a, len(line)):]
        elif op == 2:
            words = line.split(" ")
            del words[rng.randrange(len(words))]
            lines[i] = " ".join(words)
        elif op == 3:
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
        elif op == 4:
            lines[i:i + 2] = [" ".join(lines[i:i + 2])]
        elif op == 5:
            lines.insert(i, line)
        else:
            lines[i] = line + rng.choice(("\r", "\t", " # c"))
    return "\n".join(lines)


def test_folded_lines_parse_like_tokens_on_seeded_line_mutations():
    workloads = bench_workloads()
    bases = [corpus_path(f"{name}.tm").read_text() for name in CORPUS_NAMES]
    bases += [workloads.relay(3).models["relay"], workloads.flood(3, 3).models["flood"]]
    erroneous = folding = 0
    for seed in range(2000):
        diagnostics, _, folded = _paths_agree(_mutant(seed, bases))
        erroneous += any(code == "E001" for code, *_ in diagnostics)
        folding += folded > 0
    # both paths are exercised: syntax errors, and lines that still fold
    assert erroneous > 500 and folding > 1600, (erroneous, folding)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS + (
    "model m", "thing x", "thing y", "machine a", "machine a {", "event e {", "  node a.create",
    "flow x a.create -> a.release", "  flow x a.release -> a.transfer",
    "trigger a.release ~> a.process", "chronology {", "e -> e", "flow thing a.create -> a.release",
    "flow x a.create ~> a.release", "trigger a.release -> a.process",
    "machine b", "event e perpetual {", "chronology {\n  e -> f\n}", "  e -> f",
    "event e {\n  node a.create\n\n  flow x a.create -> a.release # c\n}\n",
)), max_size=30))
def test_folded_lines_parse_like_tokens_on_fragment_soup(fragments):
    _paths_agree("".join(fragments))


@pytest.mark.parametrize(
    "text, message, where",
    [
        # a stage reference may continue on the next line, even past a comment
        ("flow x a.create -> a.release\n  .process\n",
         "syntax error: stage kinds may only end a stage reference", (4, 20, 5, 10)),
        ("trigger a.create ~> a.process\n\n# note\n.release\n",
         "syntax error: stage kinds may only end a stage reference", (4, 21, 7, 8)),
        # a reserved word as the thing name
        ("flow node a.create -> a.release\n",
         "syntax error: expected thing name, found 'node'", (4, 6, 4, 9)),
        # a flow takes "->" and a trigger "~>"
        ("flow x a.create ~> a.release\n",
         "syntax error: expected '->', found '~>'", (4, 17, 4, 18)),
        ("trigger a.release -> a.process\n",
         "syntax error: expected '~>', found '->'", (4, 19, 4, 20)),
        # a stage kind inside a reference
        ("flow x a.create.b.release -> a.release\n",
         "syntax error: stage kinds may only end a stage reference", (4, 8, 4, 25)),
        # a reference that starts with a stage kind and a ".", as the
        # reference parser finds it: at the kind, whatever follows the "."
        ("trigger release .\n",
         "syntax error: stage kinds may only end a stage reference", (4, 9, 4, 15)),
        ("trigger release.a.create ~> a.process\n",
         "syntax error: stage kinds may only end a stage reference", (4, 9, 4, 15)),
        ("flow x release . -> a.process\n",
         "syntax error: stage kinds may only end a stage reference", (4, 8, 4, 14)),
        # the last line of an unterminated event, which does not fold
        ("event e {\n  flow x a.create -> a.release  # open",
         "syntax error: unterminated event block, expected '}'", (5, 24, 5, 30)),
        ("event e {\n  trigger a.create ~> a.process\t",
         "syntax error: unterminated event block, expected '}'", (5, 25, 5, 31)),
        ("event e {\n  thing y",
         "syntax error: expected 'node', 'flow', 'trigger' or '}' inside event, found 'thing'",
         (5, 3, 5, 7)),
        # a reserved word as a machine, event or chronology name
        ("machine node\n",
         "syntax error: expected machine name, found 'node'", (4, 9, 4, 12)),
        ("machine b {\n  machine release\n}\n",
         "syntax error: expected machine name, found 'release'", (5, 11, 5, 17)),
        ("event create perpetual {\n}\n",
         "syntax error: expected event name, found 'create'", (4, 7, 4, 12)),
        ("event e {\n}\nchronology {\n  e -> flow  # c\n}\n",
         "syntax error: expected event name, found 'flow'", (7, 8, 7, 11)),
        # "machine b" opens a block whose "{" follows a newline or a comment line
        ("machine b\n{\n  machine node\n}\n",
         "syntax error: expected machine name, found 'node'", (6, 11, 6, 14)),
        ("machine b  # c\n# note\n\n  {\n  machine node\n}\n",
         "syntax error: expected machine name, found 'node'", (8, 11, 8, 14)),
        # a whole event on one line does not fold
        ("flow x a.create -> a.process\nevent e { node a.create }\n"
         "event e { node a.create }\n",
         "duplicate event name 'e'", (6, 1, 6, 25)),
        # a chronology edge split across two lines, and a block that ends the
        # input without a newline: the span runs from the keyword to the "}"
        ("flow x a.create -> a.process\nevent e { node a.create }\n"
         "chronology {\n  e ->\n  e\n}\n",
         "chronology cycle: e -> e", (6, 1, 9, 1)),
        ("flow x a.create -> a.process\nevent e { node a.create }\n"
         "chronology {\n  # only\n\n  e -> e # loop\n  }",
         "chronology cycle: e -> e", (6, 1, 10, 3)),
        # an unterminated machine block that ends on a leaf, and an
        # unterminated event right after its head
        ("machine b {\n  machine c  # open",
         "syntax error: unterminated machine block, expected '}'", (5, 11, 5, 11)),
        ("event e perpetual {  # open\n",
         "syntax error: unterminated event block, expected '}'", (4, 19, 4, 19)),
        # a leaf machine line inside an event body is still an error
        ("event e {\n  machine b\n}\n",
         "syntax error: expected 'node', 'flow', 'trigger' or '}' inside event, found 'machine'",
         (5, 3, 5, 9)),
        # a body holds only the items its grammar holds: a chronology body
        # no flow line, an event body no thing line
        ("chronology {\n  flow x a.create -> a.release\n}\n",
         "syntax error: expected event name, found 'flow'", (5, 3, 5, 6)),
        ("event e {\n  thing y\n}\n",
         "syntax error: expected 'node', 'flow', 'trigger' or '}' inside event, found 'thing'",
         (5, 3, 5, 7)),
        # a whole event block folds: blank and comment lines in its body, a
        # node item, CRLF line ends and tabs, glued arrows, a comment that is
        # not ASCII, and a "}" line that is indented or holds a comment
        ("event e {\n\n  # note\n\n  flow x a.create -> a.release  # c\n}\n",
         "event 'e': no flow 'x a.create -> a.release' in the model", (8, 3, 8, 30)),
        ("event e perpetual {\n  node a.process\n}\n",
         "event 'e': no stage 'a.process' in use", (5, 3, 5, 16)),
        ("event\te\t{\r\n\tnode\ta.create\r\n}\r\n",
         "event 'e': no stage 'a.create' in use", (5, 2, 5, 14)),
        ("event e {\n  flow x a.create->a.release\n  trigger a.release~>a.process\n}\n",
         "event 'e': no flow 'x a.create -> a.release' in the model", (5, 3, 5, 28)),
        ("event e {\n  flow x a.create -> a.release  # café\n}\n",
         "event 'e': no flow 'x a.create -> a.release' in the model", (5, 3, 5, 30)),
        ("flow x a.create -> a.release\nevent e {\n  node a.create\n}\n"
         "event e {\n  node a.create\n  }  # c\n",
         "duplicate event name 'e'", (8, 1, 10, 3)),
        # an event block that does not fold: an item continued by a "." line,
        # a reserved word as a thing or a path segment, a "}" after an item,
        # an event left open, a name that is not ASCII, a form feed, and an
        # event inside a machine block
        ("event e {\n  flow x a.create -> a.release\n  .process\n}\n",
         "syntax error: stage kinds may only end a stage reference", (5, 22, 6, 10)),
        ("event e {\n  flow node a.create -> a.release\n}\n",
         "syntax error: expected thing name, found 'node'", (5, 8, 5, 11)),
        ("event e {\n  node a.flow.create\n}\n",
         "syntax error: expected a stage reference segment, found 'flow'", (5, 10, 5, 13)),
        ("flow x a.create -> a.release\nevent e {\n  node a.create\n}\n"
         "event e {\n  node a.create }\n",
         "duplicate event name 'e'", (8, 1, 9, 17)),
        ("event e {\n  node a.create",
         "syntax error: unterminated event block, expected '}'", (5, 10, 5, 15)),
        ("event é {\n}\n",
         "syntax error: expected event name, found 'é'", (4, 7, 4, 7)),
        ("event e {\n  node\fa.create\n}\n",
         "syntax error: expected a stage reference segment, found '\\x0c'", (5, 7, 5, 7)),
        ("machine b {\n  event e {\n    node a.create\n  }\n}\n",
         "syntax error: expected 'machine' or '}' inside machine block, found 'event'",
         (5, 3, 5, 7)),
        # a machine block folds whole, nested blocks included; one that holds a
        # line that does not fold, or whose "{" is on a line of its own, does
        # not fold, nor do its leaves; a stray "}" leaves no block open
        ("flow x a.create -> a.release\nmachine b {\n  machine c {  # nested\n"
         "    machine d\n\n  }\n  machine e\n}\n",
         "machine 'b' has no incident edges", (5, 1, 11, 1)),
        ("flow x a.create -> a.release\nmachine b {\n  machine c\n  machine d }\n}\n",
         "syntax error: expected an item keyword, found '}'", (8, 1, 8, 1)),
        ("flow x a.create -> a.release\nmachine b\n{\n  machine c\n}\n",
         "machine 'b' has no incident edges", (5, 1, 8, 1)),
        ("}\nthing y\nthing y\n",
         "syntax error: expected an item keyword, found '}'", (4, 1, 4, 1)),
    ],
)
def test_folded_line_edge_cases_parse_like_tokens(text, message, where):
    diagnostics, _, _ = _paths_agree("model m\nthing x\nmachine a\n" + text)
    assert diagnostics[0][3] == message
    span = diagnostics[0][2]
    assert (span.start_line, span.start_col, span.end_line, span.end_col) == where


def test_comments_crlf_and_tabs_still_fold():
    text = ("model m\r\nthing x\t# the thing\r\nmachine a\r\n"
            "\tflow\tx a.create\t->\ta.release # c\r\n"
            "trigger a.release ~>a.process#c\r\n")
    diagnostics, canonical, folded = _paths_agree(text)
    assert (diagnostics, folded) == ([], 4)
    assert canonical == ("model m\nthing x\nmachine a\nflow x a.create -> a.release\n"
                         "trigger a.release ~> a.process\n")


def test_each_folded_shape_is_one_token():
    text = ("model m\nthing x\nmachine a\nflow x a.create -> a.process\n"
            "trigger a.process ~> a.release\nevent e perpetual {  # head\n"
            "  flow x a.create -> a.process\n}\nchronology {\n  e -> f\n\n  # c\n  f -> e\n}")
    tokens, folded = _scan(text, "d.tm")
    assert [(tok.text, tok.line) for tok in tokens] == [
        ("model", 1), ("m", 1), ("thing", 2), ("machine", 3), ("flow", 4), ("trigger", 5),
        ("event", 6), ("chronology", 9), ("", 14)]
    assert folded[3] == MachineDecl("a", (), SourceSpan("d.tm", 3, 1, 3, 9))
    flow = FlowDecl("x", parse_stage_ref("a.create"), parse_stage_ref("a.process"),
                    SourceSpan("d.tm", 7, 3, 7, 30))
    assert folded[6] == EventDecl("e", True, (flow,), SourceSpan("d.tm", 6, 1, 8, 1))
    assert folded[7] == ChronologyDecl((("e", "f"), ("f", "e")), SourceSpan("d.tm", 9, 1, 14, 1))
    _paths_agree(text)


# -- the reference parser ----------------------------------------------------
# helpers.reference_parse recognizes the README grammar with no code of
# tmkit.dsl: parse reports an E001 exactly when it rejects, the first one at
# the token where it fails.


def _continues_a_complete_reference(text: str, where: tuple[int, int]) -> bool:
    """Whether the reference failed at a "." right after a stage kind. The
    grammar's stage reference ends at its kind; parse reads the "." and what
    follows as more of the same reference."""
    tokens = reference_lex(text)
    at = next(i for i, tok in enumerate(tokens) if tok[2:4] == where)
    return tokens[at][0] == "." and tokens[at - 1][1] in STAGE_KINDS


_VOCABULARY = ("thing", "machine", "flow", "trigger", "event", "chronology", "node", "perpetual",
               "model", "create", "release", "x", "a", ".", "->", "~>", "{", "}")


def _token_mutant(seed: int, bases: list[str]) -> str:
    """A window of a base's lines, one to three token edits, the tokens of
    each line joined by a space: a run of one to three tokens deleted, a
    token replaced or preceded by a word or symbol of the language, or two
    neighbours swapped."""
    rng = random.Random(seed)
    lines = bases[seed % len(bases)].split("\n")
    at = rng.randrange(len(lines))
    text = "\n".join(["model w"] + lines[at:at + rng.randint(2, 20)])
    tokens = [[tok[2], tok[1]] for tok in reference_lex(text)[:-1]]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            del tokens[i:i + rng.randint(1, 3)]
        elif op == 1:
            tokens[i][1] = rng.choice(_VOCABULARY)
        elif op == 2:
            tokens.insert(i, [tokens[i][0], rng.choice(_VOCABULARY)])
        elif i + 1 < len(tokens):
            tokens[i][1], tokens[i + 1][1] = tokens[i + 1][1], tokens[i][1]
        if not tokens:
            break
    rows: dict[int, list[str]] = {}
    for line, word in tokens:
        rows.setdefault(line, []).append(word)
    return "\n".join(" ".join(row) for row in rows.values())


def test_parse_reports_an_e001_exactly_where_the_reference_parser_rejects():
    workloads = bench_workloads()
    bases = [corpus_path(f"{name}.tm").read_text() for name in CORPUS_NAMES]
    relay = workloads.relay(100)
    texts = bases + [relay.models["relay"]] + [text for text, _ in relay.broken.values()]
    # the build-error variant drops an arrow; the other texts are sentences
    assert [reference_parse(text) for text in texts] == [None] * 5 + [(379, 31), None]
    bases += [workloads.relay(3).models["relay"], workloads.flood(3, 3).models["flood"]]
    rejected = continued = 0
    texts += [_mutant(seed, bases) for seed in range(2000)]
    texts += [_token_mutant(seed, bases) for seed in range(2000)]
    round_trips = 0
    for text in texts:
        where = reference_parse(text)
        result = parse(text, "d.tm")
        e001 = [d.location for d in result.diagnostics if d.code == "E001"]
        assert (where is None) == (not e001), text
        if result.model is not None:  # an accepted text that builds a model
            # its canonical text parses to the same model, with the same
            # warnings (at other spans) and no more
            canonical = serialize(result.model)
            again = parse(canonical)
            assert [(d.code, d.message) for d in again.diagnostics] == [
                (d.code, d.message) for d in result.diagnostics], text
            assert serialize(again.model) == canonical, text
            round_trips += 1
        if where is not None:
            rejected += 1
            if (e001[0].start_line, e001[0].start_col) != where:
                assert _continues_a_complete_reference(text, where), (text, where, e001[0])
                continued += 1
    assert (rejected, continued) == (3440, 19)
    assert round_trips == 229, round_trips


def test_a_dot_line_after_a_stage_kind_is_where_parse_and_the_reference_differ():
    # The reference's flow ends at "release", so the "." line starts no item;
    # parse reads "a.release.process" and reports the whole reference.
    text = "model m\nthing x\nmachine a\nflow x a.create -> a.release\n  .process\n"
    assert reference_parse(text) == (5, 3)
    assert [(d.location.start_line, d.location.start_col, d.message)
            for d in parse(text).diagnostics if d.code == "E001"] == [
        (4, 20, "syntax error: stage kinds may only end a stage reference")]


def test_parse_makes_one_stage_ref_per_reference_text():
    model = parse(corpus_path("reservoir.tm").read_text()).model
    refs = [ref for flow in model.flows for ref in (flow.src, flow.dst)]
    assert len({id(ref) for ref in refs}) == len(set(refs))


def test_parse_makes_one_path_tuple_per_machine_path():
    # Every object parse allocates counts toward the next collection; the
    # stages of one machine share its path.
    model = parse(corpus_path("reservoir.tm").read_text()).model
    paths = [ref.path for flow in model.flows for ref in (flow.src, flow.dst)]
    assert len({id(path) for path in paths}) == len(set(paths)) < len(paths)


def test_parse_leaves_no_reference_cycles():
    # Garbage in a cycle waits for the cyclic collector: a parser holding a
    # cycle (a dict of its own bound methods, say) keeps its tokens alive.
    texts = [corpus_path(f"{name}.tm").read_text() for name in CORPUS_NAMES]
    texts.append("model broken\nthing x\nflow x a.b ->\nmachine {\n")
    parse(texts[0])
    results, cycles = [], []
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            results.append(parse(text))  # kept: a model's stage table may hold cycles
            cycles.append(gc.collect())
    finally:
        gc.enable()
    assert cycles == [0] * len(texts)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_dropped_parse_result_needs_no_cyclic_collection(name):
    # Reference counting alone must free a model nobody keeps: stage records
    # that pointed at each other would wait for the cyclic collector.
    text = corpus_path(f"{name}.tm").read_text()
    parse(text)
    gc.collect()
    gc.disable()
    try:
        parse(text)  # dropped at once
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_parse_pauses_the_collector_and_restores_it():
    # What parse builds holds no cycle (the two tests above), so a collection
    # during it frees nothing; unpaused, relay n=400 makes 45 of them. The
    # call allocates past the threshold, so one young collection follows it.
    text = bench_workloads().relay(400).models["relay"]
    (generations, enabled), *rest = collector_runs(lambda: parse(text))
    assert generations == (1,) and enabled
    assert rest == [((), False), ((), True)]  # the caller's disable and threshold 0 hold


def test_parse_enters_no_python_level_hash():
    # Stage refs key every table build_model and validate make; a __hash__
    # written in Python would run once per lookup.
    text = bench_workloads().relay(200).models["relay"]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "__hash__":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = parse(text)
    finally:
        sys.setprofile(previous)
    assert result.model is not None and calls == 0, f"{calls} __hash__ frames"


def test_parse_runs_few_generated_lines_per_source_line():
    # _scan builds a folded line's SourceSpan, declaration and token with
    # tuple.__new__, which runs no generated line; build_model still builds
    # a frozen-record edge per flow and trigger.
    text = bench_workloads().relay(200).models["relay"]
    per_line = generated_line_events(lambda: parse(text)) / text.count("\n")
    assert per_line <= 4, f"{per_line:.2f} generated lines per source line"


def test_parse_executes_lines_linear_in_source_lines():
    # Per token, lexing and parsing run ~10 lines each; a folded line runs a
    # few lines in all. The relay is mostly flow, trigger and thing lines.
    relay = bench_workloads().relay
    small, large = relay(200).models["relay"], relay(400).models["relay"]
    events = line_events(tmkit.dsl, lambda: parse(small))
    per_line = events / small.count("\n")
    assert per_line <= 100, f"dsl.py ran {per_line:.0f} lines per source line"
    ratio = line_events(tmkit.dsl, lambda: parse(large)) / events
    assert ratio <= 2.5, f"dsl.py ran {ratio:.2f}x the lines from n=200 to n=400"
