"""Textual TM language: parser with source-located diagnostics, canonical serializer.

Grammar (normative, also documented in the README language reference)::

    model      := "model" IDENT item* ;
    item       := "thing" IDENT | machine | flow | trigger | event | chronology ;
    machine    := "machine" IDENT ("{" machine* "}")? ;
    flow       := "flow" IDENT(thing) stageref "->" stageref ;
    trigger    := "trigger" stageref "~>" stageref ;
    stageref   := IDENT ("." IDENT)* "." STAGEKIND ;
    STAGEKIND  := "create" | "process" | "release" | "transfer" | "receive" ;
    event      := "event" IDENT ("perpetual")? "{"
                      ("node" stageref
                      | "flow" IDENT stageref "->" stageref
                      | "trigger" stageref "~>" stageref)* "}" ;
    chronology := "chronology" "{" (IDENT "->" IDENT)* "}" ;

Comments run from ``#`` to end of line. Identifiers match
``[A-Za-z_][A-Za-z0-9_]*``; keywords and stage kinds are reserved. The
machine name ``env`` is reserved and implicitly declared.

``->`` mirrors solid flow arrows, ``~>`` dashed triggers.

Line breaks are not significant to the grammar; the parser only uses line
starts to resynchronize after an error. ``_scan`` makes one regex match per
token: the match takes the spaces before the token and the spaces, comment
and line end after it, and a blank or comment-only line is one match. Its
unfolded mode gives the token stream. ``parse`` uses the folded mode, which
reads the text a line at a time and splits each line's code into words, so
that most input reaches the parser a line or a block at a time. Seven shapes
fold, indented or not, each line with or without a trailing comment:

- a ``flow THING REF -> REF``, ``trigger REF ~> REF``, ``thing NAME`` or
  ``machine NAME`` line, unless the next line that holds code starts with a
  ``.`` (which would continue the last reference) or a ``{`` (which would
  open a block);
- a whole ``machine NAME {`` block of one ``machine NAME`` leaf, nested
  ``machine NAME {`` head or ``}`` per line, a whole ``event NAME {`` or
  ``event NAME perpetual {`` block of one ``node``, ``flow`` or ``trigger``
  item per line, and a whole ``chronology {`` block of one ``NAME -> NAME``
  per line, blank and comment lines allowed, each closed by a ``}`` line.

Each is cut to its keyword token, and its declaration is kept beside that
token. A shape folds only where the token path builds the same: its code is
plain ASCII, and it names no reserved word, inside a stage reference or
out. Any other line, including each line of a block that does not fold,
goes to the token regex. A line inside a block folds only as part of its
whole block; the parser takes folded declarations only at the top level.
Anywhere else it sees the keyword token, so every diagnostic comes from the
token path.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Callable, NamedTuple

from ._frozen import frozen
from .core import (
    ChronologyDecl,
    Decl,
    Diagnostic,
    EventDecl,
    FlowDecl,
    MachineDecl,
    Model,
    NodeItemDecl,
    RESERVED_WORDS,
    RegionFlow,
    RegionNode,
    RegionTrigger,
    STAGE_KINDS,
    StageRef,
    ThingDecl,
    TriggerDecl,
    _paused,
    _record,
    _unknown_edge,
    build_model,
    validate,
)

__all__ = ["SourceSpan", "ParseResult", "parse", "serialize"]

# Items that no block holds: a line starting with one ends a block left open.
_TOP_LEVEL_ONLY = {"thing", "event", "chronology"}


@_record
class SourceSpan(NamedTuple):
    """1-based source location of a parsed construct or diagnostic."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


@frozen
class ParseResult:
    """Outcome of a parse: a model iff no error-severity diagnostics."""

    model: Model | None
    diagnostics: list[Diagnostic]


class _Token(NamedTuple):
    kind: str  # "ident", "kw", "{", "}", "->", "~>", ".", "error", "eof"
    text: str
    line: int
    col: int
    end_col: int
    bol: bool  # first token on its line


@cache
def _scan_re() -> re.Pattern[str]:
    """One match per token, or per blank or comment-only line.

    A token takes the spaces before it and the spaces, comment and newline
    after it; any single character that starts no other token is an error
    token.
    """
    tail = r"[ \t\r]*(?:#[^\n]*)?\n?"
    return re.compile(
        r"[ \t\r]*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>->|~>|[{}.])"
        rf"|(?P<error>[^ \t\r\n#])){tail}|(?!\Z){tail}"
    )


def _tokens(text: str, line: int, tokens: list[_Token]) -> None:
    """Append the tokens of ``text``, whole lines whose first is numbered
    ``line``, to ``tokens``."""
    new = tuple.__new__  # the records' generated __new__ would add a frame each
    line_start, bol = 0, True
    for m in _scan_re().finditer(text):
        kind = m.lastgroup
        if kind is not None:  # None: a blank or comment-only line
            start, stop = m.span(kind)
            lexeme = text[start:stop]
            if kind == "word":
                kind = "kw" if lexeme in RESERVED_WORDS else "ident"
            elif kind == "symbol":
                kind = lexeme
            col = start - line_start + 1
            tokens.append(new(_Token, (kind, lexeme, line, col, stop - line_start, bol)))
            bol = False
        end = m.end()
        if text[end - 1] == "\n":
            line, line_start, bol = line + 1, end, True


_SPACES = str.maketrans("\t\r", "  ")  # the token regex's spaces besides " "


def _scan(text: str, file: str, fold: bool = True) -> tuple[list[_Token], dict[int, Decl]]:
    """The tokens of ``text``, ending with the eof token. With ``fold``, each
    folded shape is cut to its keyword token, and its declaration is kept by
    the position of that token.

    The folded mode reads a line at a time. A line's code, the text before
    its ``#``, is split into words at spaces, ``->`` and ``~>`` being words
    of their own, and the words decide its shape: a ``flow``, ``trigger``,
    ``thing`` or leaf ``machine`` line, or a ``machine``, ``event`` or
    ``chronology`` head whose body lines, up to its ``}`` line, each hold one
    item of the block or nothing; a machine block's items are leaves and
    nested blocks, which wait on a stack. A shape folds only if its code is
    printable ASCII besides tabs and CRs, each name is an identifier that is
    not reserved, and each stage reference is a path of such names ending in
    a stage kind; a single-line shape is unfolded again when the next line
    that holds code starts with ``.`` or ``{``. Runs of lines that do not
    fold are given to the token regex. A line inside a block folds only as
    part of its whole block, so the parser takes folded declarations only at
    the top level: each ``{`` of a line given to the token regex opens a
    depth that its ``}`` closes (a ``}`` at depth 0 closes nothing), and no
    line folds while the depth is above 0. One ``StageRef`` per distinct
    reference text, one tuple per path."""
    tokens: list[_Token] = []
    folded: dict[int, Decl] = {}
    lines = text.split("\n")
    if not fold:
        _tokens(text, 1, tokens)
    else:
        refs: dict[str, StageRef | None] = {}
        paths: dict[str, tuple[str, ...] | None] = {}
        new = tuple.__new__

        def ref(word: str) -> StageRef | None:
            """The stage a reference word names, or None unless it is a path
            of names that are not reserved, then a stage kind."""
            if word in refs:
                return refs[word]
            head, _, kind = word.rpartition(".")
            if head not in paths:
                path = tuple(head.split("."))
                paths[head] = path if all(map(str.isidentifier, path)) and \
                    RESERVED_WORDS.isdisjoint(path) else None
            path = paths[head]
            stage = refs[word] = None if path is None or kind not in STAGE_KINDS else new(
                StageRef, (path, STAGE_KINDS[kind]))
            return stage

        def split(code: str) -> list[str] | None:
            """The words of a line's code, or None if it is not plain text:
            ``str.split`` also splits at spaces the token regex reads as error
            tokens, and on ASCII ``str.isidentifier`` is ``_IDENT_RE``'s test."""
            if not code.isascii() or not (
                    code.isprintable() or code.translate(_SPACES).isprintable()):
                return None
            # An arrow glued to a word is split off only if no word is one: a
            # shape that folds holds one arrow.
            words = code.split()
            if ">" in code and "->" not in words and "~>" not in words:
                return code.replace("->", " -> ").replace("~>", " ~> ").split()
            return words

        def item(code: str, words: list[str], line: int) -> Decl | None:
            """The declaration of a line holding one ``flow``, ``trigger``,
            ``node``, ``thing`` or ``machine`` item, or None."""
            word, size = words[0], len(words)
            span = new(SourceSpan, (file, line, code.find(word) + 1, line, len(code.rstrip())))
            if word == "flow" and size == 5 and words[3] == "->":
                thing, src, dst = words[1], words[2], words[4]
                # a hit in refs makes no call
                src, dst = refs.get(src) or ref(src), refs.get(dst) or ref(dst)
                if src and dst and thing.isidentifier() and thing not in RESERVED_WORDS:
                    return new(FlowDecl, (thing, src, dst, span))
            elif word == "trigger" and size == 4 and words[2] == "~>":
                src, dst = words[1], words[3]
                src, dst = refs.get(src) or ref(src), refs.get(dst) or ref(dst)
                if src and dst:
                    return new(TriggerDecl, (src, dst, span))
            elif word == "node" and size == 2:
                src = ref(words[1])
                return src and new(NodeItemDecl, (src, span))
            elif size == 2 and words[1].isidentifier() and words[1] not in RESERVED_WORDS:
                if word == "thing":
                    return new(ThingDecl, (words[1], span))
                if word == "machine":  # a leaf
                    return new(MachineDecl, (words[1], (), span))
            return None

        def block(at: int, code: str, words: list[str]) -> tuple[Decl, int] | None:
            """A whole machine, event or chronology block whose head, a line
            ending in ``{``, is line ``at``: its declaration and the index of
            its last ``}`` line, or None."""
            word, size = words[0], len(words)
            name = words[1] if size > 2 else ""
            if word == "chronology" and size == 2:
                kinds = ()
            elif (word == "event" and (size == 3 or size == 4 and words[2] == "perpetual")
                  or word == "machine" and size == 3) and \
                    name.isidentifier() and name not in RESERVED_WORDS:
                kinds = ("machine",) if word == "machine" else ("flow", "trigger", "node")
            else:
                return None
            # The blocks open, innermost last: head line, column, name, entries.
            opened = [(at, code.find(word) + 1, name, [])]
            for end in range(at + 1, len(lines)):
                body = lines[end].partition("#")[0]
                items = split(body)
                if not items:
                    if items is None:
                        return None
                    continue
                if items[0] == "}" and len(items) == 1:
                    head, col, name, entries = opened.pop()
                    span = new(SourceSpan, (file, head + 1, col, end + 1, body.find("}") + 1))
                    if word == "chronology":
                        return new(ChronologyDecl, (tuple(entries), span)), end
                    if word == "event":
                        return new(EventDecl, (name, size == 4, tuple(entries), span)), end
                    decl = new(MachineDecl, (name, tuple(entries), span))
                    if not opened:
                        return decl, end
                    opened[-1][3].append(decl)
                elif word == "chronology":
                    edge = items[0], items[-1]
                    if len(items) != 3 or items[1] != "->" or not all(
                            map(str.isidentifier, edge)) or not RESERVED_WORDS.isdisjoint(edge):
                        return None
                    opened[-1][3].append(edge)
                elif items[0] in kinds and (entry := item(body, items, end + 1)) is not None:
                    opened[-1][3].append(entry)
                elif word == "machine" and len(items) == 3 and items[2] == "{" \
                        and items[0] == "machine" and items[1].isidentifier() \
                        and items[1] not in RESERVED_WORDS:
                    opened.append((end, body.find("machine") + 1, items[1], []))
                else:
                    return None
            return None

        count = len(lines)
        at = chunk = 0  # the line read, and the first line not yet tokenized
        last = -1  # the line of a single-line fold no line holding code has followed
        depth = 0  # the "{" the lines given to the token regex leave open
        while at < count:
            code = lines[at].partition("#")[0]
            words = split(code)
            if words is not None and not words:  # a blank or comment-only line
                if chunk == at:
                    chunk += 1
                at += 1
                continue
            if last >= 0:
                if (words[0] if words else code.lstrip(" \t\r"))[0] in ".{":
                    # a "." continues its last reference, a "{" opens a block
                    tokens.pop()
                    del folded[len(tokens)]
                    chunk = last
                last = -1
            decl = end = None
            if words and not depth:  # inside a block, a line folds only with its block
                word = words[0]
                if words[-1] == "{":
                    decl, end = block(at, code, words) or (None, None)
                elif word != "node":
                    decl = item(code, words, at + 1)
            if decl is None:
                before, *rest = code.split("}")  # a "}" at depth 0 closes nothing
                depth += before.count("{")
                for after in rest:
                    depth = max(depth - 1, 0) + after.count("{")
                at += 1
                continue
            if chunk < at:
                _tokens("\n".join(lines[chunk:at]) + "\n", chunk + 1, tokens)
            first = decl.span.start_col
            folded[len(tokens)] = decl
            tokens.append(new(_Token, ("kw", word, at + 1, first, first + len(word) - 1, True)))
            if end is None:
                last = at
            else:
                at = end
            at = chunk = at + 1
        if chunk < count:
            _tokens("\n".join(lines[chunk:]), chunk + 1, tokens)
    # The eof token sits where the last line's text ends before its comment,
    # if any: no token holds a "#".
    code = lines[-1].partition("#")[0]
    col = len(code) + 1
    bol = not code.strip(" \t\r")  # no token on the last line
    tokens.append(tuple.__new__(_Token, ("eof", "", len(lines), col, col, bol)))
    return tokens, folded


class _Parser:
    def __init__(self, tokens: list[_Token], folded: dict[int, Decl], file: str):
        self.tokens = tokens
        self.folded = folded  # taken whole by parse's top-level loop
        self.file = file
        self.pos = 0
        self.open = 0  # blocks the current item has opened and not closed
        self.diagnostics: list[Diagnostic] = []
        self.decls: list[Decl] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def span_of(self, tok: _Token, end: _Token | None = None) -> SourceSpan:
        last = end or tok
        return SourceSpan(self.file, tok.line, tok.col, last.line, last.end_col)

    def error_here(self, message: str) -> None:
        tok = self.peek()
        if tok.kind == "eof" and self.pos > 0:
            # point at the last real token, e.g. a dangling arrow
            tok = self.tokens[self.pos - 1]
        self.diagnostics.append(
            Diagnostic("E001", "error", self.span_of(tok), f"syntax error: {message}")
        )

    def resync(self) -> None:
        """Skip to the next line that starts a new item (or EOF)."""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.bol and (tok.kind == "}" or tok.kind == "kw" and tok.text in self.RESYNC):
                return
            self.advance()

    def close_blocks(self) -> None:
        """Skip past the closing braces of the blocks a failed item left open,
        stopping early at a line that can only start a top-level item."""
        while self.open:
            tok = self.peek()
            if tok.kind == "eof" or (
                tok.bol and tok.kind == "kw" and tok.text in _TOP_LEVEL_ONLY
            ):
                return
            self.open += (tok.kind == "{") - (tok.kind == "}")
            self.advance()

    def expect_kw(self, word: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == word:
            return self.advance()
        self.error_here(f"expected '{word}', found {tok.text!r}" if tok.text else f"expected '{word}'")
        return None

    def expect(self, kind: str, what: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        found = repr(tok.text) if tok.text else "end of input"
        self.error_here(f"expected {what or repr(kind)}, found {found}")
        return None

    # -- grammar -----------------------------------------------------------

    def parse(self) -> tuple[str | None, list[Decl], list[Diagnostic]]:
        name: str | None = None
        if self.expect_kw("model") is not None:
            tok = self.expect("ident", "model name")
            if tok is not None:
                name = tok.text
        if name is None:
            self.resync()
        while True:
            decl = self.folded.get(self.pos)
            if decl is not None:
                self.decls.append(decl)
                self.pos += 1
                continue
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "kw" or tok.text not in self.ITEMS:
                self.error_here(f"expected an item keyword, found {tok.text!r}")
                self.advance()
                self.resync()
                continue
            self.open = 0
            decl = self.ITEMS[tok.text](self)
            if decl is not None:
                self.decls.append(decl)
            elif self.open:  # an item parser returns None only after an E001
                self.close_blocks()
            else:
                self.resync()
        return name, self.decls, self.diagnostics

    def parse_thing(self) -> ThingDecl | None:
        start = self.advance()
        tok = self.expect("ident", "thing name")
        if tok is None:
            return None
        return ThingDecl(tok.text, self.span_of(start, tok))

    def parse_machine(self) -> MachineDecl | None:
        # Open blocks wait on an explicit stack, so nesting depth is unbounded.
        blocks: list[tuple[_Token, _Token, list[MachineDecl]]] = []
        while True:
            start = self.advance()
            tok = self.expect("ident", "machine name")
            if tok is None:
                return None
            if self.peek().kind == "{":
                self.advance()
                blocks.append((start, tok, []))
                self.open += 1
            else:
                leaf = MachineDecl(tok.text, (), self.span_of(start, tok))
                if not blocks:
                    return leaf
                blocks[-1][2].append(leaf)
            while (inner := self.peek()).kind == "}":
                end = self.advance()
                start, tok, children = blocks.pop()
                self.open -= 1
                decl = MachineDecl(tok.text, tuple(children), self.span_of(start, end))
                if not blocks:
                    return decl
                blocks[-1][2].append(decl)
            if inner.kind == "eof":
                self.error_here("unterminated machine block, expected '}'")
                return None
            if inner.kind != "kw" or inner.text != "machine":
                self.error_here(
                    f"expected 'machine' or '}}' inside machine block, found {inner.text!r}"
                )
                return None

    def parse_stage_ref(self) -> tuple[StageRef, _Token, _Token] | None:
        """Parse a dotted stage reference, returning (ref, first, last)."""
        first = self.peek()
        segments: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind == "ident" or (tok.kind == "kw" and tok.text in STAGE_KINDS):
                self.advance()
                segments.append(tok.text)
            else:
                found = repr(tok.text) if tok.text else "end of input"
                self.error_here(f"expected a stage reference segment, found {found}")
                return None
            if self.peek().kind == "." and segments[0] not in STAGE_KINDS:
                self.advance()
                continue
            break
        last = self.tokens[self.pos - 1]
        if self.peek().kind == ".":  # a stage kind starts a dotted reference: report at the kind
            problem = "stage kinds may only end a stage reference"
        elif segments[-1] not in STAGE_KINDS:
            problem = (
                "stage reference must end in a stage kind "
                "(create, process, release, transfer, receive)"
            )
        elif len(segments) < 2:
            problem = "stage reference needs a machine path"
        elif any(seg in STAGE_KINDS for seg in segments[:-1]):
            problem = "stage kinds may only end a stage reference"
        else:
            return StageRef(tuple(segments[:-1]), STAGE_KINDS[segments[-1]]), first, last
        self.diagnostics.append(
            Diagnostic("E001", "error", self.span_of(first, last), f"syntax error: {problem}")
        )
        return None

    def parse_edge(self) -> FlowDecl | TriggerDecl | None:
        """``flow THING stageref -> stageref`` or ``trigger stageref ~> stageref``."""
        start = self.advance()
        thing = None
        if start.text == "flow" and (thing := self.expect("ident", "thing name")) is None:
            return None
        src = self.parse_stage_ref()
        if src is None or self.expect("~>" if thing is None else "->") is None:
            return None
        dst = self.parse_stage_ref()
        if dst is None:
            return None
        span = self.span_of(start, dst[2])
        if thing is None:
            return TriggerDecl(src[0], dst[0], span)
        return FlowDecl(thing.text, src[0], dst[0], span)

    def parse_event(self) -> EventDecl | None:
        start = self.advance()
        tok = self.expect("ident", "event name")
        if tok is None:
            return None
        perpetual = self.peek().kind == "kw" and self.peek().text == "perpetual"
        if perpetual:
            self.advance()
        if self.expect("{") is None:
            return None
        body = self.parse_body("event", self.parse_event_item)
        if body is None:
            return None
        return EventDecl(tok.text, perpetual, body[0], self.span_of(start, body[1]))

    def parse_event_item(self) -> NodeItemDecl | FlowDecl | TriggerDecl | None:
        tok = self.peek()
        if tok.kind != "kw" or tok.text not in ("node", "flow", "trigger"):
            self.error_here(
                f"expected 'node', 'flow', 'trigger' or '}}' inside event, found {tok.text!r}"
            )
            return None
        if tok.text != "node":
            return self.parse_edge()
        self.advance()
        ref = self.parse_stage_ref()
        return None if ref is None else NodeItemDecl(ref[0], self.span_of(tok, ref[2]))

    def parse_chronology(self) -> ChronologyDecl | None:
        start = self.advance()
        if self.expect("{") is None:
            return None
        body = self.parse_body("chronology", self.parse_chronology_edge)
        if body is None:
            return None
        return ChronologyDecl(body[0], self.span_of(start, body[1]))

    def parse_chronology_edge(self) -> tuple[str, str] | None:
        before = self.expect("ident", "event name")
        if before is None or self.expect("->") is None:
            return None
        after = self.expect("ident", "event name")
        return None if after is None else (before.text, after.text)

    def parse_body(self, what: str, entry: Callable[[], object]) -> tuple[tuple, _Token] | None:
        """The entries of an event or chronology body up to its closing "}",
        and that "}". ``entry`` parses each entry, or reports an E001."""
        self.open = 1
        entries = []
        while (tok := self.peek()).kind != "}":
            if tok.kind == "eof":
                self.error_here(f"unterminated {what} block, expected '}}'")
                return None
            if (decl := entry()) is None:
                return None
            entries.append(decl)
        self.open = 0
        return tuple(entries), self.advance()

    # The item parsers by keyword: plain functions, so no parser holds a cycle.
    ITEMS = {
        "thing": parse_thing,
        "machine": parse_machine,
        "flow": parse_edge,
        "trigger": parse_edge,
        "event": parse_event,
        "chronology": parse_chronology,
    }
    RESYNC = {"model", *ITEMS}  # the keywords at a line start that resync stops at


def parse(text: str, filename: str = "<string>", *, lax: bool = False) -> ParseResult:
    """Parse TM source text into a validated model.

    The result carries a model only when neither parsing, building, nor
    validation produced an error; all diagnostics carry source spans.
    ``lax`` is wired to the relaxed boundary rule of validation (E103
    becomes a warning).

    An enabled cyclic collector is paused while it runs, and one young
    collection follows a call that allocated past the generation-0
    threshold: nothing a parse builds is in a reference cycle
    (``test_parse_leaves_no_reference_cycles``), so a collection during it
    would free nothing. A ``gc.disable()`` made by another thread meanwhile
    is undone when it returns.
    """
    return _paused(_parse, text, filename, lax)


def _parse(text: str, filename: str, lax: bool) -> ParseResult:
    tokens, folded = _scan(text, filename)
    parser = _Parser(tokens, folded, filename)
    name, decls, diagnostics = parser.parse()
    if name is None:
        return ParseResult(None, diagnostics)
    built = build_model(name, decls)
    if isinstance(built, list):
        return ParseResult(None, diagnostics + built)
    vdiags = validate(built, lax=lax)
    if vdiags:  # W202 is placed at a machine id, every other code at an edge id
        edges, machines = _element_spans(built, decls)
        vdiags = [
            Diagnostic(d.code, d.severity,
                       (machines if d.code == "W202" else edges).get(d.location, d.location),
                       d.message)
            for d in vdiags
        ]
    all_diags = diagnostics + vdiags
    model = built if not any(d.is_error for d in all_diags) else None
    return ParseResult(model, all_diags)


def _element_spans(model: Model, decls: list[Decl]) -> tuple[dict, dict]:
    """Edge ids and machine ids mapped to source spans, in two tables, as an
    edge and a machine may share an id; the n-th flow or trigger decl is edge n."""
    edges, machines = {}, {}
    flows, triggers = iter(model.flows), iter(model.triggers)
    for decl in decls:
        if isinstance(decl, FlowDecl):
            edges[next(flows).id] = decl.span
        elif isinstance(decl, TriggerDecl):
            edges[next(triggers).id] = decl.span
        elif isinstance(decl, MachineDecl):
            _machine_spans(decl, machines)
    return edges, machines


def _machine_spans(decl: MachineDecl, spans: dict[object, object]) -> None:
    stack = [(decl, (decl.name,))]
    while stack:
        d, path = stack.pop()
        spans[".".join(path)] = d.span
        stack.extend((c, path + (c.name,)) for c in reversed(d.children))


def serialize(model: Model) -> str:
    """Emit the canonical text form of a model.

    Canonical order: things, machines (depth-first), flows, triggers,
    events, chronology, each group in declaration order; one item per
    line; two-space indentation for nested content; byte-deterministic.
    Each flow and trigger line is formatted once, from the stage texts of
    ``Model.stages``; an event's flow and trigger items reuse it indented.
    """
    lines: list[str] = [f"model {model.name}"]
    for thing in model.things:
        lines.append(f"thing {thing.name}")

    closers: list[str] = []  # one pending "}" line per open machine block
    for machine in model.machines:
        while len(closers) >= len(machine.path):
            lines.append(closers.pop())
        pad = "  " * (len(machine.path) - 1)
        if machine.children:
            lines.append(f"{pad}machine {machine.name} {{")
            closers.append(f"{pad}}}")
        else:
            lines.append(f"{pad}machine {machine.name}")
    lines += reversed(closers)
    stages = model.stages
    flows = [f"flow {e.thing} {stages[e.src].text} -> {stages[e.dst].text}" for e in model.flows]
    triggers = [f"trigger {stages[t.src].text} ~> {stages[t.dst].text}" for t in model.triggers]
    lines += flows + triggers
    # By id, the last edge of an id winning, as in flows_by_id and triggers_by_id.
    flow_line = dict(zip([e.id for e in model.flows], flows))
    trigger_line = dict(zip([t.id for t in model.triggers], triggers))
    for event in model.events:
        head = f"event {event.name} perpetual {{" if event.perpetual else f"event {event.name} {{"
        lines.append(head)
        try:  # of the lookups below, only an edge id can miss
            for item in event.items:
                if isinstance(item, RegionFlow):
                    lines.append("  " + flow_line[item.edge_id])
                elif isinstance(item, RegionTrigger):
                    lines.append("  " + trigger_line[item.edge_id])
                elif isinstance(item, RegionNode):  # formats a ref no edge touches
                    ref = item.ref
                    lines.append(f"  node {stages[ref].text if ref in stages else ref}")
        except KeyError:
            raise ValueError(_unknown_edge(event, item)) from None
        lines.append("}")
    if model.chronology is not None:
        lines.append("chronology {")
        for a, b in model.chronology.edges:
            lines.append(f"  {a} -> {b}")
        lines.append("}")
    return "\n".join(lines) + "\n"
