"""``parse``'s diagnostics against an independent reference validator.

``helpers.reference_diagnostics`` applies the README's legality rules and
diagnostic codes to model text and shares no code with ``tmkit.core``; here
it is compared with ``parse`` over the 5x5x2 legality fixture's single-flow
models and over seeded random models with nested machines, ``env`` flows,
illegal flows and triggers, events and a chronology.
"""

from __future__ import annotations

import inspect
from collections import Counter
from pathlib import Path

import helpers
import tmkit.core
from tmkit.core import DIAGNOSTIC_CODES, StageKind, flow_legal
from tmkit.dsl import parse

from helpers import random_rule_text, reference_diagnostics, reference_severity

FIXTURE = Path(__file__).parent / "data" / "flow_legality.txt"
README = Path(__file__).resolve().parents[1] / "README.md"


def fixture_texts() -> list[str]:
    """One model per row of the legality fixture: a single flow of thing x
    out of machine a, into a again or into machine b."""
    texts = []
    for line in FIXTURE.read_text().splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            src, dst, same, _ = words
            into = "a" if same == "same" else "b"
            texts.append(
                f"model row\nthing x\nmachine a\nmachine b\nflow x a.{src} -> {into}.{dst}\n")
    return texts


def disagreement(text: str, lax: bool) -> tuple[list, list] | None:
    """``parse``'s and the reference's sorted (code, severity, subject)
    triples, when they differ or when ``parse`` builds a model exactly when
    the reference reports an error; None when both agree."""
    lines = text.split("\n")
    result = parse(text, "r.tm", lax=lax)
    got = []
    for d in result.diagnostics:
        line = d.location.start_line
        got.append((d.code, d.severity, f"{line}: {lines[line - 1].strip()}"))
    want = sorted((code, reference_severity(code, lax), subject)
                  for code, subject in reference_diagnostics(text))
    built = result.model is not None
    if sorted(got) != want or built == any(severity == "error" for _, severity, _ in want):
        return sorted(got), want
    return None


def test_the_fixture_gives_fifty_single_flow_models_and_the_reference_agrees_on_each():
    texts = fixture_texts()
    assert len(texts) == 50
    codes = Counter()
    for text in texts:
        assert disagreement(text, lax=False) is None, text
        codes.update(code for code, _ in reference_diagnostics(text) if code != "W202")
    # 8 legal rows, 10 into create; of the rest, 13 inside a machine and 19 across
    assert codes == {"E104": 10, "E102": 13, "E103": 19}


def test_parse_gives_the_reference_validators_diagnostics_on_random_models():
    codes, validated = Counter(), 0
    for seed in range(2000):
        text = random_rule_text(seed)
        lax = seed % 4 == 3
        assert disagreement(text, lax) is None, (seed, lax, text)
        found = {code for code, _ in reference_diagnostics(text)}
        codes.update(found)
        validated += not found & {"E101", "E104", "E106", "E301", "E302", "E303"}
    # every rule is exercised, and most models build, so that validation runs
    assert set(codes) == {"E101", "E102", "E103", "E104", "E105", "E106", "W201", "W202",
                          "E301", "E302", "E303"}, codes
    assert min(codes.values()) >= 20 and validated >= 1000, (codes, validated)


def test_the_reference_validator_names_nothing_of_core():
    # Its rules are written from the README, not read from core.py: no
    # function it runs reads a global bound to an object of tmkit.core.
    core_objects = [value for value in vars(tmkit.core).values() if not inspect.ismodule(value)]
    todo, seen = [reference_diagnostics, reference_severity], set()
    while todo:
        code = todo.pop()
        code = getattr(code, "__code__", code)
        if code in seen:
            continue
        seen.add(code)
        todo += [const for const in code.co_consts if inspect.iscode(const)]
        for name in code.co_names:
            value = vars(helpers).get(name)
            assert not any(value is obj for obj in core_objects), name
            if inspect.isfunction(value):
                todo.append(value)


def readme_table(heading: str) -> list[list[str]]:
    """The cells of the first table under a README heading, its header row
    first and its rule row left out."""
    rows: list[list[str]] = []
    for line in README.read_text().split(f"\n{heading}\n", 1)[1].splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        elif rows:
            break
    return [row for row in rows if set(row[0]) != {"-"}]


def test_the_readme_tables_the_reference_is_written_from_match_the_code():
    # The legality table states flow_legal inside one machine, cell by cell,
    # and the code table lists DIAGNOSTIC_CODES, in its order.
    header, *rows = readme_table("### Stage legality")
    kinds = [kind.value for kind in StageKind]
    assert header[1:] == [row[0] for row in rows] == kinds
    for row in rows:
        assert row[1:] == ["yes" if flow_legal(StageKind(row[0]), StageKind(dst), True) else "no"
                           for dst in kinds], row
    header, *rows = readme_table("### Diagnostic codes")
    assert header == ["code", "meaning"]
    assert [row[0] for row in rows] == list(DIAGNOSTIC_CODES)
