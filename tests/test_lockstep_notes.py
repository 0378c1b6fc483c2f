"""Every inline copy of a helper on the hot path is on record.

The request path inlines a few helpers for speed, and each copy carries a
note "keep in lockstep with <helpers>".  ``NOTES`` lists each note by where
it stands and which helpers it names, with the hypothesis reference test that
checks the copy against those helpers.  This test fails when a note is not
in ``NOTES``, when an entry of ``NOTES`` has no note, or when a named
reference test is not collected.  A change to a helper must change its copies
too; the reference tests catch the drift, and this test keeps them in place.

A comment or docstring that says code is inlined must be on record too: it
stands either in a recorded copy, naming only helpers that copy's note names,
or in a helper, naming only the recorded copies of that helper.
"""

from __future__ import annotations

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: (module under src/repro, enclosing function, helpers the note names)
#: -> node id of the reference test that checks the copy against them.
NOTES: Dict[Tuple[str, str, Tuple[str, ...]], str] = {
    ("gpu/sm.py", "StreamingMultiprocessor.execute_instruction",
     ("Resource.acquire",)):
        "tests/gpu/test_sm.py::TestInlineIssueAndMSHRMatchHelpers"
        "::test_same_ready_cycles_and_counters",
    ("gpu/sm.py", "StreamingMultiprocessor.execute_instruction",
     ("MSHR.allocate",)):
        "tests/gpu/test_sm.py::TestInlineIssueAndMSHRMatchHelpers"
        "::test_same_ready_cycles_and_counters",
    ("gpu/sm.py", "StreamingMultiprocessor.execute_instruction",
     ("SetAssociativeCache.lookup", "SetAssociativeCache.insert",
      "SetAssociativeCache.invalidate", "SetAssociativeCache._index_and_tag")):
        "tests/gpu/test_sm.py::TestFusedL1MatchesCacheHelpers"
        "::test_same_hits_evictions_and_lru_order",
    ("gpu/interconnect.py", "Interconnect.send",
     ("BandwidthResource.transfer", "Resource.acquire")):
        "tests/gpu/test_interconnect.py::TestInlineSendMatchesTransfer"
        "::test_same_arrivals_and_counters",
    ("gpu/l2cache.py", "SharedL2Cache.access", ("Resource.acquire",)):
        "tests/gpu/test_l2cache.py::TestInlineAccessMatchesHelpers"
        "::test_same_answers_and_counters",
    ("gpu/l2cache.py", "SharedL2Cache.access",
     ("SetAssociativeCache.lookup", "SetAssociativeCache._index_and_tag")):
        "tests/gpu/test_l2cache.py::TestInlineAccessMatchesHelpers"
        "::test_same_answers_and_counters",
    ("core/zero_overhead_ftl.py", "ZeroOverheadFTL.translate_read",
     ("DataBlockMappingTable.lookup", "ZeroOverheadFTL.row_decoder",
      "ProgrammableRowDecoder.search", "LogPageMappingTable.search",
      "ZeroOverheadFTL.ppn_in_block", "FlashGeometry.ppn_of")):
        "tests/core/test_zero_overhead_ftl.py::TestInlineTranslateReadMatchesHelpers"
        "::test_same_ppns_and_counters",
}

_HELPER = re.compile(r"\b[A-Z]\w*(?:\.\w+)+")
_SENTENCE_END = re.compile(r"\.(?:\s|$)")
_INLINE = re.compile(r"\binlin(?:e|ed|es|ing)\b", re.IGNORECASE)


def _functions(tree: ast.AST) -> List[Tuple[int, int, str]]:
    """``(first line, last line, qualified name)`` of every function."""
    spans = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, child.end_lineno, name))
                visit(child, f"{name}.")

    visit(tree, "")
    return spans


def lockstep_notes() -> List[Tuple[str, str, Tuple[str, ...]]]:
    """Every "lockstep" note under ``src/repro``: its module, the innermost
    function holding it and the helpers named from "lockstep" to the end of
    the sentence, which may wrap over several comment or docstring lines."""
    notes = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "lockstep" not in text:
            continue
        lines = text.splitlines()
        functions = _functions(ast.parse(text))
        for number, line in enumerate(lines, start=1):
            if "lockstep" not in line:
                continue
            sentence = line[line.index("lockstep"):]
            following = number
            while not _SENTENCE_END.search(sentence) and following < len(lines):
                sentence += " " + lines[following].strip().lstrip("#").strip()
                following += 1
            sentence = sentence[:_SENTENCE_END.search(sentence + " ").start()]
            enclosing = [name for first, last, name in functions
                         if first <= number <= last]
            notes.append((path.relative_to(SRC).as_posix(),
                          enclosing[-1] if enclosing else "<module>",
                          tuple(_HELPER.findall(sentence))))
    return notes


def _prose(text: str) -> List[Tuple[int, str]]:
    """Every docstring and every run of comments on consecutive lines of a
    module, as ``(first line, text)`` with the text's own line breaks."""
    blocks = []
    lines: List[str] = []
    first = previous = 0
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT:
            continue
        number = token.start[0]
        if lines and number != previous + 1:
            blocks.append((first, "\n".join(lines)))
            lines = []
        if not lines:
            first = number
        lines.append(token.string.lstrip("#").strip())
        previous = number
    if lines:
        blocks.append((first, "\n".join(lines)))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = node.body[0] if node.body else None
            if (isinstance(docstring, ast.Expr)
                    and isinstance(docstring.value, ast.Constant)
                    and isinstance(docstring.value.value, str)):
                blocks.append((docstring.lineno, docstring.value.value))
    return blocks


def inline_mentions() -> List[Tuple[str, int, str, Tuple[str, ...]]]:
    """Every sentence of a comment or docstring under ``src/repro`` that says
    code is inlined: its module, line, innermost enclosing function and the
    helpers it names."""
    mentions = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if not _INLINE.search(text):
            continue
        functions = _functions(ast.parse(text))
        for first, block in _prose(text):
            for match in _INLINE.finditer(block):
                ends = [end.end() for end in
                        _SENTENCE_END.finditer(block, 0, match.start())]
                start = ends[-1] if ends else 0
                stop = _SENTENCE_END.search(block + " ", match.end()).start()
                number = first + block.count("\n", 0, match.start())
                enclosing = [name for low, high, name in functions
                             if low <= number <= high]
                mentions.append((path.relative_to(SRC).as_posix(), number,
                                 enclosing[-1] if enclosing else "<module>",
                                 tuple(_HELPER.findall(block[start:stop]))))
    return mentions


def test_every_inline_mention_is_on_record():
    helpers_at: Dict[Tuple[str, str], Set[str]] = {}
    copies_of: Dict[str, Set[str]] = {}
    for module, function, helpers in NOTES:
        helpers_at.setdefault((module, function), set()).update(helpers)
        for helper in helpers:
            copies_of.setdefault(helper, set()).add(function)
    unrecorded = []
    for module, number, function, named in inline_mentions():
        if (module, function) in helpers_at:
            recorded = set(named) <= helpers_at[(module, function)]
        else:
            recorded = bool(named) and set(named) <= copies_of.get(function, set())
        if not recorded:
            unrecorded.append(f"{module}:{number} in {function}, naming {named}")
    assert not unrecorded, (
        f"comments that say code is inlined, with no lockstep note on record: "
        f"{unrecorded}")


def test_every_note_is_on_record():
    unrecorded = [note for note in lockstep_notes() if note not in NOTES]
    assert not unrecorded, (
        f"lockstep notes with no entry in NOTES: {unrecorded}")


def test_every_entry_has_its_note():
    found = set(lockstep_notes())
    missing = [entry for entry in NOTES if entry not in found]
    assert not missing, f"NOTES entries whose note is gone or changed: {missing}"


def test_each_note_names_a_helper():
    assert all(helpers for _, _, helpers in lockstep_notes())


def test_every_reference_test_is_collected():
    node_ids = sorted(set(NOTES.values()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    ).stdout.splitlines()
    absent = [node_id for node_id in node_ids
              if not any(item == node_id or item.startswith(node_id + "[")
                         for item in collected)]
    assert not absent, f"reference tests not collected: {absent}"
