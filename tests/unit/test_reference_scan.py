"""Dead-code gate: every function and class in ``src/repro`` has a caller.

The scan parses every non-``__init__`` module under ``src/repro`` and
collects the name of each function, method and class, skipping dunders and
the ``@register_workload`` scenario builders (the decorator is their
caller).  It then counts the words of the code once over ``src/``,
``tools/``, ``perfbench/`` and ``examples/`` — every name token, and the
words of every string that is not a docstring (an f-string's fields, a
``getattr`` name), but no comment or docstring, and none of the re-export
imports and ``__all__`` of package ``__init__`` files — and fails on
every name that occurs no more often than it is defined: nothing outside
the tests refers to it.  A name that only prose mentions is dead.

Counting once into a :class:`~collections.Counter` keeps the scan well
under a second; a per-name regex over every file is two orders of
magnitude slower.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SCANNED_DIRS = ("src", "tools", "perfbench", "examples")
WORD = re.compile(r"\w+")

#: Definitions kept although nothing outside the tests refers to them.
ALLOWLIST = {
    "get_free_count": "SmartFifo's SystemC-like monitor API (sc_fifo::num_free)",
    "size_at": "SmartFifo's SystemC-like monitor API: real size at a date",
    "any_of": "constructor of an or-EventList, which Simulator.wait accepts",
    "all_of": "constructor of an and-EventList, which Simulator.wait accepts",
    "cancel": "Event's SystemC-like API (sc_event::cancel) for pending notifications",
    "terminated_event": "Process's SystemC-like API (sc_process_handle::terminated_event)",
    "run_pair": "tests check through it that Smart runs reproduce the reference trace",
    "spilled_runs": "tests check through it that DigestSink spills bounded runs",
    "max_local_fs": "tests check through it how far decoupled processes run ahead",
    "total_flits_routed": "tests check through it that the NoC conserves flits",
    "emission_order_changed": "tests check through it the Fig. 3 reordered emission",
    "run_bursty_pair": "tests check through it that burst runs match word runs",
}


def _is_workload_builder(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "register_workload":
            return True
    return False


def _definitions():
    """``(path, line, name)`` of every scanned function and class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_workload_builder(node):
                continue
            yield path.relative_to(ROOT), node.lineno, name


def _package_init_text(source: str) -> str:
    """An ``__init__`` module without its re-export imports and ``__all__``."""
    kept = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        kept.append(ast.get_source_segment(source, node))
    return "\n".join(kept)


def _docstring_starts(source: str) -> set:
    """``(line, column)`` at which each docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = node.body[0] if node.body else None
            if (isinstance(docstring, ast.Expr)
                    and isinstance(docstring.value, ast.Constant)
                    and isinstance(docstring.value.value, str)):
                starts.add((docstring.lineno, docstring.col_offset))
    return starts


def _code_words(source: str):
    """The names and non-docstring string words of ``source``."""
    docstrings = _docstring_starts(source)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type == tokenize.STRING and token.start not in docstrings:
            yield from WORD.findall(token.string)


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for directory in SCANNED_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text()
            if path.name == "__init__.py":
                text = _package_init_text(text)
            counts.update(_code_words(text))
    return counts


def _unreferenced():
    definitions = list(_definitions())
    defined = Counter(name for _, _, name in definitions)
    counts = _word_counts()
    return [
        (path, line, name)
        for path, line, name in definitions
        if counts[name] <= defined[name]
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    dead = [
        f"{path}:{line} {name}"
        for path, line, name in _unreferenced()
        if name not in ALLOWLIST
    ]
    assert not dead, (
        "definitions that nothing outside the tests refers to; delete them "
        "with their tests, or allowlist them with a reason:\n" + "\n".join(dead)
    )


def test_allowlist_names_only_unreferenced_definitions():
    unreferenced = {name for _, _, name in _unreferenced()}
    stale = sorted(set(ALLOWLIST) - unreferenced)
    assert not stale, f"allowlisted names that no longer need it: {stale}"
    assert len(ALLOWLIST) <= 12
