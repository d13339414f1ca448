"""Test patterns with don't-care bits, and the test-set file format.

A pattern is a row: a symbol string over {0,1,d}, first the p target-line
symbols, then the n input symbols, exactly the text of one test-file line.
Pattern lists are lists of rows from parsing to the report; rows are
checked where their text comes in.  Don't-care symbols are instantiated at
simulation time by a fill policy.  Test-set files hold one pattern per
line; '#' starts a comment.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .atpg import UnionResult

__all__ = [
    "DC_POLICIES",
    "TestFileError",
    "TestSet",
    "parse_test_file",
    "format_patterns",
]

DC_POLICIES = ("fill-zero", "fill-one")
# str.translate tables that resolve don't-cares, one per fill policy
FILL_TABLES = {"fill-zero": str.maketrans("d", "0"), "fill-one": str.maketrans("d", "1")}


class TestFileError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class TestSet:
    """A named, ordered list of rows aimed at one fault class; the name is
    the rows' origin.  Its length and iteration are the rows'."""

    __slots__ = ("name", "rows", "target_class")
    __test__ = False  # domain class, not a pytest suite

    def __init__(self, name: str, rows: list[str] | None = None, target_class: str = "") -> None:
        self.name = name
        self.rows = [] if rows is None else rows
        self.target_class = target_class

    def __repr__(self) -> str:
        return (f"TestSet(name={self.name!r}, rows={self.rows!r},"
                f" target_class={self.target_class!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TestSet:
            return NotImplemented
        return (self.name, self.rows, self.target_class) == (
            other.name, other.rows, other.target_class)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)


_SYMBOLS = str.maketrans("", "", "01d")  # deletes every valid symbol
_BLANKS = str.maketrans("", "", "\t\x0b\x0c\r\x1c\x1d\x1e\x1f ")  # ASCII whitespace but "\n"
_COMMENT = re.compile("#.*")


def line_tokens(text: str) -> list[str]:
    """Each line of a test file without its comment and whitespace: whole-text
    passes, or ``str.split`` per line when a symbol other than 0, 1, d and
    ASCII whitespace is left, so that Unicode whitespace goes too."""
    lines = "\n".join(text.splitlines())
    if "#" in lines:
        lines = _COMMENT.sub("", lines)
    tokens = lines.translate(_BLANKS).split("\n")
    if "".join(tokens).translate(_SYMBOLS):
        tokens = ["".join(line.split()) for line in lines.split("\n")]
    return tokens


def parse_test_file(text: str, n: int, p: int) -> list[str]:
    """Read a test-set file into rows; every row must carry exactly p + n symbols."""
    return token_rows(line_tokens(text), n, p)


def token_rows(tokens: list[str], n: int, p: int) -> list[str]:
    """The rows of a file's ``line_tokens``, each p + n symbols long: checked
    in bulk, and only a file that fails is walked for its first bad line."""
    rows = list(filter(None, tokens))
    if "".join(rows).translate(_SYMBOLS) or set(map(len, rows)) - {p + n}:
        for lineno, token in enumerate(tokens, start=1):
            if token.strip("01d"):
                raise TestFileError(f"bad symbol {sorted(set(token) - set('01d'))[0]!r}", lineno)
            if token and len(token) != p + n:
                raise TestFileError(
                    f"pattern has {len(token)} symbols, expected {p + n} (p={p} then n={n})",
                    lineno,
                )
    return rows


def format_patterns(union: UnionResult) -> str:
    """Emit the union's rows one per line, with a comment line where the origin changes."""
    lines = []
    last_origin = None
    for row, origin in zip(union.test_set.rows, union.origins):
        if origin != last_origin:
            lines.append(f"# {origin}")
            last_origin = origin
        lines.append(row)
    return "\n".join(lines) + "\n" if lines else ""
