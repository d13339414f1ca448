"""Test patterns with don't-care bits, and the test-set file format.

A pattern is a row: a symbol string over {0,1,d}, first the p target-line
symbols, then the n input symbols, exactly the text of one test-file line.
Pattern lists are lists of rows from parsing to the report; rows are
checked where their text comes in.  Don't-care symbols are instantiated at
simulation time by a fill policy.  Test-set files hold one pattern per
line; '#' starts a comment.  A file is read for one network, whose
constant line, if normalization added one, holds 1 in every row.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .atpg import UnionResult
    from .circuit import AndExorNetwork

__all__ = [
    "DC_POLICIES",
    "TestFileError",
    "parse_test_file",
    "format_patterns",
]

DC_POLICIES = ("fill-zero", "fill-one")


def fill_table(dc_policy: str) -> dict[int, int]:
    """The ``str.translate`` table that resolves don't-cares under a policy."""
    if dc_policy not in DC_POLICIES:
        raise ValueError(f"unknown dc_policy {dc_policy!r}, expected one of {DC_POLICIES}")
    return str.maketrans("d", "0" if dc_policy == "fill-zero" else "1")


class TestFileError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_SYMBOLS = str.maketrans("", "", "01d")  # deletes every valid symbol
_BLANKS = str.maketrans("", "", "\t\x0b\x0c\r\x1c\x1d\x1e\x1f ")  # ASCII whitespace but "\n"
_COMMENT = re.compile("#.*")


def _line_tokens(text: str) -> list[str]:
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


def parse_test_file(text: str, network: AndExorNetwork) -> list[str]:
    """Read a test-set file into rows of p + n symbols for ``network``.

    A constant line is always 1.  A file written for the circuit before
    normalization added it (one x column short) gets that 1 in its column,
    and in a full-width row a d there reads as 1 and a 0 is refused.
    """
    n, p, aux = network.n, network.p, network.constant_line
    tokens = _line_tokens(text)
    if aux is None:
        return _token_rows(tokens, n, p)
    k = p + aux - 1
    if len(next(filter(None, tokens), "")) == p + n - 1:
        return [row[:k] + "1" + row[k:] for row in _token_rows(tokens, n - 1, p)]
    rows = _token_rows(tokens, n, p)
    if "0" in "".join(rows)[k :: p + n]:
        lineno = next(no for no, token in enumerate(tokens, 1) if token and token[k] == "0")
        raise TestFileError(f"0 on the constant line x{aux}, which is always 1", lineno)
    return [row[:k] + "1" + row[k + 1 :] for row in rows]


def _token_rows(tokens: list[str], n: int, p: int) -> list[str]:
    """The rows of a file's ``_line_tokens``, each p + n symbols long: checked
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
    for row, origin in zip(union.rows, union.origins):
        if origin != last_origin:
            lines.append(f"# {origin}")
            last_origin = origin
        lines.append(row)
    return "\n".join(lines) + "\n" if lines else ""
