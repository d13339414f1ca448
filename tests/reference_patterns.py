"""The test-file parser as it stood when it checked one line at a time.

``parse_test_file`` in ``bridgetest.patterns`` checks every row at once and
walks the lines only to name the first bad one.  Differential tests compare
it against this copy: the same rows, or the same error with the same line
and message.  ``reference_parse_tests_for`` adds the constant line's rule
on top, as the command line applied it before the parser took it in.
"""

from __future__ import annotations

from bridgetest.patterns import TestFileError


def reference_parse_test_file(text: str, n: int, p: int) -> list[str]:
    """Read a test-set file; every row must carry exactly p + n symbols."""
    out: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        token = "".join(body.split())
        if not token:
            continue
        if token.strip("01d"):
            raise TestFileError(f"bad symbol {sorted(set(token) - set('01d'))[0]!r}", lineno)
        if len(token) != p + n:
            raise TestFileError(
                f"pattern has {len(token)} symbols, expected {p + n} (p={p} then n={n})", lineno
            )
        out.append(token)
    return out


def reference_parse_tests_for(text: str, n: int, p: int, constant_line: int | None) -> list[str]:
    """The command line's reading of a test file before the library took it
    over, for a network whose constant line, if any, is its last x line.
    The constant line is always 1: a file one x column short is padded with
    that 1, and in a full-width row a d there is read as 1 and a 0 refused."""
    if constant_line is None:
        return reference_parse_test_file(text, n, p)
    tokens = ["".join(raw.split("#", 1)[0].split()) for raw in text.splitlines()]
    if len(next(filter(None, tokens), "")) == p + n - 1:
        return [row + "1" for row in reference_parse_test_file(text, n - 1, p)]
    rows, k = reference_parse_test_file(text, n, p), p + constant_line - 1
    for lineno, token in enumerate(tokens, start=1):
        if token and token[k] == "0":
            raise TestFileError(f"0 on the constant line x{constant_line}, which is always 1",
                                lineno)
    return [row[:k] + "1" + row[k + 1 :] for row in rows]
