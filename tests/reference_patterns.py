"""The test-file parser as it stood when it checked one line at a time.

``parse_test_file`` in ``bridgetest.patterns`` checks every row at once and
walks the lines only to name the first bad one.  Differential tests compare
it against this copy: the same rows, or the same error with the same line
and message.
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
