"""The circuit parser as it stood when it found every token's column with a
regex, for each line, before it knew whether a line was bad.

``parse_circuit`` in ``bridgetest.circuit`` splits lines with ``str.split``
and finds a token's column only to report an error.  Differential tests
compare it against this copy: the same circuit, or the same error with the
same line, column and message.
"""

from __future__ import annotations

import re

from bridgetest.circuit import AndExorNetwork, ParseError

_C_TOKEN = re.compile(r"^c([0-9]+)$")
_X_TOKEN = re.compile(r"^x([0-9]+)$")


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def reference_parse_circuit(
    text: str, *, allow_zero_controls: bool = False, name: str = ""
) -> AndExorNetwork:
    """Parse circuit text into a network.

    0-control gates are rejected unless ``allow_zero_controls`` is set;
    callers that accept them are expected to run normalize_zero_controls
    afterwards.
    """
    n: int | None = None
    p: int | None = None
    supports: list[frozenset] = []
    targets: list[int] = []
    ended = False
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0]
        toks = _tokens_with_columns(line)
        if not toks:
            continue
        head, head_col = toks[0]
        if ended:
            raise ParseError("content after .end", lineno, head_col)

        if head in (".n", ".p"):
            if len(toks) != 2 or not (toks[1][0].isascii() and toks[1][0].isdigit()):
                raise ParseError(f"{head} expects one integer", lineno, head_col)
            value = int(toks[1][0])
            if value < 1:
                raise ParseError(f"{head} must be at least 1", lineno, toks[1][1])
            if head == ".n":
                if n is not None:
                    raise ParseError("duplicate .n", lineno, head_col)
                n = value
            else:
                if p is not None:
                    raise ParseError("duplicate .p", lineno, head_col)
                if n is None:
                    raise ParseError(".n must come before .p", lineno, head_col)
                p = value
            continue

        if head == ".end":
            if len(toks) != 1:
                raise ParseError(".end takes no arguments", lineno, toks[1][1])
            if n is None or p is None:
                raise ParseError(".end before .n and .p", lineno, head_col)
            ended = True
            continue

        if head == ".gate":
            if n is None or p is None:
                raise ParseError(".gate before .n and .p", lineno, head_col)
            if len(toks) < 3 or toks[2][0] != ":":
                raise ParseError(".gate expects 'c<j> : x<i> ...'", lineno, head_col)
            tgt_tok, tgt_col = toks[1]
            if _X_TOKEN.match(tgt_tok):
                raise ParseError(f"target must be a c line (got '{tgt_tok}')", lineno, tgt_col)
            m = _C_TOKEN.match(tgt_tok)
            if not m:
                raise ParseError(f"bad target token '{tgt_tok}'", lineno, tgt_col)
            target = int(m.group(1))
            if not (1 <= target <= p):
                raise ParseError(f"target c{target} out of range 1..{p}", lineno, tgt_col)

            controls: list[int] = []
            for tok, col in toks[3:]:
                if _C_TOKEN.match(tok):
                    raise ParseError(f"control on target line '{tok}'", lineno, col)
                m = _X_TOKEN.match(tok)
                if not m:
                    raise ParseError(f"bad control token '{tok}'", lineno, col)
                v = int(m.group(1))
                if not (1 <= v <= n):
                    raise ParseError(f"control x{v} out of range 1..{n}", lineno, col)
                if v in controls:
                    raise ParseError(f"duplicate control x{v}", lineno, col)
                controls.append(v)
            if not controls and not allow_zero_controls:
                raise ParseError(
                    "gate has no controls (0-CNOT); normalization is disabled", lineno, head_col
                )
            supports.append(frozenset(controls))
            targets.append(target)
            continue

        raise ParseError(f"unknown directive '{head}'", lineno, head_col)

    if n is None or p is None:
        raise ParseError("missing .n or .p", last_line + 1)
    if not ended:
        raise ParseError("missing .end", last_line + 1)

    return AndExorNetwork(n, p, tuple(supports), tuple(targets), name=name)

