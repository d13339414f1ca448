"""Test patterns with don't-care bits, and the test-set file format.

A pattern is a symbol string over {0,1,d}: first the p target-line bits,
then the n input bits.  Don't-care symbols are instantiated at simulation
time by a fill policy.  Test-set files hold one pattern per line; '#'
starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "DC_POLICIES",
    "TestFileError",
    "TestPattern",
    "TestSet",
    "parse_test_file",
    "format_patterns",
]

DC_POLICIES = ("fill-zero", "fill-one")
# str.translate tables that resolve don't-cares, one per fill policy
FILL_TABLES = {"fill-zero": str.maketrans("d", "0"), "fill-one": str.maketrans("d", "1")}

ORIGINS = ("T1", "T2", "T3", "T4", "T5", "Fallback", "User")


class TestFileError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class TestPattern:
    """One stimulus: c bits then x bits, symbols over {0,1,d}."""

    __test__ = False  # domain class, not a pytest suite

    c: str
    x: str
    origin: str = "User"

    def __post_init__(self) -> None:
        for part in (self.c, self.x):
            if part.strip("01d"):
                raise ValueError(f"bad pattern symbol {sorted(set(part) - set('01d'))!r}")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin tag {self.origin!r}")

    def resolve(self, dc_policy: str = "fill-zero") -> tuple[tuple[int, ...], tuple[int, ...]]:
        bits = tuple(map(int, self.resolved_line(dc_policy)))
        return bits[: len(self.c)], bits[len(self.c) :]

    def line(self) -> str:
        return self.c + self.x

    def resolved_line(self, dc_policy: str = "fill-zero") -> str:
        return self.line().translate(FILL_TABLES[dc_policy])


@dataclass
class TestSet:
    """A named, ordered collection of patterns aimed at one fault class."""

    __test__ = False  # domain class, not a pytest suite

    name: str
    patterns: list[TestPattern] = field(default_factory=list)
    target_class: str = ""

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TestPattern]:
        return iter(self.patterns)

    def __getitem__(self, idx: int) -> TestPattern:
        return self.patterns[idx]

    def lines(self) -> list[str]:
        return [t.line() for t in self.patterns]


def parse_test_file(text: str, n: int, p: int) -> list[TestPattern]:
    """Read a test-set file; every pattern must carry exactly p + n symbols."""
    out: list[TestPattern] = []
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
        out.append(TestPattern(token[:p], token[p:], origin="User"))
    return out


def format_patterns(patterns: Sequence[TestPattern]) -> str:
    """Emit patterns one per line, with a comment line where the origin changes."""
    lines = []
    last_origin = None
    for pat in patterns:
        if pat.origin != last_origin:
            lines.append(f"# {pat.origin}")
            last_origin = pat.origin
        lines.append(pat.line())
    return "\n".join(lines) + "\n" if lines else ""
