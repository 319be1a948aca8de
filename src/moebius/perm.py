"""Permutations on points 0..n-1, with 1-based cycle syntax for I/O."""

from __future__ import annotations

import re
from math import lcm

from .errors import ParseError


class Permutation:
    """An immutable bijection of {0..n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {images}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from 0-based cycles, e.g. [(0, 1), (2, 3, 4)]."""
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if images[a] != a:
                    raise ValueError(f"point {a} appears in two cycles")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        cycs = self.cycles()
        return lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; identity renders as '()'."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def parse_cycles(text: str, degree: int | None = None, offset: int = 0) -> Permutation:
    """Parse 1-based cycle words like '(1,2)(3,4)'.

    The degree defaults to the largest point mentioned; '()' needs an
    explicit degree. `offset` shifts reported error positions inside a
    larger spec string.
    """
    text = text.strip()
    if text in ("()", "e", "id"):
        return Permutation.identity(degree if degree else 1)
    pos = 0
    cycles = []
    maxpt = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(text, pos)
        if not m:
            raise ParseError("expected a cycle '(a,b,...)'", offset + pos)
        pts = [int(s) for s in m.group(1).split(",")]
        if any(p < 1 for p in pts):
            raise ParseError("cycle points are 1-based", offset + pos)
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside a cycle", offset + pos)
        cycles.append(tuple(p - 1 for p in pts))
        maxpt = max(maxpt, *pts)
        pos = m.end()
    deg = degree if degree is not None else maxpt
    if deg < maxpt:
        raise ParseError(f"point {maxpt} exceeds degree {deg}", offset)
    try:
        return Permutation.from_cycles(cycles, deg)
    except ValueError as exc:
        raise ParseError(str(exc), offset) from exc
