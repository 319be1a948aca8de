"""Permutations on points 0..n-1, with 1-based cycle syntax for I/O, and
`orbit`, the one orbit walk for every action the engine uses."""

from __future__ import annotations

import re
from math import lcm

from .errors import ParseError


def orbit(x, steps) -> list:
    """The orbit of x under the group generated by the callables `steps`,
    in the order met: x first, then the new images of each point met, in
    turn.  Each step is a bijection of finite order, so a set closed under
    the steps is closed under their inverses too."""
    met = {x}
    out = [x]
    for y in out:   # grows while it is walked
        for step in steps:
            z = step(y)
            if z not in met:
                met.add(z)
                out.append(z)
    return out


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
        step = [self.images.__getitem__]
        seen = bytearray(len(self.images))
        out = []
        for start in range(len(self.images)):
            if not seen[start]:
                cyc = orbit(start, step)
                for p in cyc:
                    seen[p] = 1
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
    explicit degree.  An error names the position of the faulty cycle;
    `offset` is the position of `text` inside a larger spec string.
    """
    offset += len(text) - len(text.lstrip())
    text = text.strip()
    if text in ("()", "e", "id"):
        return Permutation.identity(degree if degree else 1)
    pos = 0
    cycles = []
    used = set()
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
        for p in pts:
            if p in used:
                raise ParseError(f"point {p} appears in two cycles", offset + pos)
        used.update(pts)
        cycles.append(tuple(p - 1 for p in pts))
        pos = m.end()
    maxpt = max(used, default=0)
    deg = degree if degree is not None else maxpt
    if deg < maxpt:
        raise ParseError(f"point {maxpt} exceeds degree {deg}", offset)
    return Permutation.from_cycles(cycles, deg)
