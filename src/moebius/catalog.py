"""Canonical families of groups constructible from the spec grammar.

The sweep suites ("every constructible group of order <= N") run over
products of the named atoms: cyclic, dihedral, Sym(4), Alt(4), Alt(5),
Quat(8).  Sym(3) is omitted as an atom spelling (it equals D:3); flat
products are the whole grammar, so multisets of atoms enumerate the
constructible space up to spelling duplicates of isomorphic groups.
"""

from __future__ import annotations


def atom_specs(max_order: int) -> list[tuple[str, int]]:
    """(spec, order) for every atom of order <= max_order."""
    out = [(f"C:{n}", n) for n in range(2, max_order + 1)]
    out += [(f"D:{n}", 2 * n) for n in range(3, max_order // 2 + 1)]
    for spec, order in [("A:4", 12), ("S:4", 24), ("Q:8", 8), ("A:5", 60)]:
        if order <= max_order:
            out.append((spec, order))
    return out


def family_specs(max_order: int, max_factors: int = 8) -> list[str]:
    """Spec strings for all atom multisets with product order <= max_order."""
    atoms = sorted(atom_specs(max_order), key=lambda a: (a[1], a[0]))
    results: list[tuple[int, str]] = []

    def extend(start: int, order: int, parts: tuple[str, ...]):
        if parts:
            results.append((order, "x".join(parts)))
        if len(parts) >= max_factors:
            return
        for i in range(start, len(atoms)):
            spec, o = atoms[i]
            if order * o > max_order:
                break  # atoms sorted by order: nothing later fits
            extend(i, order * o, parts + (spec,))

    extend(0, 1, ())
    results.sort()
    return [s for _, s in results]
