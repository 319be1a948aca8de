"""Subgroup names and the tables built on them."""

import hashlib
import io
import json
import sys
import tracemalloc
from collections import Counter

import pytest

from helpers import closure_mask, lattice
from moebius import cli, counting, tables
from moebius.groups import build_from_spec
from moebius.lattice import SubgroupLattice, enumerate_subgroups
from moebius.perm import Permutation
from moebius.tables import class_table, lattice_mu_table, name_subgroup, render


def exhaustive_name(lat, i, pair_limit=72):
    """Every element, then every pair, then every triple, each closed
    from scratch: the definition of the name, with no pruning."""
    if i == lat.trivial_id:
        return "1"
    if i == lat.top_id:
        return "G"
    G = lat.group
    s = lat.subgroups[i]
    elems = [x for x in s.elements() if x != G.identity]
    cyc = G.permutation
    for x in elems:
        if closure_mask(G, (x,)) == s.mask:
            return f"<{cyc(x).cycle_string()}>"
    if s.order <= pair_limit:
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                if closure_mask(G, (elems[a], elems[b])) == s.mask:
                    return f"<{cyc(elems[a]).cycle_string()},{cyc(elems[b]).cycle_string()}>"
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                for c in range(b + 1, len(elems)):
                    gens = (elems[a], elems[b], elems[c])
                    if closure_mask(G, gens) == s.mask:
                        return "<" + ",".join(cyc(x).cycle_string() for x in gens) + ">"
    k = lat.by_order[s.order].index(i)
    return f"order={s.order}#{k}"


# d(H) = 1, 2 and 3, subgroups that need four or more generators, odd primes
@pytest.mark.parametrize("spec", ["S:4", "Q:8xS:3", "A:6", "C:2xC:2xC:2xC:2xC:2",
                                  "D:4xD:4", "C:4xC:4xC:2xC:2", "D:8xC:2xC:2"])
def test_names_match_exhaustive_search(spec):
    lat = lattice(spec)
    for i in range(len(lat)):
        assert name_subgroup(lat, i) == exhaustive_name(lat, i)


def test_names_go_through_the_one_search(monkeypatch):
    # every word longer than one generator comes from the engine's one
    # search for a generating tuple, which takes a subgroup's bitset and
    # nothing else; in A6 that is every non-cyclic proper subgroup
    lat = lattice("A:6")
    expected = [name_subgroup(lat, i) for i in range(len(lat))]
    search = counting.first_generating_tuple
    targets = set()

    def recorded(G, target, t):
        assert target in lat.index
        targets.add(target)
        return search(G, target, t)

    monkeypatch.setattr(counting, "first_generating_tuple", recorded)
    assert [name_subgroup(lat, i) for i in range(len(lat))] == expected
    G = lat.group
    noncyclic = {s.mask for s in lat.subgroups
                 if s.order not in (1, G.order)
                 and all(G.element_orders[x] != s.order for x in s.elements())}
    assert noncyclic and targets == noncyclic


def _shape(name):
    if name in ("1", "G") or name.startswith("order="):
        return name.split("#")[0]
    # generators are joined by "," between a closing and an opening bracket
    return name.count("),(") + 1


def test_elementary_abelian_name_shapes():
    """In C:2^6 a subgroup of rank r has an r-generator name up to r = 3."""
    lat = lattice("C:2xC:2xC:2xC:2xC:2xC:2")
    names = [name_subgroup(lat, i) for i in range(len(lat))]
    assert Counter(_shape(n) for n in names) == {
        "1": 1, "G": 1, 1: 63, 2: 651, 3: 1395, "order=16": 651, "order=32": 63}
    for i, n in enumerate(names):
        if n.startswith("order="):
            assert cli.select_subgroup(lat, n) is lat.subgroups[i]


# sha256 of the CLI output, recorded before names and down-sets were pruned
GOLDEN = {
    ("table", "D:4xD:4", "--aut", "inn", "--format", "json"):
        "47cec066907e3d74660c48e61c06b5d69e6b1353f1093aaf31e3f47b9f1de11a",
    ("sigma-table", "D:4xD:4"):
        "93318d24e441541ed416439a0b67b27c2ac662ffa4594838f2fbbda632212460",
    ("table", "C:2xC:2xC:2xC:2", "--aut", "inn", "--omega2"):
        "a2829b6366c82a7ba125a2e2c8405ac3d589c4954e1d2743673f3518d8cc87fa",
    # recorded before rows were rendered as they are built
    ("table", "C:2xC:2xC:2xC:2", "--aut", "inn", "--format", "csv"):
        "9677db3872123f5a3b86d491ba253e5237d88d43df57dddee1f623f5017721d7",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_table_output_is_unchanged(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


C2_6 = "C:2xC:2xC:2xC:2xC:2xC:2"


def _class_table_peak(fmt):
    """(text, classes, tracemalloc peak) of naming, counting and rendering
    every row of C:2^6's class table in `fmt`, once `mu_top` and the class
    rows are built."""
    lat = enumerate_subgroups(build_from_spec(C2_6))
    poset = lat.conjugation
    poset.mu_top
    poset.rows()
    tracemalloc.start()
    try:
        text = "".join(render(*class_table(poset), fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return text, len(poset.classes), peak


def test_class_table_renders_one_row_at_a_time():
    # on C:2^6 (2825 singleton classes) the peak stays under 2.9 MB: no
    # unit-weight incidence lists, and no row's cells kept past its line
    text, classes, peak = _class_table_peak("markdown")
    assert text.count("\n") == 1 + classes
    assert peak < 2.9e6, peak


def test_json_class_table_renders_one_row_at_a_time():
    # json too is written one row at a time, with no dict per row kept and
    # no payload dumped whole: its peak stays under 3.5 MB
    text, classes, peak = _class_table_peak("json")
    assert text.count("\n    {") == classes
    assert peak < 3.5e6, peak


@pytest.mark.parametrize("spec,table", [("S:4", "class"), (C2_6, "class"), ("S:5", "sigma")])
def test_json_is_the_dumped_payload_written_row_by_row(spec, table):
    # json is rendered one row at a time, byte for byte what json.dumps
    # makes of the whole payload; the class tables are under Inn(G), as
    # `table --aut inn` prints them, and the sigma table is `sigma-table`'s
    lat = lattice(spec)
    cols, rows = class_table(lat.conjugation) if table == "class" else lattice_mu_table(lat)
    rows = list(rows)
    payload = {"columns": cols, "rows": [dict(zip(cols, r)) for r in rows]}
    assert "".join(render(cols, iter(rows), "json")) == json.dumps(payload, indent=2)


def test_names_make_one_cycle_string_per_element(monkeypatch):
    # naming every subgroup of C:2^6 writes each element's cycles once
    made = Counter()
    cycle_string = Permutation.cycle_string

    def counted(p):
        made[p.images] += 1
        return cycle_string(p)

    monkeypatch.setattr(Permutation, "cycle_string", counted)
    lat = enumerate_subgroups(build_from_spec(C2_6))
    names = [name_subgroup(lat, i) for i in range(len(lat))]
    assert len(names) == 2825
    assert made and set(made.values()) == {1} and len(made) < lat.group.order


def test_class_columns_hold_no_relation():
    # on C:2^6 (2825 singleton classes), once mu_A, omega at t = 1, 2 and
    # sigma are computed for every class, the memory held above the
    # enumerated lattice stays under 0.5 MB: no row of the relation, no
    # down-set and no incidence list outlives the sweep that read it
    lat = enumerate_subgroups(build_from_spec(C2_6))
    poset = lat.conjugation
    classes = range(len(poset.classes))
    tracemalloc.start()
    try:
        poset.mu_top
        for t in (1, 2):
            for c in classes:
                counting.omega(poset, c, t)
        for r, _ in poset.classes:
            lat.sigma(r)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.5e6, held


class _Writes(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_table_writes_render_text_as_it_is_made(monkeypatch, fmt):
    # `table C:2^6 --aut inn` writes exactly render's text and a newline, in
    # one write per piece, so no format holds the whole text (the classes are
    # named by id: the names are not what is tested)
    lat = lattice(C2_6)
    monkeypatch.setattr(cli, "_load_group_and_lattice", lambda args: (lat.group, lat))
    monkeypatch.setattr(tables, "name_subgroup", lambda lat, i: f"H{i}")
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["table", C2_6, "--aut", "inn", "--format", fmt]) == 0
    assert out.getvalue() == "".join(render(*class_table(lat.conjugation), fmt)) + "\n"
    assert out.writes > len(lat)


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
@pytest.mark.parametrize("argv", [("table", "S:4", "--aut", "inn"), ("sigma-table", "S:4")])
def test_an_error_before_the_head_leaves_stdout_empty(capsys, monkeypatch, argv, fmt):
    # every column is computed before the first piece is written, so an
    # error in the last one, sigma, exits 2 with nothing on stdout
    def fail(self, i):
        raise ValueError("no sigma")

    monkeypatch.setattr(SubgroupLattice, "sigma", fail)
    code = cli.main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: no sigma\n")
