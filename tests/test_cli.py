import json
import warnings

import pytest

import moebius.lattice as lattice_module
from helpers import lattice
from moebius import cli
from moebius.cache import (cache_path, lattice_payload, mask_to_hex, payload_bytes, save_lattice,
                           seal)
from moebius.lattice import SubgroupLattice


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_s4_contains_paper_rows(capsys):
    code, out = run_cli(capsys, "table", "S:4", "--aut", "inn", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    pairs = [(r["mu_A"], r["omega1"]) for r in payload["rows"]]
    for pair in [("1", "24"), ("-1", "12"), ("-1", "16"), ("-1", "15"),
                 ("1", "4"), ("0", "10"), ("1", "9"), ("1", "7"),
                 ("0", "4"), ("-1", "1")]:
        assert pair in pairs
    assert len(pairs) == 11
    assert pairs.count(("0", "10")) == 2


def test_table_d7(capsys):
    code, out = run_cli(capsys, "table", "D:7", "--aut", "inn", "--format", "json")
    payload = json.loads(out)
    rows = {r["class"]: (r["mu_A"], r["omega1"]) for r in payload["rows"]}
    assert rows["G"] == ("1", "14")
    assert rows["1"] == ("1", "1")
    values = sorted(payload["rows"], key=lambda r: -int(r["omega1"]))
    assert [(r["mu_A"], r["omega1"]) for r in values] == \
        [("1", "14"), ("-1", "8"), ("-1", "7"), ("1", "1")]


def test_table_c6_lattice(capsys):
    code, out = run_cli(capsys, "table", "C:6", "--aut", "1", "--format", "json")
    payload = json.loads(out)
    assert len(payload["rows"]) == 4


def test_phi_json_roundtrip(capsys):
    for via in ("hall", "classes", "brute"):
        code, out = run_cli(capsys, "phi", "A:5", "--t", "2", "--via", via,
                            "--aut", "inn")
        assert code == 0
        assert json.loads(out)["value"] == "2280"


def test_output_determinism(capsys):
    _, out1 = run_cli(capsys, "table", "S:4", "--format", "markdown")
    _, out2 = run_cli(capsys, "table", "S:4", "--format", "markdown")
    assert out1 == out2
    _, csv1 = run_cli(capsys, "table", "S:4", "--format", "csv")
    assert csv1.splitlines()[0] == "class,mu_A,omega1,kappa,sigma"


def test_phi_star_and_prob(capsys):
    code, out = run_cli(capsys, "phi-star", "A:5", "--t", "1")
    assert json.loads(out)["value"] == "1"
    code, out = run_cli(capsys, "prob", "C:8", "--t", "2")
    payload = json.loads(out)
    assert payload["P"] == "3/4" and payload["P_star"] == "7/16"


def test_phi_rel(capsys):
    code, out = run_cli(capsys, "phi-rel", "S:3", "--normal", "order=3",
                        "--t", "2", "--via", "classes", "--aut", "inn")
    assert json.loads(out)["value"] == "6"
    code, out = run_cli(capsys, "phi-rel", "S:3", "--normal", "derived",
                        "--t", "2")
    assert json.loads(out)["value"] == "6"


def test_phi_rel_reports_no_lift_one_way(capsys):
    # (C2 x C2)/1 needs two generators: both routes exit 2 with one error line
    for via in ("hall", "classes"):
        code = cli.main(["phi-rel", "C:2xC:2", "--normal", "order=1", "--t", "1",
                         "--via", via])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: no t-tuple generates the group modulo N\n"


def test_check_mu_lambda_exit_code(capsys):
    code, out = run_cli(capsys, "check-mu-lambda", "S:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and len(payload["classes"]) == 11


def test_beta_tau_strana(capsys):
    code, out = run_cli(capsys, "beta", "A:5", "--t-max", "2", "--rank")
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["vectors"]["1"] == ["24", "20", "24", "39", "44", "59"]

    code, out = run_cli(capsys, "tau", "S:4")
    payload = json.loads(out)
    assert payload["violating_classes"] == [] and payload["tau"] == {}

    code, out = run_cli(capsys, "strana", "A:5", "--t", "3")
    payload = json.loads(out)
    assert code == 0 and payload["is_zero"] and payload["consistent"]


def test_verify_small(capsys):
    code, out = run_cli(capsys, "verify", "C:2", "--t-max", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and all(c["ok"] for c in payload["checks"])


def test_verify_s4(capsys):
    code, out = run_cli(capsys, "verify", "S:4", "--t-max", "2")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_product_group(capsys):
    code, out = run_cli(capsys, "verify", "S:4xC:2", "--t-max", "2")
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("flags,budget", [(["--tuple-budget", "5000000"], 5 * 10 ** 6),
                                          ([], 10 ** 6)])
def test_verify_passes_its_tuple_budget_through(capsys, monkeypatch, flags, budget):
    import moebius.verify as verify_module
    seen = []

    def battery(G, t_max, lattice, tuple_budget):
        seen.append(tuple_budget)
        return []

    monkeypatch.setattr(verify_module, "run_battery", battery)
    code, _ = run_cli(capsys, "verify", "S:3", *flags)
    assert code == 0 and seen == [budget]


@pytest.mark.parametrize("argv", [
    ["verify", "C:1", "--t-max", "0"],
    ["beta", "S:3", "--t-max", "0"],
])
def test_t_max_below_one_is_a_usage_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "t_max must be a positive integer" in captured.err


# each subcommand's required arguments, with whether its handler reads
# --format and --tuple-budget
SUBCOMMAND_FLAGS = {
    ("table", "S:4"): (True, False),
    ("sigma-table", "S:4"): (True, False),
    ("phi", "S:4", "--t", "1"): (False, True),
    ("phi-rel", "S:4", "--normal", "full", "--t", "1"): (False, True),
    ("phi-star", "S:4", "--t", "1"): (False, True),
    ("prob", "S:4", "--t", "1"): (False, False),
    ("check-mu-lambda", "S:4"): (True, False),
    ("beta", "S:4"): (False, False),
    ("tau", "S:4"): (False, False),
    ("strana", "S:4", "--t", "1"): (False, False),
    ("verify", "S:4"): (False, True),
    ("cache", "info", "S:4"): (False, False),
}


@pytest.mark.parametrize("argv,reads", SUBCOMMAND_FLAGS.items(),
                         ids=[argv[0] for argv in SUBCOMMAND_FLAGS])
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, argv, reads):
    # a flag the handler would ignore is a usage error before any work:
    # `phi S:4 --t 1 --format csv` printed JSON and exited 0 when accepted
    parser = cli.build_parser()
    parser.parse_args(list(argv))
    for flag, value, read in (("--format", "csv", reads[0]),
                              ("--tuple-budget", "10", reads[1])):
        if read:
            parser.parse_args([*argv, flag, value])
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, flag, value])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""


def test_error_exit_code(capsys):
    assert cli.main(["phi", "Z:9", "--t", "1"]) == 2
    assert cli.main(["table", "S:4", "--aut", "bogus"]) == 2
    assert cli.main(["phi-rel", "S:3", "--normal", "order=2", "--t", "1"]) == 2
    assert cli.main(["table", "S:4", "--aut", "inn:order=2#-1"]) == 2
    assert cli.main(["phi-rel", "S:4", "--normal", "normal-order=4#-1", "--t", "2"]) == 2


def test_aut_selector_variants(capsys):
    code, out = run_cli(capsys, "phi", "A:4", "--t", "2", "--via", "classes",
                        "--aut", "A=inn:order=4")
    assert json.loads(out)["value"] == "96"
    code, out = run_cli(capsys, "phi", "A:4", "--t", "2", "--via", "classes",
                        "--aut", "aut")
    assert json.loads(out)["value"] == "96"
    code, out = run_cli(capsys, "phi", "C:2xC:2", "--t", "2", "--via", "classes",
                        "--aut", "1")
    assert json.loads(out)["value"] == "6"


# an unclosed maps file warns from a finalizer, which pytest reports as unraisable
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_aut_maps_file(capsys, tmp_path):
    path = tmp_path / "maps.txt"
    # C5: generator -> its square generates a 4-element automorphism group
    path.write_text("(1,2,3,4,5) -> (1,3,5,2,4)\n")
    code, out = run_cli(capsys, "phi", "C:5", "--t", "1", "--via", "classes",
                        "--aut", f"maps:{path}")
    assert code == 0 and json.loads(out)["value"] == "4"


@pytest.mark.parametrize("argv, maps_line, named", [
    (["phi-rel", "C:4", "--normal", "gens=[(1,3)]", "--t", "1"], None, "(1,3)"),
    (["table", "C:4"], "(1,2,3,4) -> (1,3,2,4)\n", "(1,3,2,4)"),
])
def test_permutation_outside_the_group_exits_2(capsys, tmp_path, argv, maps_line, named):
    # a gens= selector or a maps: line naming a permutation that is not in G
    if maps_line is not None:
        path = tmp_path / "maps.txt"
        path.write_text(maps_line)
        argv = [*argv, "--aut", f"maps:{path}"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the permutation {named} is not in the group\n"


@pytest.mark.parametrize("line", ["(1,3)(2,4)", "(1,2,3,4) -> ", "-> (1,2,3,4)"])
def test_maps_line_without_both_sides_exits_2(capsys, tmp_path, line):
    # a maps: line needs a permutation on each side of "->"; a missing side
    # is refused by line number, not read as the identity
    path = tmp_path / "maps.txt"
    path.write_text(f"# C4\n{line}\n")
    assert cli.main(["table", "C:4", "--aut", f"maps:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: maps line 2 is not '<permutation> -> <permutation>': "
                            f"{line.strip()!r}\n")


def test_gens_selector(capsys):
    code, out = run_cli(capsys, "phi-rel", "S:4", "--normal",
                        "gens=[(1,2)(3,4);(1,3)(2,4)]", "--t", "2")
    assert code == 0
    assert json.loads(out)["value"] == "12"


def test_normal_order_selector(capsys):
    # S4 has four subgroups of order 4 per spelling but a unique normal one
    code, out = run_cli(capsys, "phi-rel", "S:4", "--normal",
                        "normal-order=4", "--t", "2")
    assert code == 0
    assert json.loads(out)["value"] == "12"
    code, out = run_cli(capsys, "tau", "S:4")
    payload = json.loads(out)
    assert payload["t_set_size"] == 0 and payload["tau_all_zero"]


# -- cache ---------------------------------------------------------------

def test_cache_build_rebuild_identical(capsys, tmp_cache):
    code, out = run_cli(capsys, "cache", "build", "S:4",
                        "--cache-dir", str(tmp_cache))
    assert code == 0
    path = cache_path(tmp_cache, "S:4")
    first = path.read_bytes()
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    assert path.read_bytes() == first


@pytest.mark.parametrize("spec", ["S:4", "S:5", "A:6", "D:12xC:2", "Q:8xS:3",
                                  "C:2xC:2xC:2xC:2xC:2xC:2"])
def test_cache_file_is_the_sealed_canonical_payload(spec, tmp_cache):
    # the file is hashed and written in pieces, and holds exactly the
    # canonical bytes of the sealed payload
    lat = lattice(spec)
    path = save_lattice(lat, tmp_cache)
    assert path.read_bytes() == payload_bytes(seal(lattice_payload(lat)))


def test_cache_info_and_use(capsys, tmp_cache):
    code, out = run_cli(capsys, "cache", "info", "S:4",
                        "--cache-dir", str(tmp_cache))
    assert json.loads(out) == {"group": "S:4", "cached": False}
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    code, out = run_cli(capsys, "cache", "info", "S:4",
                        "--cache-dir", str(tmp_cache))
    payload = json.loads(out)
    assert payload["cached"] and payload["subgroups"] == 30 and payload["order"] == 24
    # a cached lattice feeds the table command and gives identical output
    _, direct = run_cli(capsys, "table", "S:4", "--format", "json")
    _, cached = run_cli(capsys, "table", "S:4", "--format", "json",
                        "--cache-dir", str(tmp_cache))
    assert direct == cached


def test_cache_corruption_recovers(capsys, tmp_cache):
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    path.write_text("{ not json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "table", "S:4", "--format", "json",
                            "--cache-dir", str(tmp_cache))
    assert code == 0
    assert any("cache" in str(w.message) for w in caught)


def test_cache_version_mismatch(capsys, tmp_cache):
    import json as _json
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    payload = _json.loads(path.read_text())
    payload["engine_version"] = "0.0.0"
    path.write_text(_json.dumps(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(capsys, "table", "S:4", "--cache-dir", str(tmp_cache))
    assert code == 0
    assert any("0.0.0" in str(w.message) for w in caught)


def test_cache_clear(capsys, tmp_cache):
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    run_cli(capsys, "cache", "build", "C:6", "--cache-dir", str(tmp_cache))
    code, out = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_cache))
    assert json.loads(out)["cleared"] == 2


def test_corrupt_cache_exits_2(capsys, tmp_cache):
    # a cache missing one non-normal subgroup of order 2 breaks the orbits
    from helpers import group, lattice
    from moebius.groups import is_normal_mask
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    payload = json.loads(path.read_text())
    G, lat = group("S:4"), lattice("S:4")
    drop = next(s for s in lat.subgroups
                if s.order == 2 and not is_normal_mask(G, s.mask))
    payload["subgroups"].remove(mask_to_hex(drop.mask, G.order))
    path.write_bytes(payload_bytes(seal(payload)))   # re-sealed: reaches the orbit walk
    for argv in (["table", "S:4"],
                 ["phi", "S:4", "--t", "2", "--via", "classes", "--aut", "inn"],
                 ["check-mu-lambda", "S:4"],
                 ["sigma-table", "S:4"]):
        code = cli.main(argv + ["--cache-dir", str(tmp_cache)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:"), argv


def test_cache_missing_a_conjugate_exits_2(capsys, tmp_cache):
    # a cache missing one of the four S_3 of S:4: the orbit walk meets a
    # conjugate outside the lattice before anything is printed
    from helpers import group, lattice
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    payload = json.loads(path.read_text())
    G, lat = group("S:4"), lattice("S:4")
    drop = lat.subgroups[lat.by_order[6][0]]
    payload["subgroups"].remove(mask_to_hex(drop.mask, G.order))
    path.write_bytes(payload_bytes(seal(payload)))   # re-sealed: reaches the orbit walk
    for argv in (["table", "S:4", "--aut", "inn"],
                 ["check-mu-lambda", "S:4"],
                 ["phi", "S:4", "--t", "2"]):
        code = cli.main(argv + ["--cache-dir", str(tmp_cache)])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "missing from the lattice" in captured.err, argv
        assert captured.out == "", argv


def test_hand_edited_cache_is_recomputed(capsys, tmp_cache):
    # the four S_3 of S:4 deleted by hand, seal left as it was: a whole
    # conjugacy class gone passes every cheap check, so only the seal tells;
    # phi(S_4, 2) is 216, not the 288 of the edited lattice
    from helpers import lattice
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    sealed = path.read_bytes()
    payload = json.loads(sealed)
    lat = lattice("S:4")
    for i in lat.by_order[6]:
        payload["subgroups"].remove(mask_to_hex(lat.subgroups[i].mask, 24))
    path.write_bytes(payload_bytes(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "phi", "S:4", "--t", "2", "--cache-dir", str(tmp_cache))
    assert code == 0 and json.loads(out)["value"] == "216"
    assert any("sha256 seal" in str(w.message) for w in caught)
    assert path.read_bytes() == sealed      # recomputed and rewritten


@pytest.mark.parametrize("seal_field", [None, "0" * 64], ids=["unsealed", "wrong seal"])
def test_unsealed_or_wrongly_sealed_cache_is_rewritten(capsys, tmp_cache, seal_field):
    # masks intact, seal missing or wrong: ignored with a warning, and the
    # next query rewrites the sealed file
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    sealed = path.read_bytes()
    payload = json.loads(sealed)
    assert payload == seal(payload)
    del payload["sha256"]
    if seal_field:
        payload["sha256"] = seal_field
    path.write_bytes(payload_bytes(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "cache", "info", "S:4", "--cache-dir", str(tmp_cache))
    assert code == 0 and json.loads(out)["cached"] is False
    assert any("sha256 seal" in str(w.message) for w in caught)
    with pytest.warns(UserWarning, match="sha256 seal"):
        code, _ = run_cli(capsys, "table", "S:4", "--cache-dir", str(tmp_cache))
    assert code == 0 and path.read_bytes() == sealed
    assert [p.name for p in tmp_cache.iterdir()] == [path.name]


# one mutation per cheap rule of `load_lattice`, each re-sealed, so only
# the rule itself can refuse the file
CHEAP_RULE_MUTATIONS = {
    "spec": ("spec mismatch", lambda p: p.update(spec="S:5")),
    "element count": ("element count mismatch", lambda p: p.update(element_count=25)),
    "duplicate": ("duplicate subgroups",
                  lambda p: p["subgroups"].append(p["subgroups"][1])),
    # S:4's identity is element 0, so its trivial subgroup is the mask 1
    "no trivial": ("missing trivial or full subgroup",
                   lambda p: p["subgroups"].remove(mask_to_hex(1, 24))),
    "no full": ("missing trivial or full subgroup",
                lambda p: p["subgroups"].remove(mask_to_hex((1 << 24) - 1, 24))),
    # 3 elements, a divisor of 24, two of them past the last element
    "bit outside G": ("invalid subgroup bitset",
                      lambda p: p["subgroups"].append(mask_to_hex(1 | 3 << 24, 24))),
    # elements 0..4, inside G, but 5 does not divide 24
    "size": ("invalid subgroup bitset",
             lambda p: p["subgroups"].append(mask_to_hex((1 << 5) - 1, 24))),
}


@pytest.mark.parametrize("rule", list(CHEAP_RULE_MUTATIONS))
def test_resealed_cache_failing_a_cheap_rule_is_recomputed(capsys, tmp_path, rule):
    # a sealed S:4 file broken in one rule and sealed again: ignored with
    # a warning naming the rule, the query prints what a cold run prints,
    # and the file is rewritten as freshly sealed
    argv = ["table", "S:4", "--aut", "inn"]
    cold_dir, cache_dir = tmp_path / "cold", tmp_path / "cache"
    code, cold = run_cli(capsys, *argv, "--cache-dir", str(cold_dir))
    assert code == 0
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(cache_dir))
    path = cache_path(cache_dir, "S:4")
    sealed = path.read_bytes()
    message, mutate = CHEAP_RULE_MUTATIONS[rule]
    payload = json.loads(sealed)
    del payload["sha256"]
    mutate(payload)
    path.write_bytes(payload_bytes(seal(payload)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: {message}"]
    assert path.read_bytes() == sealed
    assert path.read_bytes() == cache_path(cold_dir, "S:4").read_bytes()


def test_unexpected_error_exits_2(capsys, monkeypatch):
    def boom(args):
        raise KeyError(3)
    monkeypatch.setattr(cli, "cmd_table", boom)
    assert cli.main(["table", "S:4"]) == 2
    assert capsys.readouterr().err == "error: KeyError: 3\n"


# -- relation reads ------------------------------------------------------------

# Every command that reads lattice numbers: sigma, maximals, exact counts,
# down-set sums and Moebius columns.
RELATION_COMMANDS = [
    ("check-mu-lambda",),
    ("table", "--aut", "inn"),
    ("sigma-table",),
    ("prob", "--t", "2"),
    ("phi", "--t", "2", "--via", "hall"),
    ("phi", "--t", "2", "--via", "classes", "--aut", "inn"),
    ("phi-star", "--t", "2", "--via", "classes", "--aut", "inn"),
    ("beta", "--t-max", "2"),
]


def _assert_class_rows_only(lat):
    assert lat._up is None and lat._down is None
    assert set(lat._upeq) <= set(lat.class_representatives())


@pytest.mark.parametrize("argv", RELATION_COMMANDS, ids=" ".join)
def test_commands_read_only_class_representative_rows(capsys, monkeypatch, argv):
    """No engine path decodes the relation of every subgroup: after each
    command on A:7 the lattice has built neither `up` nor `down`, and upeq
    rows of class representatives alone."""
    enumerated = lattice("A:7")
    G = enumerated.group
    loaded = []

    def load(args):
        lat = SubgroupLattice(G, list(enumerated.subgroups),
                              [orbit for _, orbit in enumerated.conjugacy_classes[0]])
        loaded.append(lat)
        return G, lat

    monkeypatch.setattr(cli, "_load_group_and_lattice", load)
    code, _ = run_cli(capsys, argv[0], "A:7", *argv[1:])
    assert code == 0
    [lat] = loaded
    _assert_class_rows_only(lat)


def test_cached_lattice_finds_one_witness_per_class(capsys, monkeypatch, tmp_cache):
    """A lattice read from the cache has no witnesses; the commands search
    one for each class representative and for no other subgroup."""
    enumerated = lattice("A:7")
    save_lattice(enumerated, tmp_cache)
    classes = len(enumerated.conjugacy_classes[0])
    calls = [0]
    loaded = []
    find_witness, load = lattice_module.find_witness, cli.load_lattice

    def counted(*args):
        calls[0] += 1
        return find_witness(*args)

    def kept(*args):
        loaded.append(load(*args))
        return loaded[-1]

    monkeypatch.setattr(lattice_module, "find_witness", counted)
    monkeypatch.setattr(cli, "load_lattice", kept)
    for argv in RELATION_COMMANDS:
        calls[0] = 0
        code, _ = run_cli(capsys, argv[0], "A:7", *argv[1:], "--cache-dir", str(tmp_cache))
        assert code == 0
        assert calls[0] <= classes, argv
        _assert_class_rows_only(loaded[-1])
    assert len(loaded) == len(RELATION_COMMANDS)
