import hashlib
import hmac
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import moebius.groups as groups_module
from helpers import lattice, sublattice
from moebius import __version__, cli, counting
from moebius.cache import (KEY_FILE, cache_path, class_line, file_lines, load_lattice,
                           read_key, save_lattice)


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


@pytest.mark.parametrize("command,count", [("phi", "24^20000"), ("phi-star", "30^20000")])
def test_brute_scan_past_its_budget_names_the_power(capsys, command, count):
    # the count is named as a power, never printed in full (24^20000 has
    # 27 605 digits)
    code = cli.main([command, "S:4", "--t", "20000", "--via", "brute"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200
    assert captured.err.startswith("error: ")
    assert f"exceeded budget: {count} > 100000000" in captured.err


@pytest.mark.parametrize("command", ["phi", "phi-star"])
def test_brute_scan_is_no_recursion_as_deep_as_t(capsys, command):
    values = {}
    for via in ("brute", "hall"):
        code, out = run_cli(capsys, command, "C:1", "--t", "5000", "--via", via)
        assert code == 0
        values[via] = json.loads(out)["value"]
    assert values == {"brute": "1", "hall": "1"}


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


@pytest.fixture
def default_int_digits():
    """CPython's default bound on int-to-str conversion for the test, as a
    fresh process has it; the bound found is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints to str at any length")
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(found)


def test_exact_counts_print_whatever_their_length(capsys, default_int_digits):
    # phi(S_4, 4000) has 5521 digits, past the 4300 that CPython converts
    # by default: the CLI lifts the bound, and prints the exact values
    outs = {cmd: run_cli(capsys, cmd, "S:4", "--t", "4000") for cmd in ("phi", "phi-star", "prob")}
    assert [code for code, _ in outs.values()] == [0, 0, 0]
    sys.set_int_max_str_digits(0)           # to read them back here
    lat = lattice("S:4")
    assert json.loads(outs["phi"][1])["value"] == str(counting.phi_hall(lat, 4000))
    assert json.loads(outs["phi-star"][1])["value"] == str(counting.phi_star_hall(lat, 4000))
    payload = json.loads(outs["prob"][1])
    assert (Fraction(payload["P"]), Fraction(payload["P_star"])) == \
        counting.gen_probabilities(lat, 4000)
    assert len(payload["P"]) > 4300


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


@pytest.mark.parametrize("argv,point", [
    (["table", "perm:[(2,3)(3,4)]"], 3),
    (["table", "S:4", "--aut", "inn:gens=[(1,2)(2,3)]"], 2),
])
def test_a_point_in_two_cycles_is_named_as_written(capsys, argv, point):
    # cycle points are 1-based in a spec and in gens=, and so in the error;
    # the position is the second cycle's, in the spec or in the gens= word
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    position = 11 if argv[1].startswith("perm:") else 5
    assert captured.err == f"error: point {point} appears in two cycles (at position {position})\n"


@pytest.mark.parametrize("spec,message", [
    ("perm:[(1,2)(3,3)]", "repeated point inside a cycle (at position 11)"),
    ("C:2xperm:[(1,2);(1,2)(x)]", "expected a cycle '(a,b,...)' (at position 21)"),
    ("perm:[(2,3)(3,4)]", "point 3 appears in two cycles (at position 11)"),
    ("C:2x perm: [ (1,2) ; (1,1)]", "repeated point inside a cycle (at position 21)"),
])
def test_perm_errors_name_the_faulty_cycle_in_the_spec(capsys, spec, message):
    # the position counts the whole spec: the atoms before, "perm:[", the
    # words before and the blanks
    code = cli.main(["table", spec])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


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


def test_verify_tuple_budget_gates_only_the_element_scan(capsys):
    # no tuple of S4 fits a budget of 1, but the relative check scans none
    code, out = run_cli(capsys, "verify", "S:4", "--t-max", "2", "--tuple-budget", "1")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == 36 and not any(n.startswith("phi-brute") for n in names)
    assert {"name": "phi-relative-N4-t2", "ok": True, "detail": "12 vs 12"} in payload["checks"]


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


@pytest.mark.parametrize("argv,flag", [
    (["table", "S:4", "--subgroup-budget", "-1"], "--subgroup-budget"),
    (["table", "S:4", "--subgroup-budget", "0"], "--subgroup-budget"),
    (["phi", "S:4", "--t", "2", "--via", "brute", "--tuple-budget", "-5"], "--tuple-budget"),
    (["verify", "S:4", "--tuple-budget", "0"], "--tuple-budget"),
    (["table", "S:4", "--order-cap", "0"], "--order-cap"),
    (["cache", "build", "S:4", "--order-cap", "-3"], "--order-cap"),
])
def test_cap_or_budget_below_one_is_a_usage_error(capsys, monkeypatch, argv, flag):
    # refused before any group is built, with one line naming the flag: a
    # budget of -1 was taken as a budget, and the run reported "0 > -1"
    built = []
    monkeypatch.setattr(cli, "build_from_spec", lambda *a, **k: built.append(a))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and built == []
    assert captured.err == f"error: {flag} must be at least 1, got {argv[-1]}\n"


# each subcommand's required arguments, with whether its handler reads
# --format and --tuple-budget
SUBCOMMAND_FLAGS = {
    ("table", "S:4"): (True, False),
    ("sigma-table", "S:4"): (True, False),
    ("phi", "S:4", "--t", "1"): (False, True),
    ("phi-rel", "S:4", "--normal", "full", "--t", "1"): (False, False),
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


@pytest.mark.parametrize("argv,message", [
    (["table", ""], "empty spec (at position 0)"),
    (["table", "S:4x"], "empty atom (at position 4)"),
    (["table", "S:4]"], "unbalanced ']' (at position 3)"),
    (["table", "perm:[(1,2)"], "unbalanced '[' (at position 10)"),
    (["table", "perm:(1,2)"], "perm atom needs [ ... ] (at position 0)"),
    (["table", "perm:[;]"], "perm atom lists no generators (at position 0)"),
    (["table", "perm:[()]"], "perm atom mentions no points (at position 0)"),
    (["table", "Z:4"], "unknown atom kind 'Z' (at position 0)"),
    (["table", "foo"], "unknown atom 'foo' (at position 0)"),
    (["table", "Q:4"], "only Q:8 is supported (at position 0)"),
    (["table", "C:0"], "atom parameter must be positive (at position 0)"),
    (["table", "S:4xC:"], "atom parameter '' is not an integer (at position 4)"),
    (["phi-rel", "S:4", "--normal", "bogus", "--t", "2"], "unknown subgroup selector 'bogus'"),
    (["phi-rel", "S:4", "--normal", "order=5", "--t", "2"],
     "no subgroup matches selector 'order=5'"),
    (["table", "S:4", "--aut", "bogus"], "unknown automorphism spec 'bogus'"),
    (["cache", "info", "S:4"], "cache commands need --cache-dir or MOEBIUS_CACHE_DIR"),
    (["cache", "info", "--cache-dir", "DIR"], "cache info needs a group spec"),
    (["phi", "S:3", "--t", "65537"], "t must be at most 65536"),
    (["phi", "S:3", "--t", "65537", "--via", "classes", "--aut", "inn"],
     "t must be at most 65536"),
    (["phi-star", "S:3", "--t", "65537"], "t must be at most 65536"),
    (["phi-rel", "S:3", "--normal", "order=3", "--t", "65537"], "t must be at most 65536"),
    (["prob", "S:3", "--t", "65537"], "t must be at most 65536"),
    (["strana", "S:3", "--t", "65537"], "t must be at most 65536"),
    (["phi-rel", "S:4", "--normal", "order=12#", "--t", "2"],
     "unknown subgroup selector 'order=12#'"),
    (["phi-rel", "S:4", "--normal", "normal-order=2#y", "--t", "2"],
     "unknown subgroup selector 'normal-order=2#y'"),
    (["table", "S:3", "--aut", "inn:order=x"], "unknown subgroup selector 'order=x'"),
    (["beta", "S:4", "--t-max", "362"], "t_max must be at most 361"),
    (["verify", "S:4", "--t-max", "362"], "t_max must be at most 361"),
    (["beta", "S:4", "--t-max", "65536"], "t_max must be at most 361"),
    (["table", "perm:[(1,1000000)]"], "perm atom degree 1000000 exceeds 65536 (at position 0)"),
    (["phi", "S:3", "--t", "0"], "t must be a positive integer"),
    (["phi", "S:3", "--t", "0", "--via", "brute"], "t must be a positive integer"),
])
def test_refused_inputs_print_one_error_line(capsys, monkeypatch, tmp_path, argv, message):
    # each refusal exits 2 with an empty stdout and exactly one line
    monkeypatch.delenv("MOEBIUS_CACHE_DIR", raising=False)
    code = cli.main([str(tmp_path) if a == "DIR" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("spec,orders", [("D:4", [1, 8, 8, 2, 2]), ("S:4", [1, 24, 24, 1, 1])])
def test_named_selectors(spec, orders):
    lat = lattice(spec)
    G = lat.group
    picked = [cli.select_subgroup(lat, s) for s in ("trivial", "full", "G", "center", "frattini")]
    assert [s.order for s in picked] == orders
    assert [s.mask for s in picked[:4]] == [1 << G.identity, G.full_mask(), G.full_mask(),
                                            G.center_mask]


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

def read_cache(path) -> dict:
    """A cache file's head fields, plus a "classes" list of its class lines."""
    head, *classes, seal = path.read_text().splitlines()
    assert seal.startswith("sha256 ")
    return {**json.loads(head), "classes": classes}


def cache_lines(payload: dict, cache_dir) -> list[bytes]:
    """The lines `file_lines` gives for a payload as `read_cache` returns
    it, sealed with the key of `cache_dir`, the seal line last."""
    head = {k: v for k, v in payload.items() if k != "classes"}
    return list(file_lines(head, payload["classes"], read_key(cache_dir)))


def s4_class(order: int) -> int:
    """The representative of S:4's class of more than three subgroups of
    the given order (order 2: the six transpositions; order 6: the four
    S_3)."""
    lat = lattice("S:4")
    return next(r for r in lat.class_representatives()
                if lat.subgroups[r].order == order and len(lat.conjugacy_orbit(r)) > 3)


def s4_class_line(order: int) -> str:
    return class_line(lattice("S:4").subgroups[s4_class(order)])


def hex_bitset(sub) -> str:
    """A subgroup's bitset as earlier formats wrote it: the lowercase hex
    of its little-endian bytes, padded to 8-byte words (8 bytes for S:4)."""
    return sub.mask.to_bytes(8, "little").hex()


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
    # the file is streamed through `file_lines`: the canonical JSON head,
    # one line per conjugacy class in lattice order, the representative's
    # witness ids in decimal and single spaces (the trivial subgroup's line
    # is empty), and a seal line holding the HMAC-SHA256 of every byte
    # before it under the directory's key
    lat = lattice(spec)
    order = lat.group.order
    head = {"element_count": order, "engine_version": __version__, "spec": spec}
    data = save_lattice(lat, tmp_cache).read_bytes()
    key = read_key(tmp_cache)
    assert len(key) == 32
    reps = lat.class_representatives()
    assert data == b"".join(file_lines(head, (class_line(lat.subgroups[r]) for r in reps),
                                       key))
    *body, last = data.splitlines(keepends=True)
    assert body[0] == json.dumps(head, separators=(",", ":")).encode() + b"\n"
    assert len(body) == 1 + len(reps)
    assert body[1] == b"\n"
    for r, line in zip(reps, body[1:]):
        assert line == " ".join(map(str, lat.subgroups[r].gens)).encode() + b"\n"
    mac = hmac.new(key, b"".join(body), hashlib.sha256)
    assert last == f"sha256 {mac.hexdigest()}\n".encode()


def test_one_line_cache_file_is_rewritten(capsys, tmp_path):
    # a file in the earlier format, one JSON line holding the subgroups'
    # hex bitsets and its own "sha256" field, has no seal line: one seal
    # warning, the output of a cold run, and the file rewritten in the
    # line format
    argv = ["table", "S:4", "--aut", "inn"]
    cold_dir, cache_dir = tmp_path / "cold", tmp_path / "cache"
    code, cold = run_cli(capsys, *argv, "--cache-dir", str(cold_dir))
    assert code == 0

    def canonical(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    payload = {k: v for k, v in read_cache(cache_path(cold_dir, "S:4")).items()
               if k != "classes"}
    payload["subgroups"] = [hex_bitset(s) for s in lattice("S:4").subgroups]
    payload["sha256"] = hashlib.sha256(canonical(payload).encode()).hexdigest()
    cache_dir.mkdir()
    path = cache_path(cache_dir, "S:4")
    path.write_text(canonical(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: missing or wrong sha256 seal"]
    cold_file = cache_path(cold_dir, "S:4")
    assert path.read_bytes() == b"".join(cache_lines(read_cache(cold_file), cache_dir))


def test_bitset_line_cache_file_is_rewritten(capsys, tmp_path):
    # a file in the earlier line format, each class line a hex bitset and
    # then the witness, sealed under the directory's key: its first class
    # line, the trivial subgroup's 0100000000000000, reads as an id past G,
    # so one warning, the output of a cold run, and the file rewritten as
    # witness lines
    argv = ["table", "S:4", "--aut", "inn"]
    cold_dir, cache_dir = tmp_path / "cold", tmp_path / "cache"
    code, cold = run_cli(capsys, *argv, "--cache-dir", str(cold_dir))
    assert code == 0
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(cache_dir))
    path = cache_path(cache_dir, "S:4")
    payload = read_cache(path)
    lat = lattice("S:4")
    reps = [lat.subgroups[r] for r in lat.class_representatives()]
    payload["classes"] = [" ".join([hex_bitset(s), *map(str, s.gens)]) for s in reps]
    path.write_bytes(b"".join(cache_lines(payload, cache_dir)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: witness outside the group"]
    assert read_cache(path)["classes"] == s4_class_lines()
    cold_file = cache_path(cold_dir, "S:4")
    assert path.read_bytes() == b"".join(cache_lines(read_cache(cold_file), cache_dir))


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


def test_warm_query_obeys_the_subgroup_budget(capsys, tmp_cache):
    """A cached lattice is rebuilt under the query's --subgroup-budget, as
    a fresh one is: past it, the cold run, the warm run and `cache info`
    each print the same one error line, with no warning, and the file is
    left as it is.  S:4 has 30 subgroups."""
    cache = ["--cache-dir", str(tmp_cache)]
    path = cache_path(tmp_cache, "S:4")

    def run(*argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, *cache])
        assert caught == []
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    refused = (2, "", "error: subgroup enumeration exceeded budget: 6 > 5\n")
    assert run("table", "S:4", "--subgroup-budget", "5") == refused
    assert not path.exists()
    cold = run("table", "S:4", "--subgroup-budget", "30")
    assert cold[0] == 0
    sealed = path.read_bytes()
    assert run("table", "S:4", "--subgroup-budget", "5") == refused
    assert run("cache", "info", "S:4", "--subgroup-budget", "5") == refused
    assert path.read_bytes() == sealed
    assert run("table", "S:4", "--subgroup-budget", "30") == cold


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
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    payload = read_cache(path)
    payload["engine_version"] = "0.0.0"
    path.write_bytes(b"".join(cache_lines(payload, tmp_cache)))
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


def test_cache_clear_removes_the_files_of_killed_writes(capsys, tmp_cache):
    # a write killed before its rename (SIGKILL runs no cleanup) leaves
    # its temporary file, named after the cache file and the writer's pid;
    # the key and a killed key write's file go too, and are not counted
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    partial = path.with_name(f"{path.name}.4242.tmp")
    partial.write_bytes(path.read_bytes()[:100])
    (tmp_cache / f"{KEY_FILE}.4242.tmp").write_bytes(b"part")
    assert (tmp_cache / KEY_FILE).exists()
    other = tmp_cache / "notes.txt"
    other.write_text("kept")
    code, out = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_cache))
    assert code == 0 and json.loads(out)["cleared"] == 2
    assert list(tmp_cache.iterdir()) == [other]


def test_cache_clear_in_a_dir_named_like_a_glob(capsys, tmp_path):
    # "[1]" is a glob character class: the path is matched literally
    cache_dir = str(tmp_path / "d[1]")
    run_cli(capsys, "cache", "build", "S:3", "--cache-dir", cache_dir)
    code, out = run_cli(capsys, "cache", "info", "S:3", "--cache-dir", cache_dir)
    assert json.loads(out)["cached"]
    code, out = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
    assert code == 0 and json.loads(out)["cleared"] == 1
    assert not cache_path(cache_dir, "S:3").exists()


@pytest.mark.parametrize("order", [2, 6])
def test_dropped_class_line_is_caught_by_the_seal(capsys, tmp_path, order):
    # a class line deleted by hand, seal left as it was: a lattice without
    # the class would pass every other rule, as each line is a whole class,
    # so the seal refuses it; every command warns and prints what a cold
    # run prints, and the first rewrites the file
    cache_dir = tmp_path / "cache"
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(cache_dir))
    path = cache_path(cache_dir, "S:4")
    sealed = path.read_bytes()
    payload = read_cache(path)
    payload["classes"].remove(s4_class_line(order))
    edited = b"".join(cache_lines(payload, cache_dir)[:-1]
                      + [sealed.splitlines(keepends=True)[-1]])
    for argv in (["table", "S:4"],
                 ["table", "S:4", "--aut", "inn"],
                 ["phi", "S:4", "--t", "2"],
                 ["phi", "S:4", "--t", "2", "--via", "classes", "--aut", "inn"],
                 ["check-mu-lambda", "S:4"],
                 ["sigma-table", "S:4"]):
        cold = cli.main(argv), capsys.readouterr()
        path.write_bytes(edited)
        with pytest.warns(UserWarning, match="sha256 seal"):
            code = cli.main(argv + ["--cache-dir", str(cache_dir)])
        assert (code, capsys.readouterr()) == cold, argv
        assert path.read_bytes() == sealed, argv


def test_hand_edited_cache_is_recomputed(capsys, tmp_cache):
    # the line of the four S_3 of S:4 deleted by hand, seal left as it
    # was: a whole conjugacy class gone passes every other rule, so only
    # the seal tells; phi(S_4, 2) is 216, not the 288 of the edited lattice
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    sealed = path.read_bytes()
    payload = read_cache(path)
    payload["classes"].remove(s4_class_line(6))
    old_seal = sealed.splitlines(keepends=True)[-1]
    path.write_bytes(b"".join(cache_lines(payload, tmp_cache)[:-1] + [old_seal]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "phi", "S:4", "--t", "2", "--cache-dir", str(tmp_cache))
    assert code == 0 and json.loads(out)["value"] == "216"
    assert any("sha256 seal" in str(w.message) for w in caught)
    assert path.read_bytes() == sealed      # recomputed and rewritten


def s4_class_lines() -> list[str]:
    """The class lines of S:4, one per conjugacy class, in lattice order."""
    lat = lattice("S:4")
    return [class_line(lat.subgroups[r]) for r in lat.class_representatives()]


# seals a forger can make without the directory's key: the unkeyed SHA-256
# of an earlier format, and an HMAC under some other key
FORGED_SEALS = {
    "unkeyed": lambda body: hashlib.sha256(body),
    "other key": lambda body: hmac.new(bytes(32), body, hashlib.sha256),
}


@pytest.mark.parametrize("seal", list(FORGED_SEALS))
@pytest.mark.parametrize("dropped", range(11))
def test_dropped_class_line_resealed_without_the_key_is_recomputed(capsys, tmp_path,
                                                                     dropped, seal):
    # each class line of S:4 dropped in turn and the file sealed again
    # without the key: every line left is a whole class, so only the keyed
    # seal tells; the load warns once, the query prints what an uncached
    # run prints, and the file is rewritten as freshly sealed
    argv = ["phi", "S:4", "--t", "2"]
    cold = cli.main(argv), capsys.readouterr()
    cache_dir = tmp_path / "cache"
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(cache_dir))
    path = cache_path(cache_dir, "S:4")
    sealed = path.read_bytes()
    payload = read_cache(path)
    assert payload["classes"] == s4_class_lines() and len(payload["classes"]) == 11
    del payload["classes"][dropped]
    body = b"".join(cache_lines(payload, cache_dir)[:-1])
    path.write_bytes(body + f"sha256 {FORGED_SEALS[seal](body).hexdigest()}\n".encode())
    with pytest.warns(UserWarning, match="sha256 seal"):
        assert load_lattice(lattice("S:4").group, cache_dir) is None
    assert path.read_bytes() != sealed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--cache-dir", str(cache_dir)])
    assert (code, capsys.readouterr()) == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: missing or wrong sha256 seal"]
    assert path.read_bytes() == sealed


def test_cache_without_its_key_is_recomputed(capsys, tmp_cache):
    # the key file gone: no file of the directory can be trusted, so the
    # load warns once, the query prints what a cold run prints, and the
    # rewrite makes a new key that the next query reads without a warning
    argv = ["table", "S:4", "--aut", "inn"]
    cold = cli.main(argv), capsys.readouterr()
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    old_key = read_key(tmp_cache)
    (tmp_cache / KEY_FILE).unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--cache-dir", str(tmp_cache)])
    assert (code, capsys.readouterr()) == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: missing or wrong sha256 seal"]
    key = read_key(tmp_cache)
    assert key is not None and key != old_key
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (cli.main(argv + ["--cache-dir", str(tmp_cache)]), capsys.readouterr()) == cold


def test_cache_key_is_private_and_made_once(tmp_cache):
    # the key is 32 bytes of mode 0600 made at the first write, and later
    # writes into the directory seal with it
    save_lattice(lattice("S:4"), tmp_cache)
    key_path = tmp_cache / KEY_FILE
    key = key_path.read_bytes()
    assert len(key) == 32 and key_path.stat().st_mode & 0o777 == 0o600
    save_lattice(lattice("S:3"), tmp_cache)
    assert key_path.read_bytes() == key
    assert sorted(p.name for p in tmp_cache.iterdir()) == sorted(
        [KEY_FILE, cache_path(tmp_cache, "S:4").name, cache_path(tmp_cache, "S:3").name])


def test_concurrent_writers_seal_with_the_first_key_linked(monkeypatch, tmp_cache):
    # another writer links its key into place between this writer's read
    # and its own link: this writer seals with the other's key, and its
    # temporary key file is gone
    tmp_cache.mkdir()
    theirs = bytes(range(32))
    link = os.link

    def raced(src, dst):
        Path(dst).write_bytes(theirs)
        return link(src, dst)

    monkeypatch.setattr(os, "link", raced)
    path = save_lattice(lattice("S:4"), tmp_cache)
    assert read_key(tmp_cache) == theirs
    assert sorted(p.name for p in tmp_cache.iterdir()) == sorted([KEY_FILE, path.name])
    monkeypatch.undo()
    assert load_lattice(lattice("S:4").group, tmp_cache) is not None


def test_damaged_cache_key_is_replaced(capsys, tmp_cache):
    # a key file of the wrong length is no key: the load fails the seal,
    # and the rewrite replaces the key whole
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    (tmp_cache / KEY_FILE).write_bytes(b"short")
    with pytest.warns(UserWarning, match="sha256 seal"):
        code, out = run_cli(capsys, "cache", "info", "S:4", "--cache-dir", str(tmp_cache))
    assert json.loads(out)["cached"] is False
    with pytest.warns(UserWarning, match="sha256 seal"):
        run_cli(capsys, "table", "S:4", "--cache-dir", str(tmp_cache))
    assert len(read_key(tmp_cache)) == 32
    code, out = run_cli(capsys, "cache", "info", "S:4", "--cache-dir", str(tmp_cache))
    assert json.loads(out)["cached"] is True


@pytest.mark.parametrize("mutate", [
    lambda lines: lines.pop(),
    lambda lines: lines.__setitem__(-1, f"sha256 {'0' * 64}\n".encode()),
    lambda lines: lines.append(lines[-1]),
], ids=["unsealed", "wrong seal", "line after the seal"])
def test_unsealed_or_wrongly_sealed_cache_is_rewritten(capsys, tmp_cache, mutate):
    # class lines intact, seal missing or wrong, or a line after it: ignored with
    # a warning, and the next query rewrites the sealed file
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(tmp_cache))
    path = cache_path(tmp_cache, "S:4")
    sealed = path.read_bytes()
    lines = cache_lines(read_cache(path), tmp_cache)
    assert b"".join(lines) == sealed
    mutate(lines)
    path.write_bytes(b"".join(lines))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "cache", "info", "S:4", "--cache-dir", str(tmp_cache))
    assert code == 0 and json.loads(out)["cached"] is False
    assert any("sha256 seal" in str(w.message) for w in caught)
    with pytest.warns(UserWarning, match="sha256 seal"):
        code, _ = run_cli(capsys, "table", "S:4", "--cache-dir", str(tmp_cache))
    assert code == 0 and path.read_bytes() == sealed
    assert sorted(p.name for p in tmp_cache.iterdir()) == sorted([path.name, KEY_FILE])


def _conjugate_line(p):
    """A second line of the transpositions' class: another member, with
    its own witness."""
    lat = lattice("S:4")
    j = lat.conjugacy_orbit(s4_class(2))[1]
    p["classes"].append(class_line(lat.subgroups[j]))


# one mutation per rule of `load_lattice`, each re-sealed, so only the rule
# itself can refuse the file
CHEAP_RULE_MUTATIONS = {
    "spec": ("spec mismatch", lambda p: p.update(spec="S:5")),
    "element count": ("element count mismatch", lambda p: p.update(element_count=25)),
    "unparsable line": ("invalid literal for int() with base 10: b'x'",
                        lambda p: p["classes"].append("1 x")),
    "duplicate": ("duplicate subgroups", _conjugate_line),
    # the trivial subgroup's witness is empty, and so is its line
    "no trivial": ("missing trivial or full subgroup", lambda p: p["classes"].remove("")),
    "no full": ("missing trivial or full subgroup",
                lambda p: p["classes"].remove(s4_class_lines()[-1])),
    "witness outside G": ("witness outside the group",
                          lambda p: p["classes"].append("3 24")),
    # an earlier format: one bare hex bitset per subgroup, no witnesses;
    # the trivial subgroup's line, 0100000000000000, reads as the id 10^14
    "old format": ("witness outside the group",
                   lambda p: p.update(classes=[hex_bitset(s) for s in lattice("S:4").subgroups])),
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
    payload = read_cache(path)
    mutate(payload)
    path.write_bytes(b"".join(cache_lines(payload, cache_dir)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and out == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: {message}"]
    assert path.read_bytes() == sealed
    cold_file = cache_path(cold_dir, "S:4")
    assert sealed == b"".join(cache_lines(read_cache(cold_file), cache_dir))


# files no writer gives, each broken before its class lines are read: the
# seal is checked over every byte before the last line, so a cut or an
# unparsable line under a stale seal fails the seal, not the line
MALFORMED_FILES = {
    "empty": ("Expecting value: line 1 column 1 (char 0)", lambda lines: []),
    "head alone": ("missing or wrong sha256 seal", lambda lines: lines[:1]),
    "cut in a class line": ("missing or wrong sha256 seal",
                            lambda lines: [*lines[:3], lines[3][:len(lines[3]) // 2]]),
    "wrong seal, unparsable line": ("missing or wrong sha256 seal",
                                    lambda lines: [*lines[:2], b"1 x\n", *lines[3:]]),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_cache_file_is_rewritten(capsys, tmp_path, case):
    # one warning with the loader's text, the output of a cold run, and
    # the file rewritten as freshly sealed
    argv = ["table", "S:4", "--aut", "inn"]
    cold = cli.main(argv), capsys.readouterr()
    cache_dir = tmp_path / "cache"
    run_cli(capsys, "cache", "build", "S:4", "--cache-dir", str(cache_dir))
    path = cache_path(cache_dir, "S:4")
    sealed = path.read_bytes()
    message, mutate = MALFORMED_FILES[case]
    path.write_bytes(b"".join(mutate(sealed.splitlines(keepends=True))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([*argv, "--cache-dir", str(cache_dir)])
    assert (code, capsys.readouterr()) == cold
    assert [str(w.message) for w in caught] == \
        [f"ignoring unusable cache {path}: {message}"]
    assert path.read_bytes() == sealed


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_cache):
    """The parser is built once per process, and --cache-dir's default is
    read from MOEBIUS_CACHE_DIR at each call, not when it was built."""
    def info():
        code = cli.main(["cache", "info", "S:4"])
        return code, capsys.readouterr()

    cli.build_parser.cache_clear()
    monkeypatch.setenv("MOEBIUS_CACHE_DIR", str(tmp_cache))
    code, out = run_cli(capsys, "cache", "build", "S:4")
    assert code == 0 and json.loads(out)["path"] == str(cache_path(tmp_cache, "S:4"))
    monkeypatch.delenv("MOEBIUS_CACHE_DIR")
    assert info() == (2, ("", "error: cache commands need --cache-dir or MOEBIUS_CACHE_DIR\n"))
    monkeypatch.setenv("MOEBIUS_CACHE_DIR", str(tmp_cache))
    code, (out, err) = info()
    assert (code, json.loads(out)["cached"], err) == (0, True, "")
    assert cli.build_parser.cache_info().misses == 1


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
    # only the elements of the representatives' witnesses get columns
    assert lat._up is None and lat._down is None
    witnesses = {x for r in lat.class_representatives() for x in lat.subgroups[r].gens}
    assert set(lat._columns) <= witnesses


@pytest.mark.parametrize("argv", RELATION_COMMANDS, ids=" ".join)
def test_commands_read_only_class_representative_rows(capsys, monkeypatch, argv):
    """No engine path decodes the relation of every subgroup: after each
    command on A:7 the lattice has built neither `up` nor `down`, and
    element columns for the class representatives' witnesses alone."""
    enumerated = lattice("A:7")
    G = enumerated.group
    loaded = []

    def load(args):
        lat = sublattice(enumerated)
        loaded.append(lat)
        return G, lat

    monkeypatch.setattr(cli, "_load_group_and_lattice", load)
    code, _ = run_cli(capsys, argv[0], "A:7", *argv[1:])
    assert code == 0
    [lat] = loaded
    _assert_class_rows_only(lat)


def test_warm_query_searches_no_witness(capsys, monkeypatch, tmp_cache):
    """A lattice read from the cache holds every witness from its class
    walks, as a fresh one does: no command searches one."""
    enumerated = lattice("A:7")
    save_lattice(enumerated, tmp_cache)
    calls = [0]
    loaded = []
    find_witness, load = groups_module.find_witness, cli.load_lattice

    def counted(*args):
        calls[0] += 1
        return find_witness(*args)

    def kept(*args):
        loaded.append(load(*args))
        return loaded[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("moebius") and getattr(module, "find_witness", None) is find_witness:
            monkeypatch.setattr(module, "find_witness", counted)
    monkeypatch.setattr(cli, "load_lattice", kept)
    for argv in RELATION_COMMANDS:
        calls[0] = 0
        code, _ = run_cli(capsys, argv[0], "A:7", *argv[1:], "--cache-dir", str(tmp_cache))
        assert code == 0
        assert calls[0] == 0, argv
        _assert_class_rows_only(loaded[-1])
    assert len(loaded) == len(RELATION_COMMANDS)


def test_perfbench_spans_find_every_name_they_wrap():
    # perfbench/spans.py wraps engine functions, methods and lazy properties
    # by name; installing its wrappers in a child process (the rebinding
    # stays out of this one) fails on any name the engine no longer has
    root = Path(__file__).resolve().parents[1]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "perfbench"), str(src)]))
    code = "import spans; spans.install(spans.Tracer(''))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
