"""Command-line surface.

Subcommands: table, phi, phi-rel, phi-star, sigma-table, prob,
check-mu-lambda, beta, tau, strana, verify, cache.  All numeric output
is rendered as decimal strings; JSON payloads re-parse losslessly.
Exit codes: 0 success / property holds, 1 property fails or identity
violated, 2 usage or computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, counting
from .automorphisms import (close_automorphisms, automorphism_from_images,
                            full_automorphism_group, inner_automorphisms,
                            trivial_automorphisms)
from .cache import cache_path, clear_cache, default_cache_dir, load_lattice, save_lattice
from .classposet import build_class_poset
from .errors import EngineError
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, build_from_spec,
                     closure, commutator_subgroup, is_normal_mask)
from .lattice import DEFAULT_SUBGROUP_BUDGET, SubgroupLattice, enumerate_subgroups
from .perm import parse_cycles


def _element_index(G: FiniteGroup, text: str) -> int:
    """The index in G of the permutation written in 1-based cycles;
    ValueError, naming it, when it is not an element of G."""
    p = parse_cycles(text, degree=G.degree)
    try:
        return G.index[p.images]
    except KeyError:
        raise ValueError(f"the permutation {p.cycle_string()} is not in the group") from None


def select_subgroup(lattice: SubgroupLattice, selector: str) -> Subgroup:
    """Resolve a subgroup selector.

    Grammar: trivial | full | derived | center | frattini |
    order=N[#K] | normal-order=N[#K] | gens=[cycles;cycles;...]
    """
    G = lattice.group
    sel = selector.strip()
    if sel == "trivial":
        return lattice.subgroups[lattice.trivial_id]
    if sel in ("full", "G"):
        return lattice.subgroups[lattice.top_id]
    if sel == "derived":
        d = commutator_subgroup(G)
        return lattice.subgroups[lattice.index[d.mask]]
    if sel == "center":
        return lattice.subgroups[lattice.index[G.center_mask]]
    if sel == "frattini":
        return lattice.frattini()
    if sel.startswith("order=") or sel.startswith("normal-order="):
        body = sel.split("=", 1)[1]
        k = 0
        if "#" in body:
            body, ks = body.split("#", 1)
            k = int(ks)
        order = int(body)
        ids = lattice.by_order.get(order, [])
        if sel.startswith("normal-order="):
            ids = [i for i in ids if is_normal_mask(G, lattice.subgroups[i].mask)]
        if not 0 <= k < len(ids):
            raise ValueError(f"no subgroup matches selector {selector!r}")
        return lattice.subgroups[ids[k]]
    if sel.startswith("gens=[") and sel.endswith("]"):
        words = [w for w in sel[len("gens=["):-1].split(";") if w.strip()]
        mask, _ = closure(G, [_element_index(G, w) for w in words])
        return lattice.subgroups[lattice.index[mask]]
    raise ValueError(f"unknown subgroup selector {selector!r}")


def parse_aut_spec(G: FiniteGroup, lattice: SubgroupLattice, text: str):
    """Resolve an automorphism-group spec.

    Grammar: A=1 | A=inn | A=inn:<subgroup-selector> | A=aut | A=maps:<file>
    (the leading "A=" may be omitted on the command line).
    """
    spec = text.strip()
    if spec.startswith("A="):
        spec = spec[2:]
    if spec == "1":
        return trivial_automorphisms(G)
    if spec == "inn":
        return inner_automorphisms(G)
    if spec.startswith("inn:"):
        K = select_subgroup(lattice, spec[len("inn:"):])
        return inner_automorphisms(G, K)
    if spec == "aut":
        return full_automorphism_group(G)
    if spec.startswith("maps:"):
        path = spec[len("maps:"):]
        gens, images = [], []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                src, arrow, dst = line.partition("->")
                if not (arrow and src.strip() and dst.strip()):
                    raise ValueError(f"maps line {lineno} is not "
                                     f"'<permutation> -> <permutation>': {line!r}")
                gens.append(_element_index(G, src))
                images.append(_element_index(G, dst))
        seed = automorphism_from_images(G, gens, images)
        return close_automorphisms(G, [seed])
    raise ValueError(f"unknown automorphism spec {text!r}")


def _load_group_and_lattice(args):
    G = build_from_spec(args.spec, cap=args.order_cap)
    lattice = None
    if args.cache_dir:
        lattice = load_lattice(G, args.cache_dir)
    if lattice is None:
        lattice = enumerate_subgroups(G, budget=args.subgroup_budget)
        if args.cache_dir:
            save_lattice(lattice, args.cache_dir)
    return G, lattice


def _print(text: str):
    sys.stdout.write(text + "\n")


def _write_table(cols: list[str], rows, fmt: str):
    """The table written piece by piece as `tables.render` makes it."""
    from .tables import render
    sys.stdout.writelines(render(cols, rows, fmt))
    sys.stdout.write("\n")


def _json_out(payload: dict):
    _print(json.dumps(payload, indent=2, sort_keys=False))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# -- subcommands ---------------------------------------------------------

def cmd_table(args) -> int:
    from .tables import class_table
    G, lattice = _load_group_and_lattice(args)
    aut = parse_aut_spec(G, lattice, args.aut)
    poset = build_class_poset(lattice, aut)
    _write_table(*class_table(poset, include_omega2=args.omega2), args.format)
    return 0


def cmd_sigma_table(args) -> int:
    from .tables import lattice_mu_table
    _, lattice = _load_group_and_lattice(args)
    _write_table(*lattice_mu_table(lattice), args.format)
    return 0


def cmd_phi(args) -> int:
    G, lattice = _load_group_and_lattice(args)
    if args.via == "hall":
        value = counting.phi_hall(lattice, args.t)
    elif args.via == "brute":
        value = counting.phi_bruteforce(G, args.t, budget=args.tuple_budget)
    else:
        aut = parse_aut_spec(G, lattice, args.aut)
        poset = build_class_poset(lattice, aut)
        value = counting.phi_via_classes(poset, args.t)
    _json_out({"group": args.spec, "A": args.aut, "t": args.t,
               "method": args.via, "value": str(value)})
    return 0


def cmd_phi_rel(args) -> int:
    G, lattice = _load_group_and_lattice(args)
    N = select_subgroup(lattice, args.normal)
    if args.via == "classes":
        aut = parse_aut_spec(G, lattice, args.aut)
        poset = build_class_poset(lattice, aut)
        value = counting.phi_relative_via_classes(poset, N, args.t)
    else:
        value = counting.phi_relative(lattice, N, args.t)
    _json_out({"group": args.spec, "A": args.aut, "normal": args.normal,
               "t": args.t, "method": args.via, "value": str(value)})
    return 0


def cmd_phi_star(args) -> int:
    G, lattice = _load_group_and_lattice(args)
    if args.via == "hall":
        value = counting.phi_star_hall(lattice, args.t)
    elif args.via == "brute":
        value = counting.phi_star_bruteforce(lattice, args.t,
                                             budget=args.tuple_budget)
    else:
        aut = parse_aut_spec(G, lattice, args.aut)
        poset = build_class_poset(lattice, aut)
        value = counting.phi_star(poset, args.t)
    _json_out({"group": args.spec, "A": args.aut, "t": args.t,
               "method": args.via, "value": str(value)})
    return 0


def cmd_prob(args) -> int:
    _, lattice = _load_group_and_lattice(args)
    p, pstar = counting.gen_probabilities(lattice, args.t)
    _json_out({"group": args.spec, "t": args.t,
               "P": _frac_str(p), "P_star": _frac_str(pstar)})
    return 0


def cmd_check_mu_lambda(args) -> int:
    from .mulambda import MuLambdaAnalyzer
    from .tables import display_key, name_subgroup
    G, lattice = _load_group_and_lattice(args)
    an = MuLambdaAnalyzer(G, lattice)
    report = an.report()
    if args.format == "json":
        _json_out({
            "group": args.spec,
            "passed": report.passed,
            "classes": [{
                "class": name_subgroup(lattice, r.rep_id),
                "order": r.order,
                "mu": str(r.mu),
                "lambda": str(r.lam),
                "mu_star": str(r.mu_star),
                "normalizer_order": r.normalizer_order,
                "ok": r.ok,
            } for r in report.rows],
        })
    else:
        cols = ["class", "order", "mu", "lambda", "mu_star", "|N_G(H)|", "ok"]
        shown = sorted(report.rows, key=lambda r: display_key(lattice.subgroups[r.rep_id]))
        rows = [[name_subgroup(lattice, r.rep_id), str(r.order), str(r.mu),
                 str(r.lam), str(r.mu_star), str(r.normalizer_order),
                 "yes" if r.ok else "NO"] for r in shown]
        _write_table(cols, rows, args.format)
        _print(f"verdict: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_beta(args) -> int:
    from .mulambda import MuLambdaAnalyzer
    from .tables import name_subgroup
    if args.t_max < 1:
        raise ValueError("t_max must be a positive integer")
    G, lattice = _load_group_and_lattice(args)
    an = MuLambdaAnalyzer(G, lattice)
    vectors = {t: an.beta_vector(t) for t in range(1, args.t_max + 1)}
    ids = an.cstar_classes()
    payload = {
        "group": args.spec,
        "classes": [name_subgroup(lattice, an.poset.classes[c][0]) for c in ids],
        "vectors": {str(t): [str(x) for x in v.entries] for t, v in vectors.items()},
    }
    if args.rank:
        payload["rank"] = an.beta_span_rank(args.t_max)
    _json_out(payload)
    return 0


def cmd_tau(args) -> int:
    from .mulambda import MuLambdaAnalyzer
    from .tables import name_subgroup
    G, lattice = _load_group_and_lattice(args)
    an = MuLambdaAnalyzer(G, lattice)
    report = an.report()
    spectrum = an.tau_spectrum()
    # the trailing fields are the experimental-evidence hook: whether a
    # nonempty violation set can still have an identically zero spectrum
    _json_out({
        "group": args.spec,
        "violating_classes": [name_subgroup(lattice, report.rows[c].rep_id)
                              for c in report.violations],
        "tau": {str(n): _frac_str(v) for n, v in spectrum.items()},
        "t_set_size": len(report.violations),
        "tau_all_zero": all(v == 0 for v in spectrum.values()),
    })
    return 0


def cmd_strana(args) -> int:
    from .mulambda import MuLambdaAnalyzer
    G, lattice = _load_group_and_lattice(args)
    an = MuLambdaAnalyzer(G, lattice)
    z = an.zero_sum_check(args.t)
    _json_out({
        "group": args.spec,
        "t": args.t,
        "full_sum": _frac_str(z.full_sum),
        "violation_sum": _frac_str(z.violation_sum),
        "is_zero": z.is_zero,
        "consistent": z.consistent,
    })
    return 0 if z.consistent else 1


def cmd_verify(args) -> int:
    from .verify import run_battery
    G, lattice = _load_group_and_lattice(args)
    checks = run_battery(G, t_max=args.t_max, lattice=lattice,
                         tuple_budget=args.tuple_budget)
    ok = all(c["ok"] for c in checks)
    _json_out({"group": args.spec, "passed": ok, "checks": checks})
    return 0 if ok else 1


def cmd_cache(args) -> int:
    if not args.cache_dir:
        raise ValueError("cache commands need --cache-dir or MOEBIUS_CACHE_DIR")
    if args.action == "clear":
        _json_out({"cleared": clear_cache(args.cache_dir)})
        return 0
    if not args.spec:
        raise ValueError(f"cache {args.action} needs a group spec")
    G = build_from_spec(args.spec, cap=args.order_cap)
    if args.action == "build":
        lattice = enumerate_subgroups(G, budget=args.subgroup_budget)
        path = save_lattice(lattice, args.cache_dir)
        _json_out({"group": args.spec, "path": str(path),
                   "subgroups": len(lattice)})
        return 0
    if args.action == "info":
        lattice = load_lattice(G, args.cache_dir)
        if lattice is None:
            _json_out({"group": args.spec, "cached": False})
        else:
            _json_out({"group": args.spec, "cached": True,
                       "order": G.order, "subgroups": len(lattice),
                       "path": str(cache_path(args.cache_dir, args.spec))})
        return 0
    raise ValueError(f"unknown cache action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="moebius",
        description="Exact Moebius-function engine on posets of subgroup classes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spec_nargs=None, tables=False, tuples=False):
        """The spec and the flags every handler reads, plus --format for
        the handlers that render tables and --tuple-budget for those that
        scan tuples."""
        sp.add_argument("spec", nargs=spec_nargs,
                        help="group spec, e.g. S:4 or C:2xD:5")
        if tables:
            sp.add_argument("--format", choices=["markdown", "csv", "json"],
                            default="markdown")
        sp.add_argument("--cache-dir", default=default_cache_dir())
        sp.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        sp.add_argument("--subgroup-budget", type=int,
                        default=DEFAULT_SUBGROUP_BUDGET)
        if tuples:
            sp.add_argument("--tuple-budget", type=int,
                            default=counting.DEFAULT_TUPLE_BUDGET)

    sp = sub.add_parser("table", help="class table: mu_A, omega, kappa, sigma")
    common(sp, tables=True)
    sp.add_argument("--aut", default="inn")
    sp.add_argument("--omega2", action="store_true",
                    help="include the omega(H,2) column")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("sigma-table", help="lattice mu / kappa / sigma table")
    common(sp, tables=True)
    sp.set_defaults(func=cmd_sigma_table)

    sp = sub.add_parser("phi", help="number of generating t-tuples of elements")
    common(sp, tuples=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--via", choices=["hall", "classes", "brute"], default="hall")
    sp.add_argument("--aut", default="1")
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("phi-rel", help="generating tuples over a quotient tuple")
    common(sp)
    sp.add_argument("--normal", required=True, help="subgroup selector for N")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--via", choices=["hall", "classes"], default="hall")
    sp.add_argument("--aut", default="1")
    sp.set_defaults(func=cmd_phi_rel)

    sp = sub.add_parser("phi-star", help="number of generating t-tuples of subgroups")
    common(sp, tuples=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--via", choices=["hall", "classes", "brute"], default="hall")
    sp.add_argument("--aut", default="1")
    sp.set_defaults(func=cmd_phi_star)

    sp = sub.add_parser("prob", help="generation probabilities P and P*")
    common(sp)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(func=cmd_prob)

    sp = sub.add_parser("check-mu-lambda", help="(mu,lambda)-property report")
    common(sp, tables=True)
    sp.set_defaults(func=cmd_check_mu_lambda)

    sp = sub.add_parser("beta", help="beta vectors over C*(G)")
    common(sp)
    sp.add_argument("--t-max", type=int, default=6)
    sp.add_argument("--rank", action="store_true")
    sp.set_defaults(func=cmd_beta)

    sp = sub.add_parser("tau", help="violation spectrum tau(n)")
    common(sp)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("strana", help="zero-sum consequence identity at one t")
    common(sp)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(func=cmd_strana)

    sp = sub.add_parser("verify", help="run the identity battery on one group")
    common(sp, tuples=True)
    sp.add_argument("--t-max", type=int, default=2)
    sp.set_defaults(func=cmd_verify, tuple_budget=10 ** 6)

    sp = sub.add_parser("cache", help="build/inspect/clear lattice caches")
    sp.add_argument("action", choices=["build", "info", "clear"])
    common(sp, spec_nargs="?")
    sp.set_defaults(func=cmd_cache)

    return p


def _check_limits(args):
    """A cap or budget below 1 is a usage error, named by its flag, raised
    before any group is built."""
    for flag in ("--order-cap", "--subgroup-budget", "--tuple-budget"):
        value = getattr(args, flag[2:].replace("-", "_"), 1)
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # CPython refuses to print an int of more than 4300 digits by
        # default; exact counts are printed whatever their length (the
        # flags are parsed first, so a --t of more digits is still refused)
        sys.set_int_max_str_digits(0)
    try:
        _check_limits(args)
        return args.func(args)
    except (EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit 1 is kept for property verdicts
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
