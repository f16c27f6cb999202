"""Batch front door: parse structure files, dispatch, emit deterministic reports.

Exit codes: 0 all checks pass, 1 a mathematical verification failed,
2 parse/shape error.  Identical inputs and flags produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import fmt
from .coalg import (
    check_morphism, check_structure, compose_morphisms, decalage_dga,
    decalage_dgla, decalage_dgla_morphism, end_preserving_sub_dgla,
)
from .cocone import (
    Splitting, cocone_associative, derived_products_model, exp_log_isos,
    fiber_product_model, fm_cocone_assoc, fm_cocone_lie, semidirect_product,
    voronov_brackets,
)
from .fixtures import (
    end_splitting, harmonic_contraction, lambda_cartan_fixture, random_dga_morphism,
    random_end_dga, random_filtered_inclusion,
)
from .graded import (
    MalformedInput, RejectedInput, Report, check_contraction, linear_part,
)
from .hodge import (
    check_cartan, check_hodge_package, contraction_table_lines,
    minimal_period_map, split_period_map, synthetic_package, torus_package,
    yukawa_mc_fiber_residual, yukawa_model, yukawa_model_v2,
)
from .mc import ArtinElement, ArtinRing, mc_check, mc_extend, cocone_mc_correspondence
from .transfer import transfer_quasi_inverse, transfer_structure


def _emit(out, reports, machine: bool, extra_lines=()):
    ok = all(r.ok for r in reports)
    for r in reports:
        if not machine:
            out.append("%s: %s" % (r.title, "PASS" if r.ok else "FAIL"))
        out.extend(r.lines())
    out.extend(extra_lines)
    out.append("result=pass" if machine else
               "result: %s" % ("PASS" if ok else "FAIL"))
    if machine and not ok:
        out[-1] = "result=fail"
    return 0 if ok else 1


def _load(path, extra=None) -> fmt.Document:
    try:
        text = ""
        for p in [path] + ([extra] if extra else []):
            with open(p) as f:
                text += f.read() + "\n"
        return fmt.parse(text)
    except OSError as exc:
        raise MalformedInput(str(exc))


def _integer(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInput("%s: %r is not an integer" % (flag, text)) from None


def _artin(flag: str) -> ArtinRing:
    g, _, n = flag.partition(",")
    return ArtinRing(_integer(g, "--artin"), _integer(n, "--artin"))


def _example_seed(args) -> int:
    """N of `--example kind:N`, or --seed when no N is given."""
    arg = (args.example or "").partition(":")[2]
    return _integer(arg, "--example") if arg else args.seed


def _example_period_data(ref: str, p=None):
    kind, _, arg = ref.partition(":")
    n = _integer(arg or ("2" if kind == "torus" else "0"), "--example")
    if kind == "torus":
        return torus_package(n, p=p)
    if kind == "synthetic":
        return synthetic_package(n)
    if kind == "lambda":
        cartan, fpd, _ = lambda_cartan_fixture(n, 2, 1, p=p)
        return None, cartan, fpd
    raise MalformedInput("unknown example %r" % ref)


def _add_vanishing(report: Report, label: str, comp, mw: int):
    """One check per weight 2..mw that the composite's Taylor entry vanishes."""
    for k in range(2, mw + 1):
        t = comp.taylor.get(k)
        report.add(label, t is None or t.is_zero(), weight=k)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code and fills `out`)


def cmd_verify(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    if args.kind in ("cartan", "hodge") and args.example:
        pkg, cartan, fpd = _example_period_data(args.example)
        if args.kind == "cartan":
            return _emit(out, [check_cartan(cartan)], machine)
        if pkg is None:
            raise MalformedInput("example carries no hodge package")
        return _emit(out, [check_hodge_package(pkg)], machine)
    doc = _load(args.file)
    if args.kind == "structure":
        s = doc.lookup("structure", args.name)
        return _emit(out, [check_structure(s, max_weight=mw)], machine)
    if args.kind == "morphism":
        return _emit(out, [check_morphism(doc.lookup("morphism", args.name),
                                          max_weight=mw)], machine)
    if args.kind == "contraction":
        return _emit(out, [check_contraction(doc.lookup("contraction", args.name))],
                     machine)
    if args.kind == "cartan":
        return _emit(out, [check_cartan(doc.lookup("cartan", args.name))], machine)
    if args.kind == "hodge":
        return _emit(out, [check_hodge_package(doc.lookup("hodge", args.name))], machine)
    raise MalformedInput("unknown verify kind %r" % args.kind)


def cmd_transfer(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    if args.example:
        seed = _example_seed(args)
        big = decalage_dga(random_end_dga(seed, 2), max_weight=mw)
        c = harmonic_contraction(big.space,
                                 linear_part(big.taylor.get(1), big.space, big.space, 1))
    else:
        doc = _load(args.file)
        big = doc.lookup("structure", args.structure)
        c = doc.lookup("contraction", args.contraction)
    small, F = transfer_structure(big, c, max_weight=mw)
    reports = [check_structure(small, max_weight=mw),
               check_morphism(F, max_weight=mw)]
    if args.quasi_inverse:
        G = transfer_quasi_inverse(big, c, F, max_weight=mw)
        reports.append(check_morphism(G, max_weight=mw))
        gf = Report("G.F = id")
        _add_vanishing(gf, "vanishing", compose_morphisms(G, F, max_weight=mw), mw)
        reports.append(gf)
    return _emit(out, reports, machine)


def cmd_cocone(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    if args.kind == "lie":
        if args.example:
            seed = _example_seed(args)
            _, _, f = random_filtered_inclusion(seed, 2)
        else:
            f = _load(args.file).lookup("dglamorphism", args.name)
        s = fm_cocone_lie(f, max_weight=mw)
        return _emit(out, [check_structure(s, max_weight=mw)], machine)
    if args.example:
        seed = _example_seed(args)
        f = random_dga_morphism(seed, 2)
        doc = None
    else:
        doc = _load(args.file)
        f = doc.lookup("dgamorphism", args.name) if args.kind != "derived" else None
    if args.kind == "assoc":
        return _emit(out, [cocone_associative(f).check()], machine)
    if args.kind == "fm":
        s = fm_cocone_assoc(f, max_weight=mw)
        return _emit(out, [check_structure(s, max_weight=mw)], machine)
    if args.kind == "explog":
        E, L = exp_log_isos(f, max_weight=mw)
        reports = [check_morphism(E, max_weight=mw), check_morphism(L, max_weight=mw)]
        idrep = Report("E.L = L.E = id")
        for G, H, label in ((E, L, "E.L"), (L, E, "L.E")):
            _add_vanishing(idrep, label, compose_morphisms(G, H, max_weight=mw), mw)
        reports.append(idrep)
        return _emit(out, reports, machine)
    if args.kind == "derived":
        if args.example:
            _, _, ambient, comp, _ = end_splitting(_example_seed(args), lie=False)
            split = Splitting(ambient, comp)
        else:
            split = doc.lookup("splitting", args.name)
        dp = derived_products_model(split, max_weight=mw)
        reports = [check_contraction(dp.contraction),
                   check_structure(dp.structure, max_weight=mw),
                   check_morphism(dp.F_as, max_weight=mw),
                   check_morphism(dp.G_as, max_weight=mw),
                   check_morphism(dp.F_inf, max_weight=mw),
                   check_morphism(dp.G_inf, max_weight=mw)]
        E, L = exp_log_isos(dp.inclusion, max_weight=mw,
                            cocones=(dp.cocone_inf, dp.cocone_as))
        tri = Report("commuting triangles")
        lhs = compose_morphisms(L, dp.F_as, max_weight=mw)
        tri.add("F_inf = L.F_as", all(
            lhs.taylor.get(k) == dp.F_inf.taylor.get(k)
            for k in set(lhs.taylor) | set(dp.F_inf.taylor)))
        rhs = compose_morphisms(dp.G_as, E, max_weight=mw)
        tri.add("G_inf = G_as.E", all(
            rhs.taylor.get(k) == dp.G_inf.taylor.get(k)
            for k in set(rhs.taylor) | set(dp.G_inf.taylor)))
        reports.append(tri)
        return _emit(out, reports, machine)
    raise MalformedInput("unknown cocone kind %r" % args.kind)


def cmd_product(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    seed = _example_seed(args)
    if args.kind == "semidirect":
        if args.example or not args.file:
            V, d, M, comp, stable = end_splitting(seed)
            split = Splitting(M, comp)
        else:
            doc = _load(args.file)
            split = doc.lookup("splitting", args.name)
            M = split.ambient
        phi, action = voronov_brackets(split, max_weight=mw)
        sd = semidirect_product(phi, decalage_dgla(M, max_weight=mw), action,
                                max_weight=mw, validate=False)
        return _emit(out, [check_structure(phi, max_weight=mw),
                           check_structure(sd, max_weight=mw)], machine)
    if args.kind == "fiber":
        if args.example or not args.file:
            V, d, M, comp, stable = end_splitting(seed)
            split = Splitting(M, comp)
            sub, _, inc = end_preserving_sub_dgla(V, d, stable)
            F = decalage_dgla_morphism(inc, max_weight=mw,
                                       target=decalage_dgla(M, max_weight=mw))
            L = sub
        else:
            doc = _load(args.file)
            split = doc.lookup("splitting", args.name)
            L = doc.lookup("dgla", args.dgla)
            F = doc.lookup("morphism", args.morphism)
        fp = fiber_product_model(L, split, F, max_weight=mw)
        return _emit(out, [check_structure(fp, max_weight=mw)], machine)
    raise MalformedInput("unknown product kind %r" % args.kind)


def cmd_mc(args, out):
    machine = args.format == "machine"
    ring = _artin(args.artin)
    doc = _load(args.file, extra=args.element_file)
    extra = []
    if args.kind == "check":
        s = doc.lookup("structure", args.structure)
        x = doc.element(args.element, ring)
        res = mc_check(s, x)
        rep = Report("maurer-cartan")
        rep.add("residual=0", res.is_zero(),
                lhs="0" if res.is_zero() else ";".join(res.lines()))
        return _emit(out, [rep], machine)
    if args.kind == "extend":
        s = doc.lookup("structure", args.structure)
        x = doc.element(args.element, ring)
        rep, obstruction, lift = mc_extend(s, x, args.order)
        if not obstruction.is_zero():
            extra.append("obstruction:")
            extra.extend("  " + ln for ln in obstruction.lines())
        if lift is not None:
            extra.append("lift:")
            extra.extend("  " + ln for ln in lift.lines())
        return _emit(out, [rep], machine, extra)
    if args.kind == "correspond":
        f = doc.lookup("dglamorphism", args.morphism)
        x = doc.element(args.x, ring)
        m = doc.element(args.m, ring)
        rep = cocone_mc_correspondence(f, x, m, max_weight=args.max_weight)
        agree = [c for c in rep.checks if c["label"] == "memberships agree"]
        final = Report("cocone correspondence")
        final.checks = rep.checks
        code = 0 if (agree and agree[0]["ok"]) else 1
        _emit(out, [final], machine)
        return code
    raise MalformedInput("unknown mc kind %r" % args.kind)


def cmd_period(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    pkg, cartan, fpd = _example_period_data(args.example or "synthetic:0",
                                            p=args.p)
    if args.kind == "split":
        Pi, target = split_period_map(fpd, max_weight=mw)
        reports = [check_morphism(Pi, max_weight=mw)]
        extra = ["taylor arities: %s" % sorted(Pi.taylor)]
        return _emit(out, reports, machine, extra)
    if args.kind == "minimal":
        if pkg is None:
            raise MalformedInput("minimal period map needs a hodge package example")
        P = minimal_period_map(pkg, cartan, max_weight=mw)
        return _emit(out, [check_morphism(P, max_weight=mw)], machine,
                     ["taylor arities: %s" % sorted(P.taylor)])
    raise MalformedInput("unknown period kind %r" % args.kind)


def cmd_yukawa(args, out):
    mw = args.max_weight
    machine = args.format == "machine"
    pkg, cartan, fpd = _example_period_data(args.example or "torus:2")
    if pkg is None:
        raise MalformedInput("yukawa models need a hodge package example")
    model = yukawa_model(pkg, cartan, max_weight=mw) if args.kind == "v1" \
        else yukawa_model_v2(pkg, cartan, max_weight=mw)
    reports = [check_structure(model, max_weight=min(mw, 3))]
    extra = []
    if args.action == "mc":
        ring = _artin(args.artin)
        extra.append("quadratic maurer-cartan residual table:")
        mono = tuple([1] + [0] * (ring.generators - 1))
        deg1 = [x for x in cartan.L.space.names
                if cartan.L.space.degree[x] == 1]
        labelled = [(x, [x]) for x in deg1]
        labelled += [("%s+%s" % (x, y), [x, y])
                     for i, x in enumerate(deg1) for y in deg1[i + 1:]]
        for label, gens in labelled:
            xi = ArtinElement(ring, cartan.L.space)
            for g in gens:
                xi.add(g, mono, Fraction(1))
            res = yukawa_mc_fiber_residual(model, xi)
            val = "0" if res.is_zero() else "; ".join(res.lines())
            extra.append("  xi=%s -> %s" % (label, val))
    return _emit(out, reports, machine, extra)


def cmd_example(args, out):
    if args.kind != "torus":
        raise MalformedInput("unknown example kind %r" % args.kind)
    pkg, cartan, fpd = torus_package(args.n)
    out.append("# torus model n=%d" % args.n)
    out.extend(fmt.space_lines("A", pkg.A))
    out.extend(fmt.space_lines("L", cartan.L.space))
    out.append("# contraction table")
    out.extend(contraction_table_lines(cartan))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hoalg",
        description="exact strong-homotopy algebra toolkit")
    default_mw = int(os.environ.get("HOALG_MAX_WEIGHT", "6"))
    ap.add_argument("--max-weight", type=int, default=default_mw)
    ap.add_argument("--artin", default="1,3", help="g,N for Q[t1..tg]/m^N")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify")
    p.add_argument("kind", choices=("structure", "morphism", "contraction",
                                    "cartan", "hodge"))
    p.add_argument("file", nargs="?")
    p.add_argument("--name")
    p.add_argument("--example")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transfer")
    p.add_argument("file", nargs="?")
    p.add_argument("--structure")
    p.add_argument("--contraction")
    p.add_argument("--example")
    p.add_argument("--quasi-inverse", action="store_true", dest="quasi_inverse")
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("cocone")
    p.add_argument("kind", choices=("lie", "assoc", "fm", "explog", "derived"))
    p.add_argument("file", nargs="?")
    p.add_argument("--name")
    p.add_argument("--example")
    p.set_defaults(fn=cmd_cocone)

    p = sub.add_parser("product")
    p.add_argument("kind", choices=("semidirect", "fiber"))
    p.add_argument("file", nargs="?")
    p.add_argument("--name")
    p.add_argument("--dgla")
    p.add_argument("--morphism")
    p.add_argument("--example")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("mc")
    p.add_argument("kind", choices=("check", "extend", "correspond"))
    p.add_argument("file")
    p.add_argument("--structure")
    p.add_argument("--element")
    p.add_argument("--morphism")
    p.add_argument("--x")
    p.add_argument("--m")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--element-file", dest="element_file")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("period")
    p.add_argument("kind", choices=("split", "minimal"))
    p.add_argument("--example")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("yukawa")
    p.add_argument("kind", choices=("v1", "v2"))
    p.add_argument("action", nargs="?", choices=("mc",))
    p.add_argument("--example")
    p.set_defaults(fn=cmd_yukawa)

    p = sub.add_parser("example")
    p.add_argument("kind", choices=("torus",))
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(fn=cmd_example)
    return ap


def run(argv) -> int:
    """Parse argv, run the subcommand, print the report; return the exit code."""
    ap = build_parser()
    try:
        args, rest = ap.parse_known_args(argv)
        # argparse fills the optional `action` positional of `yukawa v1 --example
        # torus:2 mc` with nothing before the option, and leaves the trailing
        # word over, so the action is read from the subcommand's leftovers
        if args.command == "yukawa" and args.action is None and rest == ["mc"]:
            args.action, rest = "mc", []
        if rest:
            ap.error("unrecognized arguments: %s" % " ".join(rest))
    except SystemExit as exc:
        return 2 if exc.code else 0
    out = []
    try:
        code = args.fn(args, out)
    except (MalformedInput, RejectedInput, OSError) as exc:
        sys.stdout.write("error: %s\n" % exc)
        return 2
    sys.stdout.write("\n".join(out) + "\n")
    return code


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
