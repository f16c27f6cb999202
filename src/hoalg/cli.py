"""Batch front door: parse structure files, dispatch, emit deterministic reports.

Exit codes: 0 all checks pass, 1 a mathematical verification failed,
2 parse/shape error or an unsupported request, 3 out of memory.  Identical
inputs and flags produce byte-identical output.

One emit path: each `cmd_*` handler returns its stdout lines and exit code,
and builds them through `_emit`, the only reader of --format; `run` alone
prints.  The parser is built from the `_COMMANDS` table.
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
    MalformedInput, RejectedInput, Report, UnsupportedOperation, check_contraction,
    linear_part,
)
from .hodge import (
    check_cartan, check_hodge_package, contraction_table_lines,
    minimal_period_map, split_period_map, synthetic_package, torus_package,
    yukawa_mc_fiber_residual, yukawa_model, yukawa_model_v2,
)
from .mc import ArtinElement, ArtinRing, mc_check, mc_extend, cocone_mc_correspondence
from .transfer import transfer_quasi_inverse, transfer_structure


def _emit(args, reports, extra=(), code=None):
    """(stdout lines, exit code): each report, then `extra`, then the result
    line; the code is 0 when every report passes, 1 otherwise, unless given."""
    machine = args.format == "machine"
    ok = all(r.ok for r in reports)
    lines = []
    for r in reports:
        if not machine:
            lines.append("%s: %s" % (r.title, "PASS" if r.ok else "FAIL"))
        lines.extend(r.lines())
    lines.extend(extra)
    verdict = "PASS" if ok else "FAIL"
    lines.append("result=" + verdict.lower() if machine else "result: " + verdict)
    return lines, (0 if ok else 1) if code is None else code


def _load(args, extra=None) -> fmt.Document:
    """FILE, followed by the file `extra` when given, parsed as one document."""
    if args.file is None:
        raise MalformedInput("%s needs FILE or --example" % args.command)
    text = ""
    for path in filter(None, (args.file, extra)):
        with open(path) as f:
            text += f.read() + "\n"
    return fmt.parse(text)


def _input(args, kind, example):
    """`example(seed)` under --example, else the `kind` named --name in FILE."""
    if args.example:
        return example(_example_seed(args))
    return _load(args).lookup(kind, args.name)


def _integer(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInput("%s: %r is not an integer" % (flag, text)) from None


def _weight(text: str) -> int:
    """--max-weight, and HOALG_MAX_WEIGHT through its default: an integer >= 1."""
    try:
        weight = int(text)
    except ValueError:
        weight = 0
    if weight < 1:
        raise argparse.ArgumentTypeError("%r is not an integer >= 1" % text)
    return weight


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


def _vanishing(title: str, composites, mw: int) -> Report:
    """One check per (label, composite) and weight 2..mw that the composite's
    Taylor entry vanishes."""
    report = Report(title)
    for label, comp in composites:
        for k in range(2, mw + 1):
            t = comp.taylor.get(k)
            report.add(label, t is None or t.is_zero(), weight=k)
    return report


# ---------------------------------------------------------------------------
# subcommand handlers (each returns its stdout lines and exit code)

# the check of each `verify` kind; a lambda reads its check_* name when called,
# so the module attribute at that time is what runs
_CHECKS = {
    "structure": lambda s, mw: check_structure(s, max_weight=mw),
    "morphism": lambda f, mw: check_morphism(f, max_weight=mw),
    "contraction": lambda c, mw: check_contraction(c),
    "cartan": lambda c, mw: check_cartan(c),
    "hodge": lambda pkg, mw: check_hodge_package(pkg),
}


def cmd_verify(args):
    if args.kind not in ("cartan", "hodge") and args.file is None and args.example:
        raise MalformedInput("verify %s needs FILE: --example serves cartan and hodge only"
                             % args.kind)
    if args.kind in ("cartan", "hodge") and args.example:
        pkg, cartan, _ = _example_period_data(args.example)
        if args.kind == "hodge" and pkg is None:
            raise MalformedInput("example carries no hodge package")
        target = cartan if args.kind == "cartan" else pkg
    else:
        target = _load(args).lookup(args.kind, args.name)
    return _emit(args, [_CHECKS[args.kind](target, args.max_weight)])


def cmd_transfer(args):
    mw = args.max_weight
    if args.example:
        big = decalage_dga(random_end_dga(_example_seed(args), 2), max_weight=mw)
        c = harmonic_contraction(big.space,
                                 linear_part(big.taylor.get(1), big.space, big.space, 1))
    else:
        doc = _load(args)
        big = doc.lookup("structure", args.structure)
        c = doc.lookup("contraction", args.contraction)
    small, F = transfer_structure(big, c, max_weight=mw)
    reports = [check_structure(small, max_weight=mw), check_morphism(F, max_weight=mw)]
    if args.quasi_inverse:
        G = transfer_quasi_inverse(big, c, F, max_weight=mw)
        GF = compose_morphisms(G, F, max_weight=mw)
        reports += [check_morphism(G, max_weight=mw),
                    _vanishing("G.F = id", [("vanishing", GF)], mw)]
    return _emit(args, reports)


def _example_assoc_splitting(seed: int) -> Splitting:
    _, _, ambient, comp, _ = end_splitting(seed, lie=False)
    return Splitting(ambient, comp)


def _derived_reports(split, mw: int):
    dp = derived_products_model(split, max_weight=mw)
    reports = [check_contraction(dp.contraction), check_structure(dp.structure, max_weight=mw)]
    reports += [check_morphism(F, max_weight=mw)
                for F in (dp.F_as, dp.G_as, dp.F_inf, dp.G_inf)]
    E, L = exp_log_isos(dp.inclusion, max_weight=mw, cocones=(dp.cocone_inf, dp.cocone_as))
    tri = Report("commuting triangles")
    for label, factors, rhs in (("F_inf = L.F_as", (L, dp.F_as), dp.F_inf),
                                ("G_inf = G_as.E", (dp.G_as, E), dp.G_inf)):
        lhs = compose_morphisms(*factors, max_weight=mw)
        tri.add(label, all(lhs.taylor.get(k) == rhs.taylor.get(k)
                           for k in set(lhs.taylor) | set(rhs.taylor)))
    return reports + [tri]


def cmd_cocone(args):
    mw = args.max_weight
    if args.kind == "lie":
        f = _input(args, "dglamorphism", lambda seed: random_filtered_inclusion(seed, 2)[2])
        return _emit(args, [check_structure(fm_cocone_lie(f, max_weight=mw), max_weight=mw)])
    if args.kind == "derived":
        split = _input(args, "splitting", _example_assoc_splitting)
        return _emit(args, _derived_reports(split, mw))
    f = _input(args, "dgamorphism", lambda seed: random_dga_morphism(seed, 2))
    if args.kind == "assoc":
        return _emit(args, [cocone_associative(f).check()])
    if args.kind == "fm":
        return _emit(args, [check_structure(fm_cocone_assoc(f, max_weight=mw), max_weight=mw)])
    E, L = exp_log_isos(f, max_weight=mw)
    EL = compose_morphisms(E, L, max_weight=mw)
    LE = compose_morphisms(L, E, max_weight=mw)
    return _emit(args, [check_morphism(E, max_weight=mw), check_morphism(L, max_weight=mw),
                        _vanishing("E.L = L.E = id", [("E.L", EL), ("L.E", LE)], mw)])


def cmd_product(args):
    mw = args.max_weight
    fiber = args.kind == "fiber"
    if args.example or not args.file:
        V, d, M, comp, stable = end_splitting(_example_seed(args))
        split = Splitting(M, comp)
        if fiber:
            L, _, inc = end_preserving_sub_dgla(V, d, stable)
            F = decalage_dgla_morphism(inc, max_weight=mw,
                                       target=decalage_dgla(M, max_weight=mw))
    else:
        doc = _load(args)
        split = doc.lookup("splitting", args.name)
        if fiber:
            L = doc.lookup("dgla", args.dgla)
            F = doc.lookup("morphism", args.morphism)
    if fiber:
        fp = fiber_product_model(L, split, F, max_weight=mw)
        return _emit(args, [check_structure(fp, max_weight=mw)])
    phi, action = voronov_brackets(split, max_weight=mw)
    sd = semidirect_product(phi, decalage_dgla(split.ambient, max_weight=mw), action,
                            max_weight=mw, validate=False)
    return _emit(args, [check_structure(phi, max_weight=mw), check_structure(sd, max_weight=mw)])


def cmd_mc(args):
    ring = _artin(args.artin)
    doc = _load(args, extra=args.element_file)
    if args.kind == "correspond":
        f = doc.lookup("dglamorphism", args.morphism)
        x = doc.element(args.x, ring)
        m = doc.element(args.m, ring)
        final = Report("cocone correspondence")
        final.checks = cocone_mc_correspondence(f, x, m, max_weight=args.max_weight).checks
        agree = [c for c in final.checks if c["label"] == "memberships agree"]
        return _emit(args, [final], code=0 if (agree and agree[0]["ok"]) else 1)
    s = doc.lookup("structure", args.structure)
    x = doc.element(args.element, ring)
    if args.kind == "check":
        res = mc_check(s, x)
        rep = Report("maurer-cartan")
        rep.add("residual=0", res.is_zero(),
                lhs="0" if res.is_zero() else ";".join(res.lines()))
        return _emit(args, [rep])
    rep, obstruction, lift = mc_extend(s, x, args.order)
    extra = []
    if not obstruction.is_zero():
        extra.append("obstruction:")
        extra.extend("  " + ln for ln in obstruction.lines())
    if lift is not None:
        extra.append("lift:")
        extra.extend("  " + ln for ln in lift.lines())
    return _emit(args, [rep], extra)


def cmd_period(args):
    mw = args.max_weight
    example = args.example or "synthetic:0"
    if args.p is not None and (args.kind == "minimal" or example.startswith("synthetic")):
        raise MalformedInput("--p is read only by period split on torus and lambda examples")
    pkg, cartan, fpd = _example_period_data(example, p=args.p)
    if args.kind == "split":
        P, _ = split_period_map(fpd, max_weight=mw)
    elif pkg is None:
        raise MalformedInput("minimal period map needs a hodge package example")
    else:
        P = minimal_period_map(pkg, cartan, max_weight=mw)
    return _emit(args, [check_morphism(P, max_weight=mw)],
                 ["taylor arities: %s" % sorted(P.taylor)])


def cmd_yukawa(args):
    mw = args.max_weight
    pkg, cartan, _ = _example_period_data(args.example or "torus:2")
    if pkg is None:
        raise MalformedInput("yukawa models need a hodge package example")
    build = yukawa_model if args.kind == "v1" else yukawa_model_v2
    model = build(pkg, cartan, max_weight=mw)
    reports = [check_structure(model, max_weight=min(mw, 3))]
    extra = []
    if args.action == "mc":
        ring = _artin(args.artin)
        extra.append("quadratic maurer-cartan residual table:")
        mono = tuple([1] + [0] * (ring.generators - 1))
        deg1 = [x for x in cartan.L.space.names if cartan.L.space.degree[x] == 1]
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
    return _emit(args, reports, extra)


def cmd_example(args):
    pkg, cartan, _ = torus_package(args.n)
    lines = ["# torus model n=%d" % args.n]
    lines += fmt.space_lines("A", pkg.A) + fmt.space_lines("L", cartan.L.space)
    lines += ["# contraction table"] + contraction_table_lines(cartan)
    return lines, 0


# command: (handler, kind choices, FILE nargs ("?" optional, None required,
# 0 no FILE), options: a flag or a (flag, add_argument keywords) pair)
_COMMANDS = {
    "verify": (cmd_verify, ("structure", "morphism", "contraction", "cartan", "hodge"), "?",
               ["--name", "--example"]),
    "transfer": (cmd_transfer, None, "?",
                 ["--structure", "--contraction", "--example",
                  ("--quasi-inverse", {"action": "store_true"})]),
    "cocone": (cmd_cocone, ("lie", "assoc", "fm", "explog", "derived"), "?",
               ["--name", "--example"]),
    "product": (cmd_product, ("semidirect", "fiber"), "?",
                ["--name", "--dgla", "--morphism", "--example"]),
    "mc": (cmd_mc, ("check", "extend", "correspond"), None,
           ["--structure", "--element", "--morphism", "--x", "--m",
            ("--order", {"type": int, "default": 2}), "--element-file"]),
    "period": (cmd_period, ("split", "minimal"), 0, ["--example", ("--p", {"type": int})]),
    "yukawa": (cmd_yukawa, ("v1", "v2"), 0,
               [("action", {"nargs": "?", "choices": ("mc",)}), "--example"]),
    "example": (cmd_example, ("torus",), 0, [("--n", {"type": int, "default": 2})]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hoalg",
        description="exact strong-homotopy algebra toolkit")
    # a string default runs through `type` too, so a bad HOALG_MAX_WEIGHT is a usage error
    ap.add_argument("--max-weight", type=_weight,
                    default=os.environ.get("HOALG_MAX_WEIGHT", "6"))
    ap.add_argument("--artin", default="1,3", help="g,N for Q[t1..tg]/m^N")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (handler, kinds, file_nargs, options) in _COMMANDS.items():
        p = sub.add_parser(command)
        if kinds:
            p.add_argument("kind", choices=kinds)
        if file_nargs != 0:
            p.add_argument("file", nargs=file_nargs)
        for option in options:
            flag, keywords = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=handler)
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
    try:
        lines, code = args.fn(args)
    except (MalformedInput, RejectedInput, UnsupportedOperation, OSError) as exc:
        sys.stdout.write("error: %s\n" % exc)
        return 2
    except MemoryError:
        sys.stdout.write("error: out of memory\n")
        return 3
    sys.stdout.write("\n".join(lines) + "\n")
    return code


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
