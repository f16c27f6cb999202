"""The four seeded batch workloads: their inputs, their jobs and the canonical
dumps that the correctness gate hashes.

Every workload draws its inputs from a fixed universe of keys, split into
classes (`pool_classes`). The run seed picks a pool of them and its order;
jobs cycle through that pool. The draw is stratified by cost: each class is
ranked by the cost recorded in `costs.json` and cut into as many strata as the
class gives the pool, and the seed picks one key per stratum. So every seed
gets about the same mix of cheap and dear jobs, and a run's median job time
depends on the seed's inputs only a little. Pools are sized so that one pass
takes about 20 s on a 2.1 GHz Xeon. Because the universe is fixed,
`digests.json` holds the expected dump digest of every key, so every job of
every seed is checked against a recorded digest.

A job builds its objects from the pool's raw inputs (morphisms, packages,
Artin elements) and never reuses a structure or morphism built by an earlier
job, so the library memos start empty in every job.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from hoalg.coalg import (
    check_morphism, check_structure, compose_morphisms, decalage_dga,
    identity_morphism, invert_morphism,
)
from hoalg.cocone import exp_log_isos, fm_cocone_assoc, fm_cocone_lie
from hoalg.fixtures import (
    harmonic_contraction, lambda_cartan_fixture, random_dga_morphism,
    random_end_dga, random_filtered_inclusion,
)
from hoalg.graded import GradedMap, check_contraction
from hoalg.hodge import (
    minimal_period_map, split_period_map, synthetic_package, torus_package,
    yukawa_model, yukawa_model_v2,
)
from hoalg.mc import (
    ArtinElement, ArtinRing, cocone_element, cocone_mc_correspondence,
    gauge_act, mc_check, mc_f_check,
)
from hoalg.transfer import transfer_quasi_inverse, transfer_structure

UNIVERSE = 96   # seeds of the inputs each workload can use
COSTS = Path(__file__).resolve().parent / "costs.json"


class JobFailed(Exception):
    """A job's own identity or report check failed."""


class Job:
    """What one job hands back: the lines to hash and its exact counts."""

    def __init__(self):
        self.lines = []
        self.objects = []        # coalg structures/morphisms built by the job
        self.words = 0           # basis words verified
        self.entries_out = 0     # stored Taylor entries produced
        self.terms = 0           # Artin terms of inputs and residuals

    def require(self, ok, what):
        if not ok:
            raise JobFailed(what)

    def report(self, rep, what):
        self.lines.extend(rep.lines())
        self.require(rep.ok, what)

    def taylor(self, label, obj):
        """Dump a structure or morphism: exact Fractions, words sorted."""
        self.objects.append(obj)
        self.lines.append("# %s" % label)
        for k in sorted(obj.taylor):
            entries = obj.taylor[k].entries
            self.entries_out += len(entries)
            for word in sorted(entries):
                vec = entries[word]
                for name in sorted(vec):
                    self.lines.append("%d %s -> %s %s"
                                      % (k, " ".join(word), name, vec[name]))

    def artin(self, label, el):
        self.terms += len(el.terms)
        self.lines.append("# %s" % label)
        for (name, mono), c in sorted(el.terms.items()):
            self.lines.append("%s %s %s" % (name, mono, c))

    def verified(self, s, top):
        """Count the basis words a check over `s` up to weight `top` visits."""
        top = min(top, s.max_weight)
        self.words += sum(sum(1 for _ in s.basis_words(k)) for k in range(1, top + 1))

    def digest(self):
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()

    def memo_entries(self):
        """Q^j_k / F^j_k memo entries held by the job's objects (read by name)."""
        return sum(len(getattr(o, "_coder_memo", ())) + len(getattr(o, "_morph_memo", ()))
                   for o in self.objects)


class _NoSpan:
    def span(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NO_TRACE = _NoSpan()


# ---------------------------------------------------------------------------
# cocone-verify: the verify side of coalg


ASSOC_WEIGHT = 4
LIE_WEIGHT = 6


def cocone_verify_inputs(key):
    return random_dga_morphism(int(key), 2), random_filtered_inclusion(int(key), 2)[2]


def cocone_verify_job(inputs, tr, job, key):
    fa, fl = inputs
    with tr.span("cocone.build"):
        sa = fm_cocone_assoc(fa, ASSOC_WEIGHT)
    with tr.span("coalg.verify"):
        ra = check_structure(sa)
    with tr.span("cocone.build"):
        sl = fm_cocone_lie(fl, LIE_WEIGHT)
    with tr.span("coalg.verify"):
        rl = check_structure(sl)
    job.verified(sa, ASSOC_WEIGHT)
    job.verified(sl, LIE_WEIGHT)
    job.taylor("assoc cocone", sa)
    job.report(ra, "assoc cocone [Q,Q]=0")
    job.taylor("lie cocone", sl)
    job.report(rl, "lie cocone [Q,Q]=0")


# ---------------------------------------------------------------------------
# morphism-build: the construct side of coalg, plus transfer


EXPLOG_WEIGHT = 4
TRANSFER_WEIGHT = 6


def morphism_build_inputs(key):
    A = random_end_dga(int(key), 2)
    big = decalage_dga(A, max_weight=TRANSFER_WEIGHT)
    d = GradedMap(big.space, big.space, 1)
    if 1 in big.taylor:
        for (n,), vec in big.taylor[1].entries.items():
            d.set(n, vec)
    return random_dga_morphism(int(key), 2), A, harmonic_contraction(big.space, d)


def _is_identity(job, comp, label):
    one = identity_morphism(comp.source).taylor[1]
    job.require(set(comp.taylor) == {1} and comp.taylor[1] == one, label)


def morphism_build_job(inputs, tr, job, key):
    """Even keys check E.L = id and inv(E) = L; odd keys check L.E = id and
    G.F = id for the transferred structure, so two consecutive keys cover
    the whole recipe at about the same cost each."""
    f, A, c = inputs
    w = EXPLOG_WEIGHT
    with tr.span("cocone.build"):
        E, L = exp_log_isos(f, w)
    job.taylor("E", E)
    job.taylor("L", L)
    if int(key) % 2 == 0:
        with tr.span("coalg.compose"):
            EL = compose_morphisms(E, L, w)
        job.taylor("E.L", EL)
        _is_identity(job, EL, "E.L = id")
        with tr.span("coalg.invert"):
            Ei = invert_morphism(E, w)
        job.taylor("inv(E)", Ei)
        job.require(set(Ei.taylor) == set(L.taylor)
                    and all(Ei.taylor[k] == L.taylor[k] for k in L.taylor), "inv(E) = L")
        return
    with tr.span("coalg.compose"):
        LE = compose_morphisms(L, E, w)
    job.taylor("L.E", LE)
    _is_identity(job, LE, "L.E = id")
    with tr.span("graded.contraction"):
        rep = check_contraction(c)
    job.report(rep, "contraction identities")
    big = decalage_dga(A, max_weight=TRANSFER_WEIGHT)
    with tr.span("transfer.build"):
        small, F = transfer_structure(big, c, validate=False)
        G = transfer_quasi_inverse(big, c, F, validate=False)
    job.taylor("transferred", small)
    job.taylor("F", F)
    job.taylor("G", G)
    with tr.span("coalg.compose"):
        GF = compose_morphisms(G, F, TRANSFER_WEIGHT)
    job.taylor("G.F", GF)
    if small.space.dim:
        _is_identity(job, GF, "G.F = id")


# ---------------------------------------------------------------------------
# period-hodge: operator chains in hodge


HODGE_WEIGHTS = {"torus": 3, "synthetic": 4, "lambda": 4}


def period_hodge_inputs(key):
    kind, _, u = key.partition(":")
    if kind == "torus":
        return torus_package(2)
    if kind == "synthetic":
        return synthetic_package(int(u))
    cartan, fpd, _ = lambda_cartan_fixture(int(u), 2, 1)
    return None, cartan, fpd


def period_hodge_job(inputs, tr, job, key):
    pkg, cartan, fpd = inputs
    w = HODGE_WEIGHTS[key.partition(":")[0]]
    with tr.span("hodge.build"):
        Pi, target = split_period_map(fpd, max_weight=w)
    with tr.span("coalg.verify"):
        rep = check_morphism(Pi, max_weight=w)
    job.verified(Pi.source, w)
    job.taylor("split period map", Pi)
    job.taylor("derived-product target", target)
    job.report(rep, "split period map is a morphism")
    if pkg is None:
        return
    with tr.span("hodge.build"):
        P = minimal_period_map(pkg, cartan, max_weight=w)
    with tr.span("coalg.verify"):
        rep = check_morphism(P, max_weight=w)
    job.verified(P.source, w)
    job.taylor("minimal period map", P)
    job.report(rep, "minimal period map is a morphism")
    for label, builder in (("yukawa v1", yukawa_model), ("yukawa v2", yukawa_model_v2)):
        with tr.span("hodge.build"):
            Y = builder(pkg, cartan, max_weight=w)
        with tr.span("coalg.verify"):
            rep = check_structure(Y, max_weight=min(w, 3))
        job.verified(Y, min(w, 3))
        job.taylor(label, Y)
        job.report(rep, label + " [Q,Q]=0")


# ---------------------------------------------------------------------------
# mc-artin: Maurer-Cartan evaluation over Artin rings


# (generators, nilpotency order, terms per random element, terms of the gauge
# parameter): term counts fall as the top arity rises, so that no ring's
# itertools.product enumeration dwarfs the others
MC_RINGS = ((1, 6, 6, 4), (2, 5, 12, 6), (3, 4, 18, 8))
MC_RANDOM = 2


def _artin_element(rng, ring, space, nterms):
    """Degree-0 element of space (x) m_B with exactly nterms terms (or all)."""
    cells = [(n, m) for n in space.names if space.degree[n] == 0
             for m in ring.monomials(min_total=1)]
    el = ArtinElement(ring, space)
    for n, m in sorted(rng.sample(cells, min(nterms, len(cells)))):
        el.add(n, m, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
    return el


def mc_artin_inputs(key):
    sub, amb, inc = random_filtered_inclusion(int(key), 2)
    cocone_space = fm_cocone_lie(inc, 1).space
    rng = random.Random("perfbench:mc:%s" % key)
    rings = []
    for g, order, nrand, ngauge in MC_RINGS:
        ring = ArtinRing(g, order)
        randoms = [_artin_element(rng, ring, cocone_space, nrand) for _ in range(MC_RANDOM)]
        rings.append((ring, randoms, _artin_element(rng, ring, sub.space, ngauge)))
    return sub, amb, inc, rings


def mc_artin_job(inputs, tr, job, key):
    """Per ring: one cocone shared by the random and engineered elements, while
    cocone_mc_correspondence rebuilds its own cocone on every call."""
    sub, amb, inc, rings = inputs
    for ring, randoms, a in rings:
        with tr.span("cocone.build"):
            s = fm_cocone_lie(inc, ring.order - 1)
        for n, x in enumerate(randoms):
            with tr.span("mc.check"):
                res = mc_check(s, x)
            job.artin("random %d" % n, x)
            job.artin("residual %d" % n, res)
        # engineered member: x = e^a * 0 in L and m = -a, so (x, e^m) is in MC_f
        with tr.span("mc.gauge"):
            x = gauge_act(sub, a, ArtinElement(ring, sub.space))
        m = ArtinElement(ring, amb.space, dict(a.terms)).scaled(-1)
        pair = cocone_element(s.space, x, m)
        with tr.span("mc.check"):
            res = mc_check(s, pair)
        job.artin("gauge parameter", a)
        job.artin("engineered pair", pair)
        job.artin("engineered residual", res)
        job.require(res.is_zero(), "engineered pair is Maurer-Cartan in the cocone")
        with tr.span("mc.fcheck"):
            direct = mc_f_check(inc, x, m)
            corr = cocone_mc_correspondence(inc, x, m)
        job.report(direct, "engineered pair is in MC_f")
        job.report(corr, "cocone correspondence")


# ---------------------------------------------------------------------------


# inputs(input key) -> raw inputs; run(raw inputs, tracer, Job, input key)
# runs one job
Workload = namedtuple("Workload", "inputs run")


WORKLOADS = {
    "cocone-verify": Workload(cocone_verify_inputs, cocone_verify_job),
    "morphism-build": Workload(morphism_build_inputs, morphism_build_job),
    "period-hodge": Workload(period_hodge_inputs, period_hodge_job),
    "mc-artin": Workload(mc_artin_inputs, mc_artin_job),
}


def pool_classes(workload):
    """[(class of input keys, how many of them a pool takes)]. morphism-build
    takes as many even keys (E.L, inv(E)) as odd ones (L.E, transfer), and
    period-hodge a third each of synthetic, lambda and torus jobs."""
    u = [str(n) for n in range(UNIVERSE)]
    if workload == "morphism-build":
        return [(u[0::2], 16), (u[1::2], 16)]
    if workload == "period-hodge":
        return [(["synthetic:" + n for n in u], 24), (["lambda:" + n for n in u], 24),
                (["torus"], 24)]
    return [(u, {"cocone-verify": 48, "mc-artin": 36}[workload])]


def universe_keys(workload):
    """Every input key a run of this workload can use."""
    return [key for members, _ in pool_classes(workload) for key in members]


def run_keys(workload, seed):
    """The pool's keys, in the order jobs take them: one key per cost stratum
    of each class, drawn and shuffled by the seed."""
    cost = json.loads(COSTS.read_text())[workload]
    rng = random.Random("perfbench:%s:%d" % (workload, seed))
    keys = []
    for members, n in pool_classes(workload):
        ranked = sorted(members, key=lambda key: (cost[key], key))
        for s in range(n):
            lo = s * len(ranked) // n
            keys.append(rng.choice(ranked[lo:max(lo + 1, (s + 1) * len(ranked) // n)]))
    rng.shuffle(keys)
    return keys
