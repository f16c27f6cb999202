"""Line-oriented textual format for spaces, maps and structures.

The exact grammar lives in docs/format.md.  Sections start with a keyword
line; the following indented-or-not payload lines belong to the section
until the next keyword.  Coefficients are exact rationals `p/q` (normalized
on read); vectors are `c*name + c*name - name`; `0` is the zero vector.
"""

from __future__ import annotations

from fractions import Fraction

from .coalg import (
    DgAlgebra, DgLieAlgebra, DgaMorphism, DglaMorphism, OoMorphism, OoStructure,
)
from .cocone import Splitting
from .graded import (
    Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap,
    SYMMETRIC, TENSOR, format_vector, lin_acc, multilinear_from_graded_map,
)
from .hodge import CartanHomotopy, HodgePackage
from .mc import ArtinElement

_KEYWORDS = ("space", "map", "multilinear", "structure", "morphism",
             "contraction", "dgla", "dgalgebra", "dglamorphism", "dgamorphism",
             "splitting", "element", "hodge", "cartan")


def parse_coeff(tok: str) -> Fraction:
    return Fraction(tok)


def parse_vector(text: str) -> dict:
    """Whitespace-tokenized sum: `3/2*x + y - z`; names may contain +/-
    internally (separators must be free-standing tokens)."""
    text = text.strip()
    if text in ("0", ""):
        return {}
    out: dict = {}
    sign = 1
    for tok in text.split():
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        if "*" in tok:
            coeff, name = tok.split("*", 1)
            c = parse_coeff(coeff)
        else:
            name = tok
            c = Fraction(1)
        lin_acc(out, {name: sign * c})
        sign = 1
    return out


class Document:
    """Parsed file: named spaces, maps, multilinear maps and composites."""

    def __init__(self):
        self.spaces = {}
        self.maps = {}
        self.multilinears = {}
        self.structures = {}
        self.morphisms = {}
        self.contractions = {}
        self.dglas = {}
        self.dgalgebras = {}
        self.dglamorphisms = {}
        self.dgamorphisms = {}
        self.splittings = {}
        self.elements = {}      # name -> (space_name, [(basis, mono_text, coeff)])
        self.hodges = {}
        self.cartans = {}

    def lookup(self, kind: str, name):
        """The stored object of a kind ("structure", "dgla", ...) by name; a
        missing name is a MalformedInput that names it."""
        table = getattr(self, kind + "s")
        if name not in table:
            raise MalformedInput("no %s named %r" % (kind, name))
        return table[name]

    def element(self, name, ring):
        """Materialize a stored element over the given Artin ring."""
        space_name, rows = self.lookup("element", name)
        out = ArtinElement(ring, self.lookup("space", space_name))
        for basis, mono_text, coeff in rows:
            out.add(basis, ring.parse_mono(mono_text), coeff)
        return out


def _sections(text: str):
    header = None
    body = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        first = line.split()[0]
        if first in _KEYWORDS and not line.startswith((" ", "\t")):
            if header is not None:
                yield header, body
            header = line.split()
            body = []
        else:
            if header is None:
                raise MalformedInput("payload line before any section: %r" % line)
            body.append(line.strip())
    if header is not None:
        yield header, body


def parse(text: str) -> Document:
    doc = Document()
    for header, body in _sections(text):
        kind = header[0]
        try:
            _PARSERS[kind](doc, header, body)
        except (KeyError, IndexError, ValueError) as exc:
            raise MalformedInput("bad %s section %r: %s" % (kind, header, exc))
    return doc


def _parse_space(doc, header, body):
    name = header[1]
    basis = []
    for line in body:
        parts = line.split()
        if len(parts) >= 3 and parts[2].startswith("("):
            p, q = parts[2].strip("()").split(",")
            basis.append((parts[0], int(parts[1]), (int(p), int(q))))
        else:
            basis.append((parts[0], int(parts[1])))
    doc.spaces[name] = GradedSpace(basis)


def _parse_map(doc, header, body):
    _, name, src, tgt, deg = header[:5]
    images = {}
    for line in body:
        lhs, rhs = line.split("->")
        key = lhs.strip()
        if key in images:
            raise MalformedInput("repeated key %r" % key)
        images[key] = parse_vector(rhs)
    doc.maps[name] = GradedMap(doc.spaces[src], doc.spaces[tgt], int(deg), images)


def _parse_multilinear(doc, header, body):
    _, name, src, tgt, deg, arity, flavor = header[:7]
    if flavor not in (TENSOR, SYMMETRIC):
        raise MalformedInput("flavor must be tensor or symmetric")
    mm = MultilinearMap(doc.spaces[src], doc.spaces[tgt], int(deg),
                        int(arity), flavor)
    for line in body:
        lhs, rhs = line.split("->")
        names = tuple(t.strip() for t in lhs.strip().strip("()").split(","))
        mm.add_entry(names, parse_vector(rhs))
    doc.multilinears[name] = mm


def _taylor(doc, body, flavor, kind, letter):
    """The Taylor family of `LETTER ARITY NAME` lines; a plain map enters
    only at arity 1."""
    taylor = {}
    for line in body:
        parts = line.split()
        if parts[0] != letter:
            raise MalformedInput("%s lines are `%s ARITY NAME`" % (kind, letter))
        arity = int(parts[1])
        ref = parts[2]
        if arity in taylor:
            raise MalformedInput("repeated key '%s %d'" % (letter, arity))
        if ref in doc.multilinears:
            taylor[arity] = doc.multilinears[ref]
            continue
        gm = doc.maps[ref]
        if arity != 1:
            raise MalformedInput("plain maps only enter at arity 1")
        taylor[arity] = multilinear_from_graded_map(gm, flavor)
    return taylor


def _fields(body, table=None):
    """`KEY REF` lines as {key: table[ref]}, or {key: ref} without a table."""
    fields = {}
    for line in body:
        key, ref = line.split()
        if key in fields:
            raise MalformedInput("repeated key %r" % key)
        fields[key] = ref if table is None else table[ref]
    return fields


def _parse_structure(doc, header, body):
    _, name, space, flavor, mw = header[:5]
    taylor = _taylor(doc, body, flavor, "structure", "q")
    doc.structures[name] = OoStructure(doc.spaces[space], flavor, taylor, int(mw))


def _parse_morphism(doc, header, body):
    _, name, src, tgt = header[:4]
    taylor = _taylor(doc, body, doc.structures[src].flavor, "morphism", "f")
    doc.morphisms[name] = OoMorphism(doc.structures[src], doc.structures[tgt],
                                     taylor)


def _parse_contraction(doc, header, body):
    _, name, small, big = header[:4]
    fields = _fields(body, doc.maps)
    doc.contractions[name] = Contraction(
        doc.spaces[small], fields["d_small"], doc.spaces[big], fields["d_big"],
        fields["inject"], fields["project"], fields["homotopy"])


def _parse_dgla(doc, header, body):
    _, name, space = header[:3]
    fields = _fields(body)
    doc.dglas[name] = DgLieAlgebra(doc.spaces[space], doc.maps[fields["d"]],
                                   doc.multilinears[fields["bracket"]])


def _parse_dgalgebra(doc, header, body):
    _, name, space = header[:3]
    fields = _fields(body)
    doc.dgalgebras[name] = DgAlgebra(doc.spaces[space], doc.maps[fields["d"]],
                                     doc.multilinears[fields["product"]])


def _parse_dglamorphism(doc, header, body):
    _, name, src, tgt, ref = header[:5]
    doc.dglamorphisms[name] = DglaMorphism(doc.dglas[src], doc.dglas[tgt],
                                           doc.maps[ref])


def _parse_dgamorphism(doc, header, body):
    _, name, src, tgt, ref = header[:5]
    doc.dgamorphisms[name] = DgaMorphism(doc.dgalgebras[src],
                                         doc.dgalgebras[tgt], doc.maps[ref])


def _parse_splitting(doc, header, body):
    _, name, ambient = header[:3]
    complement = []
    for line in body:
        parts = line.split()
        if parts[0] != "complement":
            raise MalformedInput("splitting lines are `complement NAMES..`")
        complement.extend(parts[1:])
    amb = doc.dgalgebras.get(ambient) or doc.dglas[ambient]
    doc.splittings[name] = Splitting(amb, complement)


def _parse_element(doc, header, body):
    _, name, space = header[:3]
    rows = []
    for line in body:
        lhs, rhs = line.split("->")
        basis, mono = lhs.split()
        rows.append((basis.strip(), mono.strip(), parse_coeff(rhs.strip())))
    doc.elements[name] = (space, rows)


def _parse_hodge(doc, header, body):
    _, name, aspace, hspace, n = header[:5]
    fields = _fields(body, doc.maps)
    doc.hodges[name] = HodgePackage(
        doc.spaces[aspace], fields["del"], fields["delbar"], doc.spaces[hspace],
        fields["inject"], fields["project"], fields["h"], int(n))


def _parse_cartan(doc, header, body):
    _, name, dgla, vspace, dmap = header[:5]
    i = {}
    for line in body:
        key, ref = (part.strip() for part in line.split("->"))
        if key in i:
            raise MalformedInput("repeated key %r" % key)
        i[key] = doc.maps[ref]
    doc.cartans[name] = CartanHomotopy(doc.dglas[dgla], doc.spaces[vspace],
                                       doc.maps[dmap], i)


_PARSERS = {
    "space": _parse_space, "map": _parse_map, "multilinear": _parse_multilinear,
    "structure": _parse_structure, "morphism": _parse_morphism,
    "contraction": _parse_contraction, "dgla": _parse_dgla,
    "dgalgebra": _parse_dgalgebra, "dglamorphism": _parse_dglamorphism,
    "dgamorphism": _parse_dgamorphism, "splitting": _parse_splitting,
    "element": _parse_element, "hodge": _parse_hodge, "cartan": _parse_cartan,
}


# ---------------------------------------------------------------------------
# writers (used by the CLI to emit fixtures in the same format)


def space_lines(name: str, space: GradedSpace):
    out = ["space %s" % name]
    for n in space.names:
        bid = space.bidegree[n]
        if bid is None:
            out.append("  %s %d" % (n, space.degree[n]))
        else:
            out.append("  %s %d (%d,%d)" % (n, space.degree[n], bid[0], bid[1]))
    return out


def map_lines(name: str, gm: GradedMap, src: str, tgt: str):
    out = ["map %s %s %s %d" % (name, src, tgt, gm.degree)]
    for n in gm.source.names:
        vec = gm.value(n)
        if vec:
            out.append("  %s -> %s" % (n, format_vector(vec, gm.target)))
    return out


def multilinear_lines(name: str, mm: MultilinearMap, src: str, tgt: str):
    out = ["multilinear %s %s %s %d %d %s"
           % (name, src, tgt, mm.degree, mm.arity, mm.flavor)]
    entries = mm.entries
    for key in sorted(entries, key=lambda k: [mm.source.index[n] for n in k]):
        out.append("  (%s) -> %s" % (", ".join(key), format_vector(entries[key], mm.target)))
    return out


def structure_lines(name: str, s: OoStructure, space_name: str, prefix: str):
    """Render a structure plus its Taylor maps (maps named prefix_qK)."""
    out = []
    for k in sorted(s.taylor):
        out.extend(multilinear_lines("%s_q%d" % (prefix, k), s.taylor[k],
                                     space_name, space_name))
    out.append("structure %s %s %s %d" % (name, space_name, s.flavor,
                                          s.max_weight))
    for k in sorted(s.taylor):
        out.append("  q %d %s_q%d" % (k, prefix, k))
    return out


__all__ = ["parse", "parse_vector", "Document", "space_lines", "map_lines",
           "multilinear_lines", "structure_lines"]
