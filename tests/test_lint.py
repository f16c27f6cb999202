"""Import hygiene of the library modules, checked with `ast` only: every
module-level import is used or re-exported through `__all__`, no import is
tucked inside a function, no library function enumerates the orderings of a
word (`koszul_sign` and `unshuffles` stay public as the tests' reference),
every true division sits on a reviewed site, the word-by-word pull path,
its memos, the per-word nested products and the test-only fixtures stay
out of the library, sorted words are merged, not re-sorted, no library
function enumerates basis words, every Taylor-map builder stores each arity
through the one checked write, MultilinearMap.store, a stored family is
prefixed onto a pair-space block only by the two-block gluing and the cocone
q1/q2 builders, the period-map chains
are pushed in place from W's basis vectors, with no commutator, per-entry
write, GradedMap copy or composition,
hom-space names are built, never parsed, with [d, -] pushed by one
function, every walk over a product or bracket pushes from one table per
operation, a Cartan homotopy's l_x is built once, into the table that every
reader indexes, the CLI prints from `run` alone, through one `_emit`,
with its parser built from one table of `cmd_*` handlers, only
graded.py builds dense coordinate rows, and every DG axiom is read off a
pushed residual, with no scan over basis words."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = _tree(path)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    local = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert local == []


SIGN_PRIMITIVES = {"koszul_sign", "unshuffles", "permutations", "signed_orderings"}


def _names(node) -> set:
    """Every identifier a syntax tree mentions: names, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name.split(".")[-1])
    return out


def test_no_ordering_enumeration_in_library():
    # ordering sums are pushed to the sorted word, the merge of two sorted
    # words (graded.merge_words), so no function calls an ordering
    # enumerator or a per-ordering sign
    outside = {p.name: sorted(_names(_tree(p)) & SIGN_PRIMITIVES)
               for p in MODULES if p.name != "graded.py"}
    assert {name: found for name, found in outside.items() if found} == {}
    callers = {(p.name, f.name) for p in MODULES for f in ast.walk(_tree(p))
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(c, ast.Call) and _names(c.func) & SIGN_PRIMITIVES
                       for c in ast.walk(f))}
    assert callers == set()


# Coefficients are ints when integral, and int / int is a float, so every `/`
# in the library is a reviewed site whose left operand is known to be a
# Fraction (or is made one).  A new site must be checked and added here.
DIVISION_SITES = {
    ("graded", "bernoulli"),
    ("graded", "append_row"),
    ("cocone", "_fm_cocone_lie"),
    ("cocone", "fm_cocone_assoc"),
}


def _division_sites(path) -> set:
    """(module, innermost enclosing function) of every `/` and `/=`."""
    out = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                out.add((path.stem, inner))
            visit(child, inner)

    visit(_tree(path), None)
    return out


def test_true_division_only_on_reviewed_sites():
    found = set().union(*(_division_sites(p) for p in MODULES))
    assert found - DIVISION_SITES == set()
    # a site that no longer divides is dropped from the list, so it stays exact
    assert DIVISION_SITES - found == set()


# The coalgebra sums are pushed from the Taylor supports; the word-by-word
# evaluators and their (j, k, word) memos live in tests/pull_oracles.py only,
# with the per-word nested product and the ordering enumerator and its sign
# table.  The hodge builders recurse over sorted sub-words, so they do not
# name the k!-ordering sum; the cocone builders grow their words prefix by
# prefix, so they do not enumerate the sorted words either.  The psi double
# sum and the partition-sum splitting coefficient are test oracles too, and
# the fixtures that only the tests build, the members that only the tests
# read (a strictness flag, a bracket of vectors, a commutator DGLA morphism)
# and the dense reference of the harmonic contraction live in
# tests/fixture_helpers.py.
PULL_NAMES = {"_coder_memo", "_morph_memo", "taylor_after", "coder_component",
              "morph_component", "nested", "signed_orderings", "_sign_table"}
TEST_ONLY_FIXTURES = {"sl2_dgla", "heisenberg_dgla", "zero_dgla", "abelian_dgla",
                      "random_end_dgla", "random_artin_element",
                      "is_strict", "bracket_vec", "commutator_dgla_morphism",
                      "_DegreeSplit", "_degree_split", "dense_harmonic_contraction"}
MODULE_PULL_NAMES = {"hodge.py": {"_chain_sum", "psi_double_sum", "split_period_coefficient"},
                     "cocone.py": {"nested", "signed_orderings", "sym_words"}}


def _defined(node) -> set:
    """Every function, class and argument name a syntax tree defines."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.arg):
            out.add(n.arg)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pull_path_in_library(path):
    tree = _tree(path)
    strings = {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    forbidden = PULL_NAMES | TEST_ONLY_FIXTURES | MODULE_PULL_NAMES.get(path.name, set())
    assert (_names(tree) | _defined(tree) | strings) & forbidden == set()


# Every pushed word of S(V) is the merge of two sorted words and is read
# through graded.merge_words.  The retired sort helpers stay gone, and
# sym_normalize sorts only input that arrives unsorted.
RETIRED_SORT_NAMES = {"symmetric_word", "insert_letter"}
SORT_SITES = {("graded", "MultilinearMap.normalize"), ("graded", "MultilinearMap.symmetrized"),
              ("cocone", "CoderAction._norm")}


def _sites_where(path, accept) -> set:
    """(module, enclosing Class.function) of every node that `accept` takes."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if accept(child):
                out.add((path.stem, ".".join(scope)))
            visit(child, inner)

    visit(_tree(path), ())
    return out


def _calls_where(path, accept) -> set:
    """(module, enclosing Class.function) of every call that `accept` takes."""
    return _sites_where(path, lambda node: isinstance(node, ast.Call) and accept(node))


def _call_sites(path, name) -> set:
    """(module, enclosing Class.function) of every call to `name`."""
    return _calls_where(path, lambda call: name in _names(call.func))


def test_sorted_words_are_merged_not_sorted():
    named = {p.name: sorted((_names(_tree(p)) | _defined(_tree(p))) & RETIRED_SORT_NAMES)
             for p in MODULES}
    assert {name: found for name, found in named.items() if found} == {}
    found = set().union(*(_call_sites(p, "sym_normalize") for p in MODULES))
    assert found == SORT_SITES


# Letter-by-letter chains grow through graded's one walk (graded.push), and
# the coalgebra kernels over the prefix stack of coalg._products, so no
# library function enumerates basis words: sym_words serves
# OoStructure.basis_words only, which stays for callers outside the library,
# and transfer.py has no itertools.product expansion.
def test_no_basis_word_enumeration_in_library():
    assert set().union(*(_call_sites(p, "basis_words") for p in MODULES)) == set()
    found = set().union(*(_call_sites(p, "sym_words") for p in MODULES))
    assert found == {("coalg", "OoStructure.basis_words")}
    assert "itertools" not in _names(_tree(SRC / "transfer.py"))


# Every walk over an arity-2 operation reads one int push table, built by
# graded.right_products from the operation's stored entries: its heads are
# the row index of graded's one walk, and its times multiplies two vectors.
# No walk pulls one letter at a time (the retired `step`), every walk or push
# in cocone.py reads heads unpacked from a right_products call, and in
# cocone.py only cocone_associative's one-off table multiplies through
# DgAlgebra.mul, apply_vectors or the stored entries of a product or bracket.
PUSH_TABLE_SITES = {("graded", "right_products")}
ONE_OFF_PRODUCT_SITES = {("cocone", "cocone_associative")}


def _reads_op_entries(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "entries" and \
        isinstance(node.value, ast.Attribute) and node.value.attr in {"product", "bracket"}


def _scales_an_arity_2_family(call) -> bool:
    return _names(call.func) == {"scaled_ints"} and isinstance(call.args[0], ast.Dict) and \
        any(isinstance(k, ast.Constant) and k.value == 2 for k in call.args[0].keys)


def test_walks_push_from_one_table_per_operation():
    cocone = SRC / "cocone.py"
    assert all("step" not in _names(_tree(p)) | _defined(_tree(p)) for p in MODULES)
    found = set().union(*(_calls_where(p, _scales_an_arity_2_family) for p in MODULES))
    assert found == PUSH_TABLE_SITES
    assert _sites_where(cocone, _reads_op_entries) == ONE_OFF_PRODUCT_SITES
    assert _call_sites(cocone, "mul") | _call_sites(cocone, "apply_vectors") == \
        ONE_OFF_PRODUCT_SITES
    walks = [call for call in ast.walk(_tree(cocone)) if isinstance(call, ast.Call)
             and _names(call.func) & {"walk", "push"}]
    assert len(walks) == 8
    assert {type(call.args[1]).__name__ + ":" + getattr(call.args[1], "id", "")
            for call in walks} == {"Name:heads"}
    # every heads in cocone.py is unpacked from a right_products call
    heads = [node.value for node in ast.walk(_tree(cocone)) if isinstance(node, ast.Assign)
             and "heads" in _names(node.targets[0])]
    assert heads and all(_names(value.func) == {"right_products"} for value in heads)


# graded.push is the package's one letter-by-letter walk: graded.walk runs
# it level by level, and every chain of products, brackets or operators
# grows through it.  No other module defines a push, the retired walks stay
# gone (prefix_products and its grow callbacks, hodge's own push, walk and
# joins), and cocone.py and hodge.py carry no table from one pass of a loop
# to the next: a level loop rebinds a table that the loop read before, or
# appends to a list a value read from that list.
RETIRED_WALKS = {"prefix_products", "grow", "_push", "_walk", "_by_row", "_merge",
                 "_prepend"}


def _stored(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)}


def _carried(loop) -> set:
    """The names a `for` loop carries from one pass to the next: rebound by
    an assignment in its body after the body first read them, or appended
    to by a call whose argument reads them."""
    body = [node for stmt in loop.body for node in ast.walk(stmt)]
    first: dict = {}
    for node in sorted((n for n in body if isinstance(n, ast.Name)),
                       key=lambda n: (n.lineno, n.col_offset)):
        first.setdefault(node.id, node.ctx)
    out = {name for name, ctx in first.items() if isinstance(ctx, ast.Load)} & \
        {t.id for n in body if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
         for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
         if isinstance(t, ast.Name)}
    for call in body:
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and \
                call.func.attr == "append" and isinstance(call.func.value, ast.Name) and \
                call.func.value.id in set().union(*(_names(a) for a in call.args)):
            out.add(call.func.value.id)
    return out


def test_one_walk_in_graded():
    defines = {p.name for p in MODULES if "push" in _defined(_tree(p))}
    assert defines == {"graded.py"}
    named = {p.name: sorted((_defined(_tree(p)) | _stored(_tree(p))) & RETIRED_WALKS)
             for p in MODULES}
    assert {name: found for name, found in named.items() if found} == {}
    for name in ("cocone.py", "hodge.py"):
        loops = [node for node in ast.walk(_tree(SRC / name)) if isinstance(node, ast.For)]
        assert loops and {(node.lineno, tuple(sorted(_carried(node)))) for node in loops
                          if _carried(node)} == set(), name


# Every hand-rolled sparse accumulate, x[k] = x.get(k, 0) + .., sits on a
# reviewed site, as every division does: the int kernels of coalg, the
# exact sums lin_acc and lin_add that graded.push and every other builder
# call, right_products' times, and the int Maurer-Cartan series of mc with
# its Artin word products.
ACCUMULATE_SITES = {
    ("coalg", "_insertion"), ("coalg", "_products"), ("graded", "lin_acc"),
    ("graded", "lin_add"), ("graded", "right_products.times"), ("mc", "_exp_series"),
    ("mc", "_word_product"),
}


def _accumulates(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and \
        isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Attribute) and \
        node.left.func.attr == "get" and len(node.left.args) == 2 and \
        isinstance(node.left.args[1], ast.Constant) and node.left.args[1].value == 0


def test_hand_rolled_accumulates_only_on_reviewed_sites():
    found = set().union(*(_sites_where(p, _accumulates) for p in MODULES))
    assert found == ACCUMULATE_SITES


# Every library builder of a Taylor map or of an End(V) operation hands
# MultilinearMap.store, the one checked write, a finished {canonical word:
# vector} table per arity, either itself, through coalg.pushed_map, which
# stores a push kernel's int output at its scale, or, for a structure on a
# two-block space (semidirect, fiber product, both Yukawa models), through
# cocone.glued_structure, which stores each arity once.  The builders make
# no per-entry write (set_entry, add_entry) and no per-entry Fraction product
# (lin_scale).  add_entry serves the parser only, and the retired per-word
# writers stay gone.
STORE_BUILDERS = {
    ("coalg", "compose_morphisms"), ("coalg", "invert_morphism"),
    ("coalg", "transport_structure"), ("coalg", "_decalage"),
    ("coalg", "decalage_dgla_morphism"), ("coalg", "sub_algebra"),
    ("coalg", "end_dga"), ("coalg", "DgAlgebra.commutator_dgla"),
    ("transfer", "transfer_structure"), ("transfer", "transfer_quasi_inverse"),
    ("cocone", "_fm_cocone_lie"), ("cocone", "fm_cocone_assoc"), ("cocone", "exp_log_isos"),
    ("cocone", "_cocone_q1"), ("cocone", "derived_products_model"),
    ("cocone", "_derived_brackets"), ("cocone", "semidirect_product"),
    ("cocone", "fiber_product_model"), ("cocone", "strictify_fibration"),
    ("cocone", "glued_structure"), ("hodge", "_hom_maps"), ("hodge", "yukawa_model"),
    ("hodge", "yukawa_model_v2"), ("hodge", "derived_hom_structure"),
    ("graded", "multilinear_from_graded_map"),
}
BULK_STORE_SITES = {
    ("graded", "MultilinearMap.set_entry"), ("graded", "MultilinearMap.add_entry"),
    ("graded", "MultilinearMap.symmetrized"), ("graded", "multilinear_from_graded_map"),
    ("coalg", "pushed_map"), ("coalg", "_decalage"), ("coalg", "decalage_dgla_morphism"),
    ("coalg", "sub_algebra"), ("coalg", "end_dga"), ("coalg", "DgAlgebra.commutator_dgla"),
    ("cocone", "_fm_cocone_lie"), ("cocone", "fm_cocone_assoc"),
    ("cocone", "exp_log_isos.word_maps"), ("cocone", "_cocone_q1"),
    ("cocone", "cocone_associative"), ("cocone", "derived_products_model"),
    ("cocone", "derived_products_model.g_taylor"), ("cocone", "_derived_brackets"),
    ("cocone", "glued_structure"), ("cocone", "strictify_fibration"),
    ("hodge", "_hom_maps"), ("hodge", "derived_hom_structure"),
}
PUSHED_MAP_SITES = {
    ("coalg", "compose_morphisms"), ("coalg", "invert_morphism"),
    ("coalg", "transport_structure"),
    ("transfer", "transfer_structure"), ("transfer", "transfer_quasi_inverse"),
}
RETIRED_WRITERS = {"_write", "add_prefixed", "product_terms"}


@pytest.mark.parametrize("name", ["set_entry", "add_entry", "lin_scale"])
def test_cocone_builders_write_in_bulk(name):
    found = set().union(*(_call_sites(p, "store") for p in MODULES))
    assert found == BULK_STORE_SITES
    found = set().union(*(_call_sites(p, "pushed_map") for p in MODULES))
    assert found == PUSHED_MAP_SITES
    calls = set().union(*(_call_sites(p, name) for p in MODULES))
    assert {(module, scope) for module, scope in calls
            if {(module, scope.split(".")[0]), (module, ".".join(scope.split(".")[:2]))}
            & STORE_BUILDERS} == set()
    if name == "add_entry":
        assert {site for site in calls if site[0] != "graded"} == {("fmt", "_parse_multilinear")}
    named = {p.name: sorted((_names(_tree(p)) | _defined(_tree(p))) & RETIRED_WRITERS)
             for p in MODULES}
    assert {module: hits for module, hits in named.items() if hits} == {}


# A stored family reaches a block of a pair space through graded.prefixed
# only in the gluing of two-block structures and in the cocone q1/q2
# builders, so no builder re-prefixes a stored family on its own.
PREFIXED_SITES = {("cocone", name) for name in (
    "glued_structure", "_fm_cocone_lie", "_cocone_q1", "cocone_associative", "fm_cocone_assoc")}


def test_families_are_prefixed_only_by_the_gluing():
    assert set().union(*(_call_sites(p, "prefixed") for p in MODULES)) == PREFIXED_SITES


# The period-map layer pushes from the nonzeros: derived_hom_structure reads
# both arities straight from d's entries, and the period maps walk from W.
# Every chain is a table of vectors on the basis of W, pushed by graded's one
# walk into one entries dict per word, to the heads indexed by the row they
# read.  No walk site builds a commutator, writes entry by entry, copies a
# running GradedMap through add or scale or composes a GradedMap, and the
# GradedMap cut sums stay gone.
WALK_SITES = {("hodge", name) for name in (
    "_reach", "_propagator_words", "_contraction_words", "split_period_map",
    "yukawa_model_v2")} | {("graded", name) for name in ("push", "walk", "by_row")}
IN_PLACE_SITES = {("hodge", "derived_hom_structure")} | WALK_SITES


def _walk_calls(name) -> set:
    return set().union(*(_call_sites(SRC / (module + ".py"), name)
                         for module in {module for module, _ in IN_PLACE_SITES}))


@pytest.mark.parametrize("name", ["commutator", "set_entry", "add", "scale"])
def test_period_sums_push_from_nonzeros_in_place(name):
    for module in {module for module, _ in IN_PLACE_SITES}:
        assert {scope for mod, scope in IN_PLACE_SITES if mod == module} <= \
            _defined(_tree(SRC / (module + ".py")))
    assert _walk_calls(name) & IN_PLACE_SITES == set()


def test_period_maps_walk_from_w():
    hodge = _tree(SRC / "hodge.py")
    assert "_cut_sums" not in _names(hodge) | _defined(hodge)
    assert _walk_calls("compose") & WALK_SITES == set()


# A Cartan homotopy derives l_x = [d_V, i_x] + i_{d_L x} once, on
# construction, into its table `l`, and every reader indexes that table.  So
# in hodge.py only the constructor and check_cartan take a commutator, nothing
# calls an `l(..)` method, and no library function but the constructor
# stores an `l` table.  The lambda fixture's commutators outside hodge.py
# derive L's differential and bracket, before any homotopy exists.
CARTAN_COMMUTATOR_SITES = {("hodge", "CartanHomotopy.__init__"), ("hodge", "check_cartan")}
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _is_l_table(node, ctx) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "l" and isinstance(node.ctx, ctx)


def test_cartan_l_table_is_built_once():
    assert _call_sites(SRC / "hodge.py", "commutator") == CARTAN_COMMUTATOR_SITES
    calls = set().union(*(_calls_where(p, lambda call: _is_l_table(call.func, ast.Load))
                          for p in MODULES + TESTS))
    assert calls == set()
    stores = set().union(*(_sites_where(p, lambda node: _is_l_table(node, ast.Store))
                           for p in MODULES))
    assert stores == {("hodge", "CartanHomotopy.__init__")}


# A hom space's elementary maps `t<-s` are named from their parts and never
# parsed, so spaces whose own names hold "<-", like End(End(V)), work too.
# Only graded.elementary_to_graded_map, which reads a combination back as a
# GradedMap, splits a name.  [d, -] on every hom space is the one push
# graded.hom_differential, not a commutator per elementary map.
NAME_SPLIT_SITES = {("graded", "elementary_to_graded_map")}
HOM_DIFFERENTIAL_SITES = {("coalg", "end_dga"), ("hodge", "derived_hom_structure"),
                          ("hodge", "yukawa_model_v2")}


def _splits_hom_name(call) -> bool:
    return isinstance(call.func, ast.Attribute) and \
        call.func.attr in {"split", "rsplit", "partition", "rpartition"} and \
        any(isinstance(a, ast.Constant) and a.value == "<-" for a in call.args)


def test_hom_names_are_built_not_parsed():
    found = set().union(*(_calls_where(p, _splits_hom_name) for p in MODULES))
    assert found == NAME_SPLIT_SITES
    found = set().union(*(_call_sites(p, "hom_differential") for p in MODULES))
    assert found == HOM_DIFFERENTIAL_SITES
    found = set().union(*(_call_sites(p, "commutator") for p in MODULES))
    assert found & HOM_DIFFERENTIAL_SITES == set()


# The CLI has one emit path: every cmd_* handler takes only `args` and returns
# (stdout lines, exit code) built by _emit, the only reader of --format, and
# run alone prints.  build_parser reads _COMMANDS, whose handlers are exactly
# the module's cmd_* functions, and argparse's choices leave no "unknown kind".
CLI = SRC / "cli.py"


def _prints(call) -> bool:
    return _names(call.func) == {"print"} or (
        isinstance(call.func, ast.Attribute) and call.func.attr == "write"
        and _names(call.func.value) == {"sys", "stdout"})


def test_cli_has_one_emit_path():
    tree = _tree(CLI)
    assert _calls_where(CLI, _prints) == {("cli", "run")}
    handlers = {f.name: [a.arg for a in f.args.args] for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")}
    assert handlers and handlers == {name: ["args"] for name in handlers}
    reads = _sites_where(CLI, lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "format" and _names(node.value) == {"args"})
    assert reads == {("cli", "_emit")}
    table = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and _names(node.targets[0]) == {"_COMMANDS"}]
    assert len(table) == 1
    assert {entry.elts[0].id for entry in table[0].values} == set(handlers)
    strings = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert [text for text in strings if text.startswith("unknown") and "kind" in text] == []


# Vectors are sparse dicts, and every elimination works on them, so no
# module builds a dense coordinate row, a list of `.get(name, 0)` over basis
# names.
def _builds_dense_row(node) -> bool:
    return isinstance(node, ast.ListComp) and any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get" and len(call.args) == 2
        and isinstance(call.args[1], ast.Constant) and call.args[1].value == 0
        for call in ast.walk(node.elt))


def test_no_module_builds_dense_rows():
    found = set().union(*(_sites_where(p, _builds_dense_row) for p in MODULES))
    assert found == set()


# Every DG algebra, DGLA and DG-morphism axiom is read off a pushed residual:
# the [Q,Q] residual of the tensor decalage, check_morphism between two
# decalages, or the antisymmetry and Jacobi tables pushed from the bracket's
# entries.  The word-scan helpers stay gone, and coalg enumerates ordered
# words only in OoStructure.basis_words.
RETIRED_DG_SCANS = {"_touching", "_dg_check", "_first_nonzero"}


def _is_itertools_product(call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "product" and \
        isinstance(call.func.value, ast.Name) and call.func.value.id == "itertools"


def test_dg_axioms_are_read_off_pushed_residuals():
    named = {p.name: sorted((_names(_tree(p)) | _defined(_tree(p))) & RETIRED_DG_SCANS)
             for p in MODULES}
    assert {name: found for name, found in named.items() if found} == {}
    assert _calls_where(SRC / "coalg.py", _is_itertools_product) == \
        {("coalg", "OoStructure.basis_words")}
