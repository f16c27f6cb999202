from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from hoalg import fmt
from hoalg.cli import run
from hoalg.graded import MalformedInput
from hoalg.hodge import check_cartan, check_hodge_package

FULL = """
# a miniature package exercising every section kind
space V
  c 1 (1,0)
  cb 2 (1,1)

map dV V V 1
  c -> cb

map zeroV V V 1

space E
  id<-c 0
  cb<-c 1

map dE E E 1

multilinear brE E E 0 2 tensor

dgla EndL E
  d dE
  bracket brE

multilinear muE E E 0 2 tensor
  (id<-c, id<-c) -> id<-c
  (id<-c, cb<-c) -> cb<-c

dgalgebra EndA E
  d dE
  product muE

map idE E E 0
  id<-c -> id<-c
  cb<-c -> cb<-c

dglamorphism incL EndL EndL idE
dgamorphism incA EndA EndA idE

splitting SP EndA
  complement cb<-c

space H
  h0 0 (0,0)

space A2
  one 0 (0,0)
  e 0 (0,0)
  de 1 (0,1)

map del2 A2 A2 1
map delbar2 A2 A2 1
  e -> de
map h2 A2 A2 -1
  de -> -1*e
map iota2 H A2 0
  h0 -> one
map pi2 A2 H 0
  one -> h0

hodge PKG A2 H 1
  del del2
  delbar delbar2
  h h2
  inject iota2
  project pi2

space L1
  x 1

map dL1 L1 L1 1
multilinear brL1 L1 L1 0 2 tensor

dgla LL L1
  d dL1
  bracket brL1

map ix A2 A2 0

cartan CC LL A2 delbar2
  x -> ix
"""


def test_parse_every_section_kind():
    doc = fmt.parse(FULL)
    assert doc.dglas["EndL"].check().ok
    assert doc.dgalgebras["EndA"].check().ok
    assert doc.dglamorphisms["incL"].check().ok
    assert doc.dgamorphisms["incA"].check().ok
    assert doc.splittings["SP"].complement_names == ("cb<-c",)
    assert check_hodge_package(doc.hodges["PKG"]).ok
    assert check_cartan(doc.cartans["CC"]).ok


CONTRACTION = """
contraction CT V V
  d_small zeroV
  d_big dV
  inject zeroV
  project zeroV
  homotopy zeroV
"""


@pytest.mark.parametrize("kind, line", [
    ("cartan", "  x -> ix"), ("contraction", "  inject zeroV"),
    ("dgla", "  bracket brL1"), ("hodge", "  h h2"), ("map", "  c -> cb"),
])
def test_repeated_key_in_a_section_is_rejected(kind, line):
    # a second line for the same key used to replace the first without a word
    text = FULL + CONTRACTION
    assert text.count(line + "\n") == 1
    fmt.parse(text)
    with pytest.raises(MalformedInput, match=r"bad %s section .*: repeated key '%s'"
                       % (kind, line.split()[0])):
        fmt.parse(text.replace(line + "\n", line + "\n" + line + "\n"))


TAYLOR = """
map idV V V 0
  c -> c
  cb -> cb

map zeroV0 V V 0

structure SV V tensor 3
  q 1 dV

morphism FV SV SV
  f 1 idV
"""


@pytest.mark.parametrize("kind, line, repeat", [
    ("structure", "  q 1 dV", "  q 1 zeroV"), ("morphism", "  f 1 idV", "  f 1 zeroV0"),
])
def test_repeated_arity_in_a_taylor_section_is_rejected(kind, line, repeat):
    # a second line for the same arity used to drop the first without a word
    text = FULL + TAYLOR
    assert text.count(line + "\n") == 1
    assert fmt.parse(text).structures["SV"].taylor[1]
    with pytest.raises(MalformedInput, match=r"bad %s section .*: repeated key '%s'"
                       % (kind, " ".join(line.split()[:2]))):
        fmt.parse(text.replace(line + "\n", line + "\n" + repeat + "\n"))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture()
def full_file(tmp_path):
    p = tmp_path / "full.alg"
    p.write_text(FULL)
    return str(p)


def test_cli_file_driven_paths(full_file):
    code, out = run_cli(["verify", "hodge", full_file, "--name", "PKG"])
    assert code == 0
    code, out = run_cli(["verify", "cartan", full_file, "--name", "CC"])
    assert code == 0
    code, out = run_cli(["--max-weight", "3", "cocone", "lie", full_file,
                         "--name", "incL"])
    assert code == 0
    code, out = run_cli(["--max-weight", "3", "cocone", "explog", full_file,
                         "--name", "incA"])
    assert code == 0
    code, out = run_cli(["--max-weight", "3", "cocone", "derived", full_file,
                         "--name", "SP"])
    assert code == 0


NON_DGLA = """
space L3
  a 0
  b 1
  c 2

map dL3 L3 L3 1
  a -> b
  b -> c

multilinear brL3 L3 L3 0 2 tensor

dgla LB L3
  d dL3
  bracket brL3

cartan CB LB A2 delbar2
"""


def test_cli_verify_cartan_rejects_a_non_dgla_when_parsed(tmp_path):
    # d^2 != 0 on LB, while every i of CB is zero, so each Cartan identity
    # holds: the homotopy checks its DGLA when the file is parsed, and the
    # command exits 2 before any identity is read
    p = tmp_path / "non_dgla.alg"
    p.write_text(FULL + NON_DGLA)
    code, out = run_cli(["verify", "cartan", str(p), "--name", "CB"])
    assert code == 2
    assert out.startswith("error: bad cartan section") and "input is not a DGLA" in out
    assert "d^2=0" in out


def test_cli_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "repeated.alg"
    p.write_text(FULL.replace("  d dL1\n", "  d dL1\n  d dL1\n"))
    code, out = run_cli(["verify", "cartan", str(p), "--name", "CC"])
    assert code == 2
    assert out.startswith("error: bad dgla section") and "repeated key 'd'" in out


@pytest.mark.parametrize("kind, line, key", [
    ("map", "  c -> cb\n", "c"), ("structure", "  q 1 dV\n", "q 1"),
])
def test_cli_rejects_a_repeated_map_line_or_arity(tmp_path, kind, line, key):
    p = tmp_path / "repeated.alg"
    p.write_text((FULL + TAYLOR).replace(line, line + line))
    code, out = run_cli(["verify", "cartan", str(p), "--name", "CC"])
    assert code == 2
    assert out.startswith("error: bad %s section" % kind) and "repeated key '%s'" % key in out


def test_cli_mc_correspond_file_driven(tmp_path):
    text = FULL + """
element xx L1

element mm E
  id<-c t1 -> 1
"""
    # morphism target must contain the element space; use incL (End to End)
    p = tmp_path / "corr.alg"
    p.write_text(text.replace("element xx L1", "element xx E"))
    code, out = run_cli(["--artin", "1,3", "mc", "correspond", str(p),
                         "--morphism", "incL", "--x", "xx", "--m", "mm"])
    assert code in (0, 1)
    assert "memberships agree" in out
    assert code == 0  # both sides must agree on membership


def test_cli_period_lambda_example():
    code, out = run_cli(["--max-weight", "2", "period", "split",
                         "--example", "lambda:1"])
    assert code == 0


def test_shipped_demo_file_passes():
    import os
    demo = os.path.join(os.path.dirname(__file__), "..", "docs", "demo.alg")
    code, out = run_cli(["verify", "structure", demo, "--name", "S"])
    assert code == 0
    code, out = run_cli(["--artin", "1,3", "mc", "check", demo,
                         "--structure", "S", "--element", "xi"])
    assert code == 0
