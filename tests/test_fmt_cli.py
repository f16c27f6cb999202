from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from hoalg import fmt
from hoalg.cli import run
from hoalg.graded import MalformedInput
from hoalg.mc import ArtinRing

SAMPLE = """
# a two-dimensional acyclic complex with its shifted structure
space V
  x 0
  y 1

map d V V 1
  x -> y

space W
  u 0
  v 1

map q1 W W 1
  u -> -1*v

multilinear zero2 W W 1 2 symmetric

structure S W symmetric 3
  q 1 q1

map idw W W 0
  u -> u
  v -> v

morphism Id S S
  f 1 idw

space Z

map dz Z Z 1
map z2v Z V 0
map v2z V Z 0
map K V V -1
  y -> -1*x

contraction C Z V
  d_small dz
  d_big d
  inject z2v
  project v2z
  homotopy K

element xi W
  u t1 -> 2
  u t1^2 -> -3/2

element eta W
"""


def test_parse_roundtrip_objects():
    doc = fmt.parse(SAMPLE)
    assert doc.spaces["V"].degree["y"] == 1
    assert doc.maps["d"].value("x") == {"y": Fraction(1)}
    s = doc.structures["S"]
    assert s.taylor[1].value(("u",)) == {"v": Fraction(-1)}
    ring = ArtinRing(1, 3)
    xi = doc.element("xi", ring)
    assert xi.terms == {("u", (1,)): Fraction(2), ("u", (2,)): Fraction(-3, 2)}


def test_parse_vector_forms():
    assert fmt.parse_vector("0") == {}
    assert fmt.parse_vector("2/4*x + y - 3*z") == \
        {"x": Fraction(1, 2), "y": Fraction(1), "z": Fraction(-3)}


def test_parse_rejects_orphan_payload():
    with pytest.raises(MalformedInput):
        fmt.parse("  x 0\n")


def test_writer_reader_roundtrip():
    doc = fmt.parse(SAMPLE)
    lines = []
    lines.extend(fmt.space_lines("W", doc.spaces["W"]))
    lines.extend(fmt.map_lines("q1", doc.maps["q1"], "W", "W"))
    lines.extend(fmt.structure_lines("S", doc.structures["S"], "W", "s"))
    doc2 = fmt.parse("\n".join(lines))
    assert doc2.structures["S"].taylor[1] == doc.structures["S"].taylor[1]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture()
def sample_file(tmp_path):
    p = tmp_path / "sample.alg"
    p.write_text(SAMPLE)
    return str(p)


def test_cli_verify_structure_and_exit_codes(sample_file):
    code, out = run_cli(["verify", "structure", sample_file, "--name", "S"])
    assert code == 0
    assert "result: PASS" in out
    code, out = run_cli(["verify", "contraction", sample_file, "--name", "C"])
    assert code == 0


def test_cli_parse_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("space V\n  x zero\n")
    code, out = run_cli(["verify", "structure", str(bad), "--name", "S"])
    assert code == 2
    code, out = run_cli(["verify", "structure", str(tmp_path / "nope.alg"),
                         "--name", "S"])
    assert code == 2


def test_cli_missing_name_is_exit_2_and_named(sample_file):
    code, out = run_cli(["verify", "structure", sample_file, "--name", "Nope"])
    assert (code, out) == (2, "error: no structure named 'Nope'\n")
    code, out = run_cli(["--artin", "1,3", "mc", "check", sample_file,
                         "--structure", "S", "--element", "nope"])
    assert (code, out) == (2, "error: no element named 'nope'\n")


@pytest.mark.parametrize("mono", ["t1^-1", "t1^x", "tx", "t"])
def test_cli_malformed_monomial_is_exit_2(tmp_path, mono):
    # a negative power once parsed to a unit and passed; the others raised
    # a bare ValueError with a traceback
    demo = open(DEMO).read().replace("y t1 -> 1", "y %s -> 1" % mono)
    path = tmp_path / "demo.alg"
    path.write_text(demo)
    code, out = run_cli(["--artin", "1,3", "mc", "check", str(path),
                         "--structure", "S", "--element", "xi"])
    assert (code, out) == (2, "error: bad monomial %r\n" % mono)


@pytest.mark.parametrize("argv", [
    ["--artin", "1x3", "mc", "check", "{file}", "--structure", "S", "--element", "xi"],
    ["--artin", "a,3", "mc", "check", "{file}", "--structure", "S", "--element", "xi"],
    ["period", "split", "--example", "torus:two"],
    ["cocone", "fm", "--example", "r:x"],
])
def test_cli_malformed_integer_flag_is_exit_2(sample_file, argv):
    # run_cli would raise on a traceback; a malformed number is a usage error
    code, out = run_cli([a.replace("{file}", sample_file) for a in argv])
    assert code == 2
    assert out.startswith("error: ") and "not an integer" in out


@pytest.mark.parametrize("argv,why", [
    (["period", "split", "--example", "torus:2", "--p", "7"], "1 <= p <= n"),
    (["period", "split", "--example", "torus:2", "--p", "0"], "1 <= p <= n"),
    (["period", "split", "--example", "lambda:1", "--p", "5"], "1 <= p <= holo"),
    (["period", "minimal", "--example", "torus:1", "--p", "1"], "read only by period split"),
    (["period", "split", "--p", "1"], "read only by period split"),
    (["period", "split", "--example", "synthetic:1", "--p", "2"], "read only by period split"),
])
def test_cli_period_p_fails_loudly(argv, why):
    # an empty W or complement once printed no arity and PASS, and --p was
    # ignored where nothing reads it
    code, out = run_cli(["--max-weight", "3"] + argv)
    assert code == 2
    assert out.startswith("error: ") and why in out


YUKAWA_MC = """structure equation: PASS
RELATION QQ=0 weight=1 tuple=- lhs=- rhs=- status=PASS
RELATION QQ=0 weight=2 tuple=- lhs=- rhs=- status=PASS
RELATION QQ=0 weight=3 tuple=- lhs=- rhs=- status=PASS
quadratic maurer-cartan residual table:
  xi=t1b1 -> 0
  xi=t1b2 -> 0
  xi=t2b1 -> 0
  xi=t2b2 -> 0
  xi=t1b1+t1b2 -> 0
  xi=t1b1+t2b1 -> 0
  xi=t1b1+t2b2 -> b:dzb1^dzb2<-dz1^dz2 t1^2 -> 1
  xi=t1b2+t2b1 -> b:dzb1^dzb2<-dz1^dz2 t1^2 -> -1
  xi=t1b2+t2b2 -> 0
  xi=t2b1+t2b2 -> 0
result: PASS
"""


@pytest.mark.parametrize("tail", [["--example", "torus:2", "mc"], ["mc", "--example", "torus:2"]],
                         ids=["action-last", "action-first"])
def test_cli_yukawa_action_before_or_after_the_options(tail):
    # the action word may follow the options; both orders print these bytes
    code, out = run_cli(["--max-weight", "3", "--artin", "1,3", "yukawa", "v1"] + tail)
    assert (code, out) == (0, YUKAWA_MC)


@pytest.mark.parametrize("argv", [
    ["yukawa", "v1", "--example", "torus:2", "foo"],
    ["yukawa", "v1", "--example", "torus:2", "mc", "mc"],
    ["yukawa", "v1", "mc", "--example", "torus:2", "mc"],
    ["cocone", "lie", "--example", "r:1", "mc"],
])
def test_cli_stray_trailing_word_is_exit_2(argv):
    code, out = run_cli(["--max-weight", "3"] + argv)
    assert (code, out) == (2, "")


def test_cli_internal_key_error_propagates(sample_file, monkeypatch):
    # a KeyError inside a command is a bug, not a parse error: no exit 2
    def broken(*args, **kwargs):
        raise KeyError("internal")
    monkeypatch.setattr("hoalg.cli.check_structure", broken)
    with pytest.raises(KeyError):
        run_cli(["verify", "structure", sample_file, "--name", "S"])


def test_cli_out_of_memory_is_exit_3(sample_file, monkeypatch):
    # running out of memory is neither a failed verification (1) nor a usage
    # error (2): one error line and its own code, with nothing else printed
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("hoalg.cli.check_structure", exhausted)
    code, out = run_cli(["verify", "structure", sample_file, "--name", "S"])
    assert (code, out) == (3, "error: out of memory\n")


@pytest.mark.parametrize("mib", [60, 100, 150])
def test_cli_real_out_of_memory_is_exit_3(mib):
    # a child whose address space is capped runs out inside the derived-products
    # builders of weight-9 `cocone derived` (its peak is several hundred MB), and
    # the MemoryError reaches `run` intact; the previous builders let it out as
    # "SystemError: error return without exception set" at 60 and 150 MiB
    import resource
    import subprocess
    import hoalg
    root = os.path.dirname(os.path.dirname(hoalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    cap = mib * 2 ** 20
    proc = subprocess.run(
        [sys.executable, "-m", "hoalg.cli", "--max-weight", "9", "cocone", "derived",
         "--example", "r:1"], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout) == (3, "error: out of memory\n"), proc.stderr


def test_cli_mathematical_failure_is_exit_1(tmp_path):
    text = SAMPLE + """
map bad W W 0
  u -> 2*u
  v -> v

morphism Bad S S
  f 1 bad
"""
    p = tmp_path / "bad.alg"
    p.write_text(text)
    code, out = run_cli(["verify", "morphism", str(p), "--name", "Bad"])
    assert code == 1
    assert "status=FAIL" in out


def test_cli_mc_check_and_extend(sample_file):
    code, out = run_cli(["--artin", "1,3", "mc", "check", sample_file,
                         "--structure", "S", "--element", "xi"])
    assert code == 1  # q1(xi) != 0: not Maurer-Cartan
    assert "residual" in out
    code, out = run_cli(["--artin", "1,3", "mc", "check", sample_file,
                         "--structure", "S", "--element", "eta"])
    assert code == 0  # the zero element is Maurer-Cartan
    code, out = run_cli(["--artin", "1,4", "mc", "extend", sample_file,
                         "--structure", "S", "--element", "xi", "--order", "1"])
    assert code == 2  # element has terms beyond m^1: shape error
    code, out = run_cli(["--artin", "1,4", "mc", "extend", sample_file,
                         "--structure", "S", "--element", "xi", "--order", "3"])
    assert code == 1  # not Maurer-Cartan mod m^3, no lift claim


def test_cli_determinism_byte_identical():
    for argv in (["--max-weight", "3", "cocone", "explog", "--example", "r:1"],
                 ["--max-weight", "3", "--artin", "1,3", "yukawa", "v1",
                  "--example", "torus:2", "mc"],
                 ["example", "torus", "--n", "2"],
                 ["--max-weight", "3", "period", "minimal",
                  "--example", "synthetic:1"]):
        runs = [run_cli(argv) for _ in range(2)]
        assert runs[0] == runs[1]


def test_cli_machine_format():
    code, out = run_cli(["--format", "machine", "verify", "cartan",
                         "--example", "torus:1"])
    assert code == 0
    assert out.strip().endswith("result=pass")
    assert all(line.startswith(("RELATION", "result="))
               for line in out.strip().splitlines())


def test_cli_example_torus_matches_golden():
    code, out = run_cli(["example", "torus", "--n", "1"])
    assert code == 0
    golden = open(os.path.join(os.path.dirname(__file__), "golden",
                               "torus_n1.txt")).read().splitlines()
    tail = out.strip().splitlines()[-len(golden):]
    assert tail == golden


@pytest.mark.parametrize("kind", ("explog", "lie"))
def test_cli_cocone_at_weight_8_matches_golden(kind):
    # weight 8 reaches the largest denominators the cocones carry (q_7 of the
    # FM cocone that explog checks holds B_6/6! = 1/30240, and e_8 holds
    # 1/8!); the files were recorded before the push kernels summed scaled ints
    code, out = run_cli(["--max-weight", "8", "cocone", kind, "--example", "r:1"])
    assert code == 0
    path = os.path.join(os.path.dirname(__file__), "golden", "cocone_%s_w8_r1.txt" % kind)
    with open(path, "rb") as fh:
        assert out.encode() == fh.read()


def test_cli_max_weight_env_override(monkeypatch):
    monkeypatch.setenv("HOALG_MAX_WEIGHT", "2")
    from hoalg.cli import build_parser
    args = build_parser().parse_args(["verify", "cartan", "--example", "torus:1"])
    assert args.max_weight == 2


@pytest.mark.parametrize("env, argv", [
    (None, ["--max-weight", "0", "period", "split", "--example", "lambda:1"]),
    (None, ["--max-weight", "0", "cocone", "explog", "--example", "r:1"]),
    (None, ["--max-weight", "0", "cocone", "derived", "--example", "r:1"]),
    (None, ["--max-weight", "-1", "verify", "cartan", "--example", "torus:1"]),
    (None, ["--max-weight", "two", "verify", "cartan", "--example", "torus:1"]),
    ("x", ["verify", "cartan", "--example", "torus:1"]),
    ("0", ["verify", "cartan", "--example", "torus:1"]),
], ids=["period-0", "explog-0", "derived-0", "negative", "word", "env-word", "env-0"])
def test_cli_max_weight_below_one_is_a_usage_error(monkeypatch, env, argv):
    # a weight below 1 checks nothing, so it is refused before any command
    # runs, from the flag and from HOALG_MAX_WEIGHT alike
    if env is None:
        monkeypatch.delenv("HOALG_MAX_WEIGHT", raising=False)
    else:
        monkeypatch.setenv("HOALG_MAX_WEIGHT", env)
    assert run_cli(argv) == (2, "")


@pytest.mark.parametrize("argv", [
    ["verify", "structure", "--name", "S"],
    ["cocone", "fm", "--name", "f"],
    ["transfer", "--structure", "S", "--contraction", "C"],
], ids=lambda argv: argv[0])
def test_cli_file_command_without_file_or_example_is_exit_2(argv):
    # with no input to read, the command names what it needs
    assert run_cli(argv) == (2, "error: %s needs FILE or --example\n" % argv[0])


@pytest.mark.parametrize("argv, message", [
    (["yukawa", "v1", "--example", "torus:1"], "the fiber-product models need n >= 2"),
    (["transfer", "{file}", "--structure", "SV", "--contraction", "C", "--quasi-inverse"],
     "explicit quasi-inverse is implemented for the tensor flavor only"),
], ids=["yukawa-torus1", "transfer-symmetric-quasi-inverse"])
def test_cli_unsupported_request_is_exit_2(tmp_path, argv, message):
    # a request the engine does not support is a usage error with an error
    # line, not a traceback with exit 1, the "verification failed" code
    path = tmp_path / "sv.alg"
    path.write_text(SAMPLE + "\nstructure SV V symmetric 3\n  q 1 d\n")
    argv = ["--max-weight", "3"] + [a.replace("{file}", str(path)) for a in argv]
    assert run_cli(argv) == (2, "error: %s\n" % message)


@pytest.mark.parametrize("kind", ["v1", "v2"])
def test_cli_yukawa_mc_needs_a_generator(kind):
    # over Q[t]/m^N with no generator m_B = 0, so there is no element xi to
    # test: one error line and exit 2, not a residual at the constant term
    code, out = run_cli(["--max-weight", "3", "--artin", "0,3", "yukawa", kind,
                         "--example", "torus:2", "mc"])
    assert (code, out) == (2, "error: yukawa ... mc needs --artin g,N with g >= 1\n")


@pytest.mark.parametrize("kind", ["structure", "morphism", "contraction"])
def test_cli_verify_example_serves_cartan_and_hodge_only(kind):
    # without FILE the error once said --example was missing although it was given
    want = (2, "error: verify %s needs FILE: --example serves cartan and hodge only\n" % kind)
    assert run_cli(["verify", kind, "--example", "torus:1"]) == want


def test_cli_verify_structure_file_with_example_verifies_file(sample_file):
    # given FILE, verify structure reads FILE and leaves --example unused
    argv = ["verify", "structure", sample_file, "--name", "S"]
    assert run_cli(argv + ["--example", "torus:1"]) == run_cli(argv)
    assert run_cli(argv)[0] == 0


DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "docs", "demo.alg")


@pytest.mark.parametrize("cli_args", [
    ["--max-weight", "3", "--artin", "1,3", "yukawa", "v1", "--example", "torus:2", "mc"],
    # the lift depends on the order in which the exponential series accumulates terms
    ["--artin", "1,4", "mc", "extend", DEMO, "--structure", "S", "--element", "xi",
     "--order", "3"],
    # pushed sums, in both flavors, accumulate into dicts before the witness sort
    ["cocone", "explog", "--example", "r:1"],
    ["--max-weight", "4", "cocone", "derived", "--example", "r:1"],
    ["cocone", "lie", "--example", "r:1"],
    ["--max-weight", "4", "period", "split", "--example", "torus:2"],
    # sub-word memos are dicts filled from dicts, then written in basis order
    ["period", "split", "--example", "torus:2"],
    ["period", "minimal", "--example", "torus:2"],
    # the walks grow dicts of words from dicts, at README weight
    ["cocone", "derived", "--example", "r:1"],
    ["product", "semidirect", "--example", "end:0"],
    ["product", "fiber", "--example", "end:0"],
], ids=["yukawa", "mc-extend", "cocone-explog", "cocone-derived", "cocone-lie",
        "period-split", "period-split-readme", "period-minimal-readme",
        "cocone-derived-readme", "product-semidirect", "product-fiber"])
def test_cli_determinism_across_processes(cli_args):
    import subprocess
    import hoalg
    # Run the CLI module with this interpreter rather than the `hoalg`
    # console script, which exists only after `pip install`; put the tree
    # under test first on the child's path so an installed copy is not used.
    root = os.path.dirname(os.path.dirname(hoalg.__file__))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH"))
                           if p)
    argv = [sys.executable, "-m", "hoalg.cli"] + cli_args
    outs = []
    errs = []
    # Different hash seeds, so set iteration order differs between the runs.
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        outs.append((proc.returncode, proc.stdout))
        errs.append(proc.stderr)
    assert outs[0] == outs[1], errs
    assert outs[0][0] == 0, errs[0]
