"""The README command corpus and the file-driven commands it misses print
fixed bytes.  Every entry of perfbench/corpus.json that finishes within its
budget runs in-process through hoalg.cli.run and must exit with the recorded
code and print stdout of the recorded sha256; the file is only read here.
Entries marked "expect": "timeout" are left to perfbench/corpus.py, whose
short SIGALRM budget is a timing race, not a byte check.

PINS cover what the corpus does not: file-driven verify, transfer, cocone
and product runs on the fixtures of test_fmt_cli.py and test_fmt_sections.py,
--format machine, the error lines, and examples the README does not name.
Their digests, but for the last five, were recorded before the subcommand
handlers were folded into one table-driven emit path, so they hold the CLI
to its earlier bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hoalg.cli import run
from test_fmt_cli import SAMPLE
from test_fmt_sections import FULL

ROOT = Path(__file__).resolve().parent.parent
CORPUS = [e for e in json.loads((ROOT / "perfbench" / "corpus.json").read_text())
          if e.get("expect") != "timeout"]

FILES = {
    "sample": SAMPLE,
    "bad": SAMPLE + "\nmap bad W W 0\n  u -> 2*u\n  v -> v\n\nmorphism Bad S S\n  f 1 bad\n",
    "transfer": SAMPLE + "\nstructure SV V symmetric 3\n  q 1 d\n\n"
                         "structure TV V tensor 3\n  q 1 d\n",
    "full": FULL,
    "corr": FULL + "\nelement xx E\n\nelement mm E\n  id<-c t1 -> 1\n",
}

# (argv with {file} placeholders, exit code, stdout sha256)
PINS = [
    ('verify structure {sample} --name S', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('verify morphism {sample} --name Id', 0,
     'bdb1282a52c404697973199b17a66a03ae3aec76a6db5fb52828a3fd49e02db6'),
    ('verify morphism {bad} --name Bad', 1,
     '7fea650c73886c1244a3ba2db7567ae1ed281799cae53b75d7b531384b28a7e3'),
    ('verify contraction {sample} --name C', 0,
     'b6546e823415cebc7e91aaf262cc2f49b47b0694e1745c2ccd115ec48ae80e59'),
    ('verify cartan {full} --name CC', 0,
     'e6a74d6981d09e20b06e1b61cb726feed8d7115f4b4e9d50d3296284740163e5'),
    ('verify hodge {full} --name PKG', 0,
     '2d4ee914ec53d05c66e9918f094f4e3d1f0ccdd1f0f078c6c95cee6b4250553d'),
    ('verify structure {sample} --name Nope', 2,
     'a7955cb635ed6ee4e100027ebe49e2c43c21c2f5506136b8f59e84c2e40772c2'),
    ('verify hodge --example torus:1', 0,
     '2d4ee914ec53d05c66e9918f094f4e3d1f0ccdd1f0f078c6c95cee6b4250553d'),
    ('verify cartan --example lambda:1', 0,
     'e6a74d6981d09e20b06e1b61cb726feed8d7115f4b4e9d50d3296284740163e5'),
    ('verify hodge --example lambda:1', 2,
     '528487aea169f76ba1624376731abee50c26da47f4315f5ce957d41a5cba22a9'),
    ('--max-weight 3 transfer {transfer} --structure SV --contraction C', 0,
     'ef810f99bd0be42cdaa9ab9eec45613af27faaec49a152a28cfbb961c553e1a8'),
    ('--max-weight 3 transfer {transfer} --structure TV --contraction C --quasi-inverse', 0,
     'b061e2c5175758c9a2aa10b6488e243029c7252e2b48212ab7cbb46ba9b2e024'),
    ('--max-weight 3 --seed 1 transfer --example end', 0,
     'ef810f99bd0be42cdaa9ab9eec45613af27faaec49a152a28cfbb961c553e1a8'),
    ('--max-weight 3 cocone lie {full} --name incL', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('--max-weight 3 cocone assoc {full} --name incA', 0,
     '1ba799a623ed40fc16171aef88cead942ebd0bb6a427214d89793f617778e258'),
    ('--max-weight 3 cocone fm {full} --name incA', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('--max-weight 3 cocone explog {full} --name incA', 0,
     '3ad4feb7212994a5f066cf2ab6607358c59dd13f7779e881ab87ef2d6204db14'),
    ('--max-weight 3 cocone derived {full} --name SP', 0,
     'e1840cebc2b149692d03142c0ac037271073a27828eb5776bae106d8ad83121a'),
    ('--max-weight 3 --seed 1 cocone assoc --example r', 0,
     '1ba799a623ed40fc16171aef88cead942ebd0bb6a427214d89793f617778e258'),
    ('--max-weight 3 product semidirect {full} --name SP', 2,
     '4f1b2f479b6e84f540945dd8a530bdb8a7064e6c5d085fefba7779e87dc634a9'),
    ('--max-weight 3 product fiber {full} --name SP --dgla EndL --morphism incL', 2,
     '16600bf8ffe0ace7bef3fa296c794221166624fa6290a3be2d28382aa2842354'),
    ('--max-weight 3 --seed 1 product semidirect', 0,
     'fd35404a9e1b5c0e76bde79a6723c2638d0cb83ec10eaf553de7300c4835f136'),
    ('--max-weight 3 --seed 1 product fiber', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('--format machine verify structure {sample} --name S', 0,
     '6dae773f56fd11f6ceb3b93be0a57beb7043788475926a7d065c7e75765656e2'),
    ('--format machine verify morphism {bad} --name Bad', 1,
     '762f724679e61fcb936e1dce04416691ed8ce680598f1de6b1ccf81c07b15120'),
    ('--format machine --max-weight 3 cocone explog --example r:1', 0,
     '6eeac257d5976ac29dddf47d6370afb32e1a2eefd590092d9a82df9ef42bda96'),
    ('--format machine --max-weight 3 transfer --example end:3 --quasi-inverse', 0,
     'aab5ea12163625f2fc845be5f8c9ded0af5ead216944965a73debb948b87e433'),
    ('--format machine --artin 1,4 mc extend {sample} --structure S --element eta --order 3', 0,
     'f3114f57e13db292a8df861469af5a99be39be38c09e713036b2da708dbc1c7b'),
    ('--format machine --max-weight 3 period split --example torus:1', 0,
     '1c51026fa2cf270eafe1e0c2a136e6de4a54bdee1c527fcdf9b8b5f87ef3a5cf'),
    ('--artin 1,3 mc check {sample} --structure S --element xi', 1,
     'c4eaa9807673b763fa703653233f29b45ad90dfbf0786d22a23ab4719223cb4c'),
    ('--artin 1,4 mc extend {sample} --structure S --element xi --order 3', 1,
     'e204fcee876f0f4395494b598819413efc456601c4ef4539b0b74aa079ef09c5'),
    ('--artin 1,3 mc correspond {corr} --morphism incL --x xx --m mm', 0,
     '699429d05ec0ef200c14e8c390bbbb5c45cbf7a3e9bf46fd475af4edc9a3082b'),
    ('--max-weight 3 yukawa v2 --example torus:2', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('--max-weight 3 yukawa v1 --example torus:2', 0,
     '1f80d07f2386634012eeca4c76c38fe718b181ca3373e422432d453b0fbedf04'),
    ('--max-weight 3 yukawa v1 --example lambda:1', 2,
     'd6dff85c30a750f09315ab7ecd55214770012670dfbaa0144c3941dc8f0f275b'),
    ('--max-weight 3 period split --example torus:2 --p 1', 0,
     '134471a8355049b582b4aca88b19532ab97c0ec38e7f58c1b8cbbec02976a9bf'),
    # re-recorded when --p stopped being ignored where nothing reads it: the
    # minimal map reads n only, so the command exits 2
    ('--max-weight 3 period minimal --example torus:1 --p 1', 2,
     '4a5d2b428412a1be6271120a0fbeadcce3338ee6a796aaaf073ea9b9534936be'),
    ('--max-weight 3 period split', 0,
     '134471a8355049b582b4aca88b19532ab97c0ec38e7f58c1b8cbbec02976a9bf'),
    ('example torus --n 3', 0,
     '090181e22063847a855f8e019ad0ab8d7454058efd646418ba17c8db17850509'),
    ('example torus --n 1', 0,
     'cdb7ec9cc845f53282d3696695ba19591a80b4fe75ad2cf482911c62ee01adbb'),
    # recorded when --example of these kinds stopped being ignored, and an
    # unsupported request stopped ending in a traceback
    ('verify structure --example torus:1', 2,
     'a723f2f38ae9af0ccdea8cfb68c3f9a1bee88ca9919ef02f4edefa2b2e39db8a'),
    ('verify morphism --example torus:1', 2,
     'c594b63847281e92fb9122db5c5b9f3ac1036a6ff0aad7923d31978998a4c110'),
    ('verify contraction --example torus:1', 2,
     '21fabc1c6091965328b76a66ed6628e651283f7310957c3302b4e92f83681699'),
    ('--max-weight 3 yukawa v1 --example torus:1', 2,
     '38ec3e06f823d97457b3247013bb626c2920ec132da392bffc6381cdf0901129'),
    ('--max-weight 3 transfer {transfer} --structure SV --contraction C --quasi-inverse', 2,
     '4634e1d0915c8159d820607c245db8becb51905ea6b4cb1a86473d3668098e53'),
]


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(autouse=True)
def _default_weight(monkeypatch):
    monkeypatch.delenv("HOALG_MAX_WEIGHT", raising=False)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: "w%d-%s" % (
    e["max_weight"], "-".join(a for a in e["argv"] if not a.startswith("-"))))
def test_corpus_entry_prints_its_recorded_bytes(entry, monkeypatch):
    monkeypatch.chdir(ROOT)     # the corpus names its input files from the root
    argv = ["--max-weight", str(entry["max_weight"])] + entry["argv"]
    assert _run(argv) == (entry["exit"], entry["stdout_sha256"])


@pytest.mark.parametrize("argv, code, digest", PINS, ids=[p[0] for p in PINS])
def test_file_driven_command_prints_its_pinned_bytes(tmp_path, argv, code, digest):
    paths = {}
    for name, text in FILES.items():
        paths[name] = str(tmp_path / (name + ".alg"))
        Path(paths[name]).write_text(text)
    assert _run([a.format(**paths) for a in argv.split()]) == (code, digest)
