"""Golden stdout of the CLI: the sha256 of what one cheap call of each
subcommand prints, so that a refactor of the front end is caught by the
first changed byte.  Also pins the exit code and the stderr JSON of one
parameter error and one computation error, and replays every command of the
benchmark's ``perfbench/digests.json``."""

import hashlib
import json
from pathlib import Path

import pytest

from eiscong.cli import fixture_path, main

RECORDS = fixture_path("example37.json")

GOLDEN = [
    (("bernoulli", "--n", "12"),
     "a732fbf20cdcb95ec7624e1c67c4ba2e9fdbe6c490728ceb190eceba6c282d7f"),
    (("eta", "--p", "37", "--k", "32", "--sigma", "31,37"),
     "4bdae041fe6f14258c5a5380cf1caca1d4e0b003f8965f862373b2b3f9451853"),
    (("chars", "--f", "31", "--parity", "-1", "--conductor", "31"),
     "3d1a235c6f26336ee38226937a93057cf9310224fd08756da4f52d06e2deaada"),
    (("eisenstein", "--l", "12", "--prec", "6"),
     "6f21d27646e71225bcec23ae09c9a2cffe7dce6e43c3c364f56eb77ac11c64c7"),
    (("build-h", "--p", "691", "--k", "12", "--ell", "29", "--sigma", "29,691",
      "--prec", "10"),
     "86f34c8972ea902f6e87ca9ae716c9abe6d91cb3a014054d354fee334f61b87d"),
    (("scan", "--k", "12", "--p", "691", "--sigma", "691"),
     "68c407b203b791a9080d34a0512216b6619258082d6184f783911e368d44fac5"),
    (("selmer", "--p", "37", "--k", "32", "--sigma", "31,37"),
     "b37b1b5472aa60c2eb1f96fc4f8f897b498c6486e7ee26adad2cc6c460551dc5"),
    (("aux-char", "--p", "37", "--k", "32", "--ell", "31"),
     "5def9c4b90a925bc532e28275c1cca982c45b5d502e2a262d353e152880b1594"),
    (("kummer", "--p", "37", "--k", "32"),
     "04cbcb097dfbc8542f2a46924d29054217196d900bc5c07ac23da77037b4f4ec"),
    (("criterion", "--p", "37", "--k", "32", "--sigma", "31,37", "--records", RECORDS,
      "--assume-nontrivial-extension"),
     "e55f33c29e259e30a4dd291266bfabf49c839d4b0f83cbec97a976b229fbdae5"),
    (("report", "--p", "691", "--k", "12", "--sigma", "691", "--prec", "10"),
     "3fddc2675a72f2dc099e019e9610fb84a06251d99acce2a1332f930c1b1fd8a8"),
    (("example37", "--prec", "10"),
     "a48fcbc551dc6d85a1a711141d38bc1f9d2673c205e0cfe31a06ef028e30a6eb"),
    (("--pretty", "selmer", "--p", "691", "--k", "12", "--sigma", "691"),
     "b02d40087a03ce057ff84df06fd426c34b6755ffb8a6563f7affb169040a47a0"),
]

# Scans at high weight, where the Miller basis has 8 and 9 elements; the
# digests are those of the same commands in perfbench/digests.json.
GOLDEN_HIGH_WEIGHT_SCANS = [
    (("scan", "--k", "84", "--p", "233", "--sigma", "233"),
     "3f49237fe42ec5f08495c39098f358e84e75ed35c611fda1d0f54329e3bc5dcf"),
    (("scan", "--k", "110", "--p", "157", "--sigma", "157"),
     "8efe3bbf65971abbb0a9811cdeaabbf1978bea1307d01609c9044c5eaaa83ceb"),
]

# Scans whose charpoly(T_2) mod p does not split into simple linear factors:
# a repeated root and no records, a record beside a repeated root, and an
# irreducible factor of degree 2.
GOLDEN_SKIPPING_SCANS = [
    (("scan", "--k", "28", "--p", "131", "--sigma", "131"),
     "a0abe41f7ee7df384206f28c46fcb6ba7ee98db0ad64645ad2f40ff2e0324f9a"),
    (("scan", "--k", "36", "--p", "7", "--sigma", "7"),
     "39f67c4198c40144eae990518fef2d57ec80f95d904dcb870c08c44d6c0d84f5"),
    (("scan", "--k", "24", "--p", "37", "--sigma", "37"),
     "b2f9b16aa0db30f2f1988cb0969b732fe1c9ea0adf12d573620ee50d21bbe972"),
]

# Constructions of H at the Sturm bound, over Q(zeta_18) and Q(zeta_10);
# the digests are those of the same commands in perfbench/digests.json.
GOLDEN_STURM_CONSTRUCTIONS = [
    (("build-h", "--p", "37", "--k", "32", "--ell", "19", "--sigma", "19,37",
      "--prec", "54"),
     "da55ac0876a34f9681a22e506d53e85da136783e74c2404cd9eedfecc3f6282d"),
    (("build-h", "--p", "101", "--k", "68", "--ell", "11", "--sigma", "11,101",
      "--prec", "68"),
     "ccf7ccc29cf6f5046a69304421391b62e482c49906492dfaf81ef91cf1a6016e"),
]

# A construction over Q(zeta_100), with an auxiliary character of conductor
# 101: the scale a_0(F_m)/a_0(G) needs an inverse in a field of degree 40.
GOLDEN_LARGE_FIELD_CONSTRUCTIONS = [
    (("build-h", "--p", "37", "--k", "32", "--ell", "101", "--sigma", "37,101",
      "--prec", "20"),
     "8da2cf160e179ada437615ed6400ab125b11fc72ac5f3d8d6151ce8630213777"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,digest",
                         GOLDEN + GOLDEN_HIGH_WEIGHT_SCANS + GOLDEN_STURM_CONSTRUCTIONS
                         + GOLDEN_SKIPPING_SCANS + GOLDEN_LARGE_FIELD_CONSTRUCTIONS,
                         ids=[" ".join(a[:2]) for a, _ in GOLDEN]
                         + [" ".join(a[:3]) for a, _ in GOLDEN_HIGH_WEIGHT_SCANS]
                         + [" ".join(a[:3]) for a, _ in GOLDEN_STURM_CONSTRUCTIONS]
                         + [" ".join(a[:5]) for a, _ in GOLDEN_SKIPPING_SCANS]
                         + [" ".join(a[:7]) for a, _ in GOLDEN_LARGE_FIELD_CONSTRUCTIONS])
def test_golden_stdout(capsys, argv, digest):
    code, out, err = run_cli(capsys, "--no-cache", *argv)
    assert (code, err) == (0, "")
    assert sha(out) == digest


def test_golden_verify_cache(tmp_path, capsys):
    for argv, _ in GOLDEN[:3]:
        run_cli(capsys, "--cache-dir", str(tmp_path), *argv)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    assert out == '{"checked":3,"mismatches":[],"unverifiable":[],"ok":true}\n'


def test_golden_errors(capsys):
    code, out, err = run_cli(capsys, "--no-cache", "eta", "--p", "37", "--k", "32",
                             "--sigma", "31")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "parameter",
                               "message": "p = 37 must belong to Sigma = [31]"}
    code, out, err = run_cli(capsys, "--no-cache", "scan", "--k", "12", "--p", "691",
                             "--sigma", "2,3,5,7,11,13,691")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "computation",
                               "message": "no primes outside Sigma were recorded"}


def test_benchmark_digests_replay(capsys):
    # the benchmark checks each command's stdout against these digests; a
    # change that moves one should fail here first, not in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    assert len(digests) == 32
    moved = []
    for command, digest in sorted(digests.items()):
        argv = [RECORDS if a == "@fixture/example37.json" else a for a in command.split()]
        code, out, err = run_cli(capsys, "--no-cache", *argv)
        if (code, err, sha(out)) != (0, "", digest):
            moved.append(command)
    assert moved == []
