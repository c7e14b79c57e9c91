"""Golden outputs of `qcong verify` and `qcong sweep`, pinned byte for byte.

Each verify case pins stdout (wall time masked), the exit code and the
stderr line carrying "error:".  The sweep case pins the sha256 of the JSONL
and CSV files and the summary counts of a small grid that touches every
check kind and every skip rule.
"""

import hashlib
import re

import pytest

from qcong import cli

_MS = re.compile(r"\[\d+\.\d ms\]")

VERIFY_CASES = [
    # valid cells, one per check id (two for lemma-sn-minus1, which holds at s = 0)
    ("thm1.1 --n 6 --d 5 --r 2 --family delta:1", 0,
     "PASS thm1.1 n=6 d=5 r=2 family=delta:1 branch=even a=2 exponent=21 sign=+1 [… ms]\n", None),
    ("thm1.2 --n 5 --d 2 --r 1 --family sun_p_x", 0,
     "PASS thm1.2 n=5 d=2 r=1 family=sun_p_x branch=odd a=2 exponent=6 sign=+1 [… ms]\n", None),
    ("thm2.1 --n 5 --a 2 --s 1 --family random_poly:4:2", 0,
     "PASS thm2.1 n=5 a=2 s=1 family=random_poly:4:2 branch=odd exponent=3 sign=+1 [… ms]\n", None),
    ("s0 --n 5 --a 2 --family random_poly:9:3", 0,
     "PASS s0 n=5 a=2 family=random_poly:9:3 [… ms]\n", None),
    ("guo_zeng --n 5 --d 3 --r 1", 0,
     "PASS guo_zeng n=5 d=3 r=1 family=monomial_x branch=odd a=3 exponent=8 sign=-1 [… ms]\n", None),
    ("sun_p --n 5 --d 2 --r 1", 0,
     "PASS sun_p n=5 d=2 r=1 family=sun_p_x branch=odd a=2 exponent=6 sign=+1 [… ms]\n", None),
    ("lemma-sn --n 5 --s 2 --j 3", 0, "PASS lemma-sn n=5 s=2 j=3 [… ms]\n", None),
    ("lemma-sn-minus1 --n 6 --s -1 --j 4", 0, "PASS lemma-sn-minus1 n=6 s=-1 j=4 [… ms]\n", None),
    ("lemma-sn-minus1 --n 5 --s 0 --j 2", 0, "PASS lemma-sn-minus1 n=5 s=0 j=2 [… ms]\n", None),
    ("even-sign --n 6", 0, "PASS even-sign n=6 [… ms]\n", None),
    ("classical --p 7 --alpha 5/2 --seed 3", 0, "PASS classical p=7 alpha=5/2 seed=3 [… ms]\n", None),
    # ill-posed cells
    ("thm1.1 --n 6 --d 3 --r 1", 2, "", "error: n and d must be coprime, gcd(6,3) != 1"),
    ("guo_zeng --n 4 --d 2 --r 0", 2, "", "error: n and d must be coprime, gcd(4,2) != 1"),
    ("thm1.1 --n 5 --d 1 --r 0 --family sun_p_x", 2, "",
     "error: rational families are out of hypothesis here; use thm_1_2"),
    ("thm2.1 --n 5 --a 1 --s 1 --family sun_p_x", 2, "",
     "error: rational families are out of hypothesis here"),
    ("s0 --n 5 --a 1 --family sun_p_x", 2, "", "error: polynomial families only"),
    ("sun_p --n 4 --d 1 --r 0", 2, "", "error: this statement is for odd n >= 3 only"),
    ("even-sign --n 5", 2, "", "error: n must be even and at least 2"),
    ("lemma-sn --n 5 --s 0 --j 1", 2, "", "error: s must be nonzero"),
    ("classical --p 9 --alpha 1/2", 2, "", "error: p must be an odd prime"),
    ("classical --p 5 --alpha 1/5", 2, "", "error: alpha must be p-integral"),
    ("thm2.1 --n 5 --a 5 --s 1", 2, "", "error: a must lie in [0, 4]"),
    ("s0 --n 5 --a 7", 2, "", "error: a must lie in [0, 4]"),
    ("s0 --n 1 --a 0", 2, "", "error: n must be at least 2"),  # as thm2.1, not the family's message
    # missing flags are usage errors
    ("thm1.1 --n 5", 2, "", "qcong: error: verify thm1.1 needs --d, --r"),
    ("classical --alpha 1/2", 2, "", "qcong: error: verify classical needs --p"),
]


@pytest.mark.parametrize("argv,code,stdout,error", VERIFY_CASES)
def test_verify_golden(argv, code, stdout, error, capsys):
    try:
        got = cli.main(["verify", *argv.split()])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert _MS.sub("[… ms]", out) == stdout
    assert next((line for line in err.splitlines() if "error:" in line), None) == error


# n = 4, 6 are composite p; a = 5 is out of range for n < 6; s = 0 is skipped
# by the lemmas; alpha = 1/5 is not 5-integral; monomial_x is bivariate and
# sun_p_x rational, so it is skipped under 1.1 and 2.1 and runs under 1.2.
SWEEP_FLAGS = [
    "--theorems=1.1,1.2,2.1,guo_zeng,sun_p,lemmas,classical",
    "--n=3..7", "--d=1..3", "--r=-1,1", "--s=-1,0,1", "--a=0,2,5",
    "--families=ones,monomial_x,sun_p_x", "--alphas=1/2,1/5,2", "--classical-seeds=2",
]
SWEEP_SHA256 = {
    "jsonl": "64543f71353e83bd802f585255f3b3a2a8eefa81e1e8eaf15fc20540ecbf5a13",
    "csv": "9fc41b41d0bd39cd8a7cb1e575b08d35e340c517b93f447f03e344eb010eef41",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_SHA256))
def test_sweep_golden(fmt, tmp_path, capsys):
    out = tmp_path / f"golden.{fmt}"
    assert cli.main(["sweep", *SWEEP_FLAGS, f"--format={fmt}", f"--output={out}"]) == 0
    summary = capsys.readouterr().err
    assert re.match(r"total=318 passed=318 failed=0 skipped=212 ", summary)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[fmt]
