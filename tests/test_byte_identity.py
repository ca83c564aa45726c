"""Byte-identity guard for the planner's payloads.

Each case runs a sweep of CLI queries in-process and hashes the exit
codes and the stdout bytes together.  The digests were taken from the
tree before the planner was restructured for speed; a refactor of
`analytics`, `schemes`, `bench` or `cli` that moves one bit of any
payload fails here.  A deliberate change to the model or to a payload
re-pins the digest it moves and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from ftrot import cli

LEVELS = range(4, 13)


def sweep(base, p_in):
    return [base + ["--theta-l", f"2pi/2^{k}", "--p-in", p_in] for k in LEVELS]


OURS_ALL = ["bench", "--methods", "ours,rs,coh", "--distill-costs", "bundled"]

CASES = {
    "scaffold-1e-4": (sweep(["scaffold"], "1e-4"),
                      "7bb204478c81a0f1d094e1083f5e8471556613d19dd51334709adde43609c140"),
    "scaffold-1e-3": (sweep(["scaffold"], "1e-3"),
                      "9bc097cee0663f75f9177b9bafd35f65e2a037cd2b02a3782df1a5ff7391cbbb"),
    "bench-ours-1e-4": (sweep(["bench", "--methods", "ours"], "1e-4"),
                        "326643731336630dcc6f07cbab59ba9597861310dc63b0aa29cf63c13662b102"),
    "bench-ours-1e-3": (sweep(["bench", "--methods", "ours"], "1e-3"),
                        "4790b2ce74b15ba53c1ce872cfe89913e78c10cbd5a9265bca4c587cd41f3a0a"),
    "bench-all-1e-4": (sweep(OURS_ALL, "1e-4"),
                       "0b37931a885a98e4a20720061a90664d68db37804b3ec2360b6e8cc3a56b2738"),
    "bench-all-1e-3": (sweep(OURS_ALL, "1e-3"),
                       "1bd5a89422fb4affd80389fcf762a90e29b8aae05447e8778a4e140d67fc76de"),
    "scaffold-r3": ([["scaffold", "--theta-l", "2pi/2^10", "--r", "3"]],
                    "74eaedcb2498ae1433b0f86ae007e3685cd8ed84b89bdb8df605fc604a8c90bc"),
    "scaffold-perfect": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "perfect"]],
                         "c1dab5dd096dd421bebf6a84af751482ab6b8fe722498fe0d344821bd24e5d87"),
    "scaffold-phase-flip": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "phase-flip"]],
                            "6281f89109c7ef8085e30460e43d6439b36052149c7f04c1fa35927eb693da84"),
    # exit 3: the payload carries the closest plan
    "scaffold-ceiling": ([["scaffold", "--theta-l", "2pi/2^10", "--error-ceiling", "1e-9"]],
                         "23c579e08445561bfd5ed9922e3ebfbb335f49dfa3b69c29fc6193d37c60e61d"),
    # the front on the fixed-distance codes and on a narrowed grid
    "bench-ours-perfect": ([["bench", "--methods", "ours", "--code", "perfect",
                             "--theta-l", "2pi/2^10"]],
                           "0c22f433447973a50fadb5facab360c89bf696d1382d21b167d7bff663f1eb75"),
    "bench-ours-phase-flip": ([["bench", "--methods", "ours", "--code", "phase-flip",
                                "--d-values", "3,5", "--theta-l", "2pi/2^10"]],
                              "028ebb7e40330c779499eee7cf1681a3aed2b6e71fd231fb9e1835237c0ac68e"),
    "bench-ours-narrow": ([["bench", "--methods", "ours", "--d-values", "3,5", "--k-max", "3",
                            "--m-max", "8", "--theta-l", "2pi/2^10"]],
                          "2a236d05229f5a3c302eb955810d73529891dc6c3ea1f86d7711107bcecbb69a"),
    # theta = 0 included: the zero-base edge of the log-domain powers
    "analyze": ([["analyze", "--theta", "0:1.5:7", "--d", "5"]],
                "24108e9090f459b8367e5726a9fd0a6f1d14d7dc10d5add2cb44ef1fe86e5c53"),
}


def digest(argvs):
    h = hashlib.sha256()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        h.update(f"{' '.join(argv)}\0{rc}\0".encode())
        h.update(buf.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_bytes_unchanged(name):
    argvs, expected = CASES[name]
    assert digest(argvs) == expected
