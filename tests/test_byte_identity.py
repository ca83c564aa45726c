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
                      "d82f370f2844d74c2c51e6dd6e4c12a64c12f97dacf3b37e4259137b56181cc1"),
    "scaffold-1e-3": (sweep(["scaffold"], "1e-3"),
                      "f6a0302fcb3b2b3708d2d388e68cc436f795b0b0a3992922ae35b2cd0f3ac5a9"),
    "bench-ours-1e-4": (sweep(["bench", "--methods", "ours"], "1e-4"),
                        "3a4b9ea97e06892f928cce3ec0e5929b055138781e71423c66c8b33195681529"),
    "bench-ours-1e-3": (sweep(["bench", "--methods", "ours"], "1e-3"),
                        "49ef40bc23e2ee82123996b88d8bba92b6cda02eaceb15528f061d5f5ceb18c7"),
    "bench-all-1e-4": (sweep(OURS_ALL, "1e-4"),
                       "779e10f542122948a5788fba076ed4f25e157ab1498d90ce3e83f665d80947ab"),
    "bench-all-1e-3": (sweep(OURS_ALL, "1e-3"),
                       "f3b6e456478207b39bae1fab09ed2907f6d42d58872ae05a8bb29793b566a915"),
    "scaffold-r3": ([["scaffold", "--theta-l", "2pi/2^10", "--r", "3"]],
                    "ffcca8113330ce46efb611a299198667d5351a1b43d5a88aeec0399cd8a27fa8"),
    "scaffold-perfect": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "perfect"]],
                         "beda3f4dde7938d61e66e9bfb93d4a97dbfcf2f8ed7669e51b23c05717f87b64"),
    "scaffold-phase-flip": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "phase-flip"]],
                            "8cae3ccf532992ea81f62028ff60f4d97c97df7378f7ecb6b04d61892a34aeba"),
    # exit 3: the payload carries the closest plan
    "scaffold-ceiling": ([["scaffold", "--theta-l", "2pi/2^10", "--error-ceiling", "1e-9"]],
                         "9bbe653b8417fce7d175c369738e81ea3c058177e81a2ebe96b6d0c845c32545"),
    # the front on the fixed-distance codes and on a narrowed grid
    "bench-ours-perfect": ([["bench", "--methods", "ours", "--code", "perfect",
                             "--theta-l", "2pi/2^10"]],
                           "d04b85317fa5fdd34a69ce27e1b6f68998fc11342dbf3fa42959a4a3913f9a4a"),
    "bench-ours-phase-flip": ([["bench", "--methods", "ours", "--code", "phase-flip",
                                "--d-values", "3,5", "--theta-l", "2pi/2^10"]],
                              "9e2e0da458c7f93a18608c087165d500e90f553467ab171cd4f691f6a348c1a4"),
    "bench-ours-narrow": ([["bench", "--methods", "ours", "--d-values", "3,5", "--k-max", "3",
                            "--m-max", "8", "--theta-l", "2pi/2^10"]],
                          "fa801b3accd75a7e5d7722f1fc0fc65c42593858c5409dee6642019ec0169544"),
    # theta = 0 included: the zero-base edge of the log-domain powers
    "analyze": ([["analyze", "--theta", "0:1.5:7", "--d", "5"]],
                "010c87719869312222920f19c37b803ca08b712f895db68a10d0da9b59509ff8"),
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
