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
                      "af6d5f5386f2b866923d9e9b21e5cd6a70b6893a24064b3b1c43e8ba07571a23"),
    "scaffold-1e-3": (sweep(["scaffold"], "1e-3"),
                      "c5f5061af5dd53fab073f1921b8dd95fcf5f255b210d887d1e86a8354e6c4a54"),
    "bench-ours-1e-4": (sweep(["bench", "--methods", "ours"], "1e-4"),
                        "480cbbece3d180bb82db21f2ebeb2647c5e3d4671c08a4b0ebfd795734c18542"),
    "bench-ours-1e-3": (sweep(["bench", "--methods", "ours"], "1e-3"),
                        "49b62752175991303625fecebd577e3256ff69e1f4d227666e36c4751b105908"),
    "bench-all-1e-4": (sweep(OURS_ALL, "1e-4"),
                       "f1c1fb775991a10dba948b9db29652c82158934754c56f3fa340b1ad702b4617"),
    "bench-all-1e-3": (sweep(OURS_ALL, "1e-3"),
                       "d67d908a67502e24716ad707f86dcbc9f3cabc7e21cecd07b75e69eaff2fb494"),
    "scaffold-r3": ([["scaffold", "--theta-l", "2pi/2^10", "--r", "3"]],
                    "6e805ff247b893372dd4d4ef83f224b391ec4f33019afc598b4edd57e5d9906a"),
    "scaffold-perfect": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "perfect"]],
                         "5deb60b7aea5f31b71890c5674ddd72587ff06689683183b293b945b84afe06c"),
    "scaffold-phase-flip": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "phase-flip"]],
                            "130086cf91596290a1bcb7d0d6b16eff34d13c49f1368c9194a62166924f99c6"),
    # exit 3: the payload carries the closest plan
    "scaffold-ceiling": ([["scaffold", "--theta-l", "2pi/2^10", "--error-ceiling", "1e-9"]],
                         "8c288ddd8dde06a318e6972e47c98d7ea4aaf3cba676f6b9c69fc885a6195e27"),
    # the front on the fixed-distance codes and on a narrowed grid
    "bench-ours-perfect": ([["bench", "--methods", "ours", "--code", "perfect",
                             "--theta-l", "2pi/2^10"]],
                           "21fb0e268772129435a8a5b385de8404895e37f5bcac11393b6e9314b5ea2960"),
    "bench-ours-phase-flip": ([["bench", "--methods", "ours", "--code", "phase-flip",
                                "--d-values", "3,5", "--theta-l", "2pi/2^10"]],
                              "71d84884e3f49d55e004e8e2caf87d983884f793aa481d0be71b97e528b8f6b7"),
    "bench-ours-narrow": ([["bench", "--methods", "ours", "--d-values", "3,5", "--k-max", "3",
                            "--m-max", "8", "--theta-l", "2pi/2^10"]],
                          "c8f8cce9edac14da87653b5e2c28aeb5fb851d7d90496751c8c983ed809103fc"),
    # theta = 0 included: the zero-base edge of the log-domain powers
    "analyze": ([["analyze", "--theta", "0:1.5:7", "--d", "5"]],
                "1d883a404daae7eadd50790f5988a4696a25eefd9df5fe03ad858ba353b9a98c"),
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
