"""Byte-identity guard for the planner's and the Monte Carlo engine's
payloads.

Each case runs a sweep of CLI queries in-process and hashes the exit
codes and the stdout bytes together.  The planner's digests were taken
from the tree before the planner was restructured for speed (the
feasible-ceilings digest from the tree before the planner capped its
walk), and the `simulate` digest from the tree before the engine's plan
took its batch law; a refactor of `analytics`, `schemes`, `bench`, `mcsim`,
`codes` or `cli` that moves one bit of any payload fails here.  A
deliberate change to the model or to a payload re-pins the digest it
moves and says so in CHANGES.md.
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

# one seeded run per code, noise and injected Z: a heavy noise, where
# most trials reach the engine's path for four or more faults, and a
# light one, each with no Z and with a Z on qubit 1
SIMULATE = [
    ["simulate", *code, "--theta", "0.8", "--p-in", p_in, "--r", r, "--trials", "200000",
     "--seed", "7", *inject]
    for code in (["--code", "surface", "--d", "3"], ["--code", "surface", "--d", "5"],
                 ["--code", "phase-flip", "--d", "5"], ["--code", "perfect"])
    for p_in, r in (("5e-2", "3"), ("1e-3", "2"))
    for inject in ([], ["--inject-z", "1"])
]

# feasible error ceilings, where the planner's capped walk skips the
# most cells, on the default grid and on two narrowed ones
CEILINGS = [
    query + ["--error-ceiling", ceiling, *grid]
    for p_in in ("1e-4", "1e-3")
    for ceiling in ("1e-5", "1e-7")
    for grid in ([], ["--d-values", "5,3"], ["--k-max", "3", "--m-max", "8"])
    for query in sweep(["scaffold"], p_in)
]

CASES = {
    "scaffold-1e-4": (sweep(["scaffold"], "1e-4"),
                      "9b09cb577fbfea923971ae27d953f62f31e37c09bbb2e58cee239db268836a07"),
    "scaffold-1e-3": (sweep(["scaffold"], "1e-3"),
                      "8c0354670ed1eb4c06053724ea171bfb052b670177679062a395663148c15e3c"),
    "bench-ours-1e-4": (sweep(["bench", "--methods", "ours"], "1e-4"),
                        "8fbe282f4ee30534f70ed1905a549fb6d6024bd031a3f7dafdb2c97f1be2489e"),
    "bench-ours-1e-3": (sweep(["bench", "--methods", "ours"], "1e-3"),
                        "a8db40629032b7f7d29dd4cab4823be187ec082946f18b13cf0ddedf86169356"),
    "bench-all-1e-4": (sweep(OURS_ALL, "1e-4"),
                       "d8705ca57390f33021cfdec4d9a1af8895c6e4afdd58fbbffb50db69f09a2a6d"),
    "bench-all-1e-3": (sweep(OURS_ALL, "1e-3"),
                       "ba56796d98a06c4fa27967322065dc137ea545aed4aca8e0c36dc61ef45f7f8d"),
    "scaffold-r3": ([["scaffold", "--theta-l", "2pi/2^10", "--r", "3"]],
                    "2ed526052cb0610dd064fe4ba9c5d906f1889ce50a687cca915da005f14ec51b"),
    "scaffold-perfect": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "perfect"]],
                         "f5cc70381a54b7dfe77d202ea15cbc65ac96a7749eca2225a9e5020d3812bd7a"),
    "scaffold-phase-flip": ([["scaffold", "--theta-l", "2pi/2^10", "--code", "phase-flip"]],
                            "b43ca87de66dae62b7e3f5e94c8579c9da3c7bbcb7237a2020948b4570962c1b"),
    # exit 3: the payload carries the closest plan
    "scaffold-ceiling": ([["scaffold", "--theta-l", "2pi/2^10", "--error-ceiling", "1e-9"]],
                         "b5837f4f1b34e526d2ac48c4049f7e3c18b02c665b4bbdb95bc0f71b6f673af2"),
    "scaffold-ceilings": (CEILINGS,
                          "4526f5393827a67c2634abb8971a6fbf446d41092d8c1e57b79a604ab9356c79"),
    # the front on the fixed-distance codes and on a narrowed grid
    "bench-ours-perfect": ([["bench", "--methods", "ours", "--code", "perfect",
                             "--theta-l", "2pi/2^10"]],
                           "95d5775070971ed9da26c5776be75c3183a4ad2d5b84671ae705b4f195c8f053"),
    "bench-ours-phase-flip": ([["bench", "--methods", "ours", "--code", "phase-flip",
                                "--d-values", "3,5", "--theta-l", "2pi/2^10"]],
                              "ae0a72d0ded305960cc570242d67756face1ebd99b6dc2e9b912d0d9e50ad02c"),
    "bench-ours-narrow": ([["bench", "--methods", "ours", "--d-values", "3,5", "--k-max", "3",
                            "--m-max", "8", "--theta-l", "2pi/2^10"]],
                          "f82838ec2fa83843e680a7992508e4e87be9b403c2ba60a28f700e6c01b9fdfc"),
    # theta = 0 included: the zero-base edge of the log-domain powers
    "analyze": ([["analyze", "--theta", "0:1.5:7", "--d", "5"]],
                "c61fe1677dacee6f440ae67cbc5121d0b5dc43160043b5e211c94bbe30a427bf"),
    "simulate": (SIMULATE,
                 "715a3f4b3ca91ffa177a73365450ed9a859a868f35e1c400c9b3f37df5d4c781"),
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
