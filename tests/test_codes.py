import contextlib
import dataclasses
import io
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import cli, codes
from ftrot.pauli import PauliString, commutes

from oracles import (
    branch_syndromes,
    count_sets_by_brute_force,
    fault_set_counts,
    first_order_multiplicity,
    matrices_commute,
    pauli_matrix,
    syndrome,
)

ALL_INSTANCES = [
    ("phase-flip", 3),
    ("phase-flip", 5),
    ("surface", 3),
    ("surface", 5),
    ("surface", 7),
    ("four-qubit", None),
    ("perfect", None),
]


@pytest.fixture(scope="module", params=ALL_INSTANCES, ids=lambda p: f"{p[0]}-d{p[1]}")
def code(request):
    name, d = request.param
    return codes.get_code(name, d)


def test_registry_lists_four_families():
    assert codes.list_codes() == ("phase-flip", "surface", "four-qubit", "perfect")
    assert codes.is_parametrized("surface")
    assert not codes.is_parametrized("perfect")
    with pytest.raises(ValueError):
        codes.is_parametrized("steane")


def test_get_code_distance_handling():
    with pytest.raises(ValueError):
        codes.get_code("surface")  # distance required
    with pytest.raises(ValueError):
        codes.get_code("surface", 4)  # odd only
    with pytest.raises(ValueError):
        codes.get_code("phase-flip", 1)
    with pytest.raises(ValueError):
        codes.get_code("perfect", 5)  # fixed d=3
    assert codes.get_code("perfect", 3).n == 5
    with pytest.raises(ValueError):
        codes.get_code("no-such-code")


def test_get_code_shares_built_codes():
    # codes are frozen, so one build per (name, d) serves every caller;
    # a refused pair is refused again, not cached
    assert codes.get_code("surface", 5) is codes.get_code("surface", 5)
    assert codes.get_code("surface", 5) is not codes.get_code("surface", 7)
    assert codes.get_code("surface", 5) == codes.rotated_surface_code(5)
    for _ in range(2):
        with pytest.raises(ValueError):
            codes.get_code("surface", 4)


def test_check_distance_agrees_with_get_code():
    pairs = [(name, d) for name in codes.list_codes() for d in (None, 1, 2, 3, 4, 5, 51, 53)]
    pairs.append(("no-such-code", 3))
    for name, d in pairs:
        try:
            codes.get_code(name, d)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                codes.check_distance(name, d)
        else:
            codes.check_distance(name, d)


def test_fixed_code_built_once(monkeypatch):
    # a fixed code's d is read from its one cached build, so checking a
    # distance or looking a size up again builds nothing
    build, built = codes._FIXED["perfect"], []

    def counting():
        built.append(None)
        return build()

    monkeypatch.setitem(codes._FIXED, "perfect", counting)
    codes._build.cache_clear()
    after = []
    for _ in range(3):
        codes.check_distance("perfect", 3)
        assert codes.code_of_size(7, 6, 3) is None
        assert codes.code_of_size(5, 4, 3) is codes.get_code("perfect", 3)
        after.append(len(built))
    assert after[0] == after[2], after


def test_one_build_per_code_whatever_the_call_form(monkeypatch):
    # the build is cached on the resolved (name, d), so every form of a
    # call that names one code builds it once and returns that object
    built = []
    for table, name in ((codes._PARAMETRIZED, "surface"), (codes._FIXED, "perfect")):
        def counting(*args, build=table[name], name=name):
            built.append(name)
            return build(*args)

        monkeypatch.setitem(table, name, counting)
    codes._build.cache_clear()
    surface = [codes.get_code("surface", 5), codes.get_code("surface", d=5)]
    perfect = [codes.get_code("perfect"), codes.get_code("perfect", 3),
               codes.get_code("perfect", None), codes.get_code("perfect", d=3)]
    assert built == ["surface", "perfect"]
    assert all(code is surface[0] for code in surface)
    assert all(code is perfect[0] for code in perfect)
    # a planner query on a fixed code reads its d and builds it once
    codes._build.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scaffold", "--code", "perfect", "--theta-l", "2pi/2^6"]) == 0
    assert built[2:] == ["perfect"]


def test_validate_passes_everywhere(code):
    report = codes.validate(code)
    assert report.ok, report.failures
    assert report.failures == ()


def test_brute_force_distances():
    # every instance small enough to enumerate exhaustively
    expected = {
        ("phase-flip", 3): 3,
        ("phase-flip", 5): 5,
        ("surface", 3): 3,
        ("four-qubit", None): 2,
        ("perfect", None): 3,
    }
    for (name, d), dist in expected.items():
        report = codes.validate(codes.get_code(name, d))
        assert report.distance == dist, (name, d)
    # surface d=5 has n=25: enumeration is skipped, distance reported as None
    assert codes.validate(codes.get_code("surface", 5)).distance is None


def test_structure_counts(code):
    assert code.n - code.k == len(code.stabilizers)
    assert len(code.z_support) == code.d
    assert code.logical_z.x == 0  # pure Z representative
    assert set(code.logical_z.support) == set(code.z_support)


def test_logical_algebra(code):
    for g in code.stabilizers:
        assert commutes(code.logical_z, g)
        assert commutes(code.logical_x, g)
    assert not commutes(code.logical_z, code.logical_x)


def branch_checks(code):
    """Indices of the generators that a branch Z on the rotation support trips."""
    columns = code.error_multiplicities.branch_columns
    return tuple(i for i in range(len(code.stabilizers)) if any(c >> i & 1 for c in columns))


def test_noncommuting_set_matches_support_touch(code):
    # generator i's bit is set in the branch column of a support
    # position exactly where Z on that qubit anticommutes with it
    if code.name == "four-qubit":
        with pytest.raises(ValueError, match="gives no rotation state"):
            codes.require_rotation(code)
        return
    z = [PauliString.single_z(code.n, q) for q in code.z_support]
    columns = code.error_multiplicities.branch_columns
    for i, g in enumerate(code.stabilizers):
        expected = [pos for pos, zq in enumerate(z) if not commutes(zq, g)]
        assert [pos for pos, c in enumerate(columns) if c >> i & 1] == expected


def test_noncommuting_set_sizes():
    # d-1 for the two main families; the transversal rotation only
    # collides with checks whose X part meets the support
    assert len(branch_checks(codes.get_code("phase-flip", 5))) == 4
    assert len(branch_checks(codes.get_code("surface", 3))) == 2
    assert len(branch_checks(codes.get_code("surface", 7))) == 6
    assert len(branch_checks(codes.get_code("perfect"))) == 4


def test_perfect_code_commutation_table_exhaustive():
    code = codes.get_code("perfect")
    mats = [pauli_matrix(g.label()) for g in code.stabilizers]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert matrices_commute(mats[i], mats[j])
    zl = pauli_matrix(code.logical_z.label())
    xl = pauli_matrix(code.logical_x.label())
    for m in mats:
        assert matrices_commute(zl, m)
        assert matrices_commute(xl, m)
    assert not matrices_commute(zl, xl)


def counts_from_masks(code) -> tuple[int, int, int]:
    """The oracle's three counts read from the code's derived check
    masks: a channel is hidden when its mask is a support position's
    branch column, on the support or off it, and a branch column of a
    single check is a readout channel."""
    channels, columns, _ = code.error_multiplicities
    counts = [0, 0]
    for e, mask in enumerate(channels):
        if mask in columns:
            counts[e // 3 not in code.z_support] += 1
    return counts[0], counts[1], sum(column.bit_count() == 1 for column in columns)


def test_multiplicities_match_enumeration_oracle():
    """Re-derive the undetected-channel counts by direct enumeration.

    The oracle counts single-qubit Paulis whose stabilizer signature a
    weight-1 branch pattern can cancel, one Pauli at a time; the code's
    check masks give the same counts, and its readout channels are the
    single-check branch columns that the model's masking term counts.
    """
    for name, d in ALL_INSTANCES:
        code = codes.get_code(name, d)
        assert first_order_multiplicity(code) == counts_from_masks(code), (name, d)


def test_stored_multiplicity_tuples():
    expected = {
        # Z on each support qubit, plus Z on the off-support qubits
        # whose checks match a support qubit's
        ("surface", 3): (3, 2, 2),
        ("surface", 5): (5, 2, 2),
        ("surface", 7): (7, 2, 2),
        # Z and Y on each support qubit: no Z-type check sees the Y
        ("phase-flip", 3): (6, 0, 2),
        ("phase-flip", 5): (10, 0, 2),
        # every X or Y trips ZZZZ, which no branch pattern can cancel,
        # so only Z on each of the four qubits is first order
        ("four-qubit", None): (2, 2, 2),
        ("perfect", None): (3, 0, 1),
    }
    for (name, d), counts in expected.items():
        got = first_order_multiplicity(codes.get_code(name, d))
        assert got == counts, (name, d)


def syndrome_mask(bits) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


@pytest.mark.parametrize(
    "name, d", [("surface", 3), ("surface", 5), ("phase-flip", 5), ("perfect", None)]
)
def test_branch_coset_matches_all_branch_strings(name, d):
    # every syndrome of a branch string, and the syndromes of every one
    # or two single-qubit faults (on the surface and perfect codes most
    # of them are no branch string's), against all 2^d strings: a
    # syndrome reduces to remainder 0 exactly when some branch string
    # has it, and its b0's coset holds those strings
    code = codes.get_code(name, d)
    columns = code.error_multiplicities.branch_columns
    rows = codes._branch_basis(columns)[0]
    branches = {syndrome_mask(s): w for s, w in branch_syndromes(code).items()}
    singles = {
        syndrome_mask(syndrome(PauliString.from_label(
            "".join(p if i == q else "I" for i in range(code.n))), code))
        for q in range(code.n) for p in "XYZ"
    }
    for sigma in set(branches) | singles | {a ^ b for a in singles for b in singles}:
        rest, b0 = codes._reduce(rows, sigma)
        if sigma in branches:
            expected = [0] * (code.d + 1)
            for w in branches[sigma]:
                expected[w] += 1
            assert rest == 0, sigma
            assert codes._coset_counts(columns, b0) == tuple(expected), sigma
        else:
            assert rest, sigma


@pytest.mark.parametrize("r", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("name, d", [("surface", 3), ("phase-flip", 3), ("perfect", None)])
def test_fault_sets_match_the_walk_over_every_set(name, d, r):
    # the sets of one and two events, the table's first five shapes:
    # r = 1, 2 and >= 3 accept different sets with readout flips in them;
    # r = 6 is counted directly, and r = 8 is the first r whose counts are
    # extrapolated from r = 4..7
    code = codes.get_code(name, d)
    mult = code.error_multiplicities
    table = codes._fault_set_counts(mult, r, 0)
    assert [list(counts[:5]) for counts in table] == fault_set_counts(code, r)


@pytest.mark.parametrize(
    "name, d", [("surface", 3), ("surface", 5), ("phase-flip", 3), ("perfect", None)]
)
def test_fault_set_counts_extrapolate_per_class(name, d):
    # past r = 7 each class count is the cubic through r = 4..7; against
    # the event-by-event count at r = 6..12, expanded here over every branch
    # string of the set's syndrome, with no target and with Z injected
    # on qubits 0, 1 and n - 1 (off the support on the surface and
    # perfect codes, so the target's remainder is nonzero)
    code = codes.get_code(name, d)
    mult = code.error_multiplicities
    width = len(mult.branch_columns)

    def branch_syndrome(b):
        syn = 0
        for i, column in enumerate(mult.branch_columns):
            if b >> i & 1:
                syn ^= column
        return syn

    weights: dict[int, list[int]] = {}  # branch syndrome -> its strings' weights
    for b in range(1 << width):
        weights.setdefault(branch_syndrome(b), []).append(b.bit_count())
    rows = codes._branch_basis(mult.branch_columns)[0]
    targets = sorted({(0, 0)} | {codes._reduce(rows, mult.channels[3 * q + 2])
                                 for q in (0, 1, code.n - 1)})
    assert len({rest for rest, _ in targets}) == (1 if name == "phase-flip" else 2)
    for (rest, b0), r in itertools.product(targets, range(6, 13)):
        direct = codes._count_sets(mult, r, rest)
        assert direct and all(count > 0 for count in direct.values())
        assert {shape for _, shape in direct} <= set(range(9))
        want = [[0] * 9 for _ in range(width // 2 + 1)]
        for (b, shape), count in direct.items():
            strings = weights[branch_syndrome(b ^ b0)]
            for m, row in enumerate(want):
                row[shape] += count * strings.count(m)
        got = codes._fault_set_counts(mult, r, rest << width | b0)
        assert [list(row) for row in got] == want, (rest, b0, r)


@pytest.mark.parametrize(
    "name, d, r, inject",
    [
        (name, d, r, inject)
        for codes_, rs, injects in [
            ([("surface", 3), ("perfect", None)], [1, 2], [None, "support", "off-support"]),
            ([("phase-flip", 3)], [1, 2, 3], [None, "support"]),
            ([("surface", 3)], [3], [None, "off-support"]),
        ]
        for (name, d), r, inject in itertools.product(codes_, rs, injects)
    ],
)
def test_fault_sets_of_three_match_the_walk(name, d, r, inject):
    # the table of sets of at most three events, which the model and the
    # Monte Carlo engine read, against the walk over every set of one, two
    # and three locations (about 1.9e5 sets at surface d = 3, r = 3),
    # with no Z and with Z injected on a support qubit (a branch
    # syndrome) or off the support (none); the walk's last kind is the
    # empty set.  Every phase-flip X fault has a zero signature, so most
    # of its sets lie within the target's bits and are counted slot by
    # slot; on the surface code, Z off the support gives a nonzero
    # target, so the sets within its bits also take nonzero signatures
    code = codes.get_code(name, d)
    mult = code.error_multiplicities
    inject_z = None
    target = 0
    if inject is not None:
        off_support = [q for q in range(code.n) if q not in code.z_support]
        inject_z = code.z_support[1] if inject == "support" else off_support[0]
        rest, b0 = codes._reduce(codes._branch_basis(mult.branch_columns)[0],
                                 mult.channels[3 * inject_z + 2])
        target = rest << code.d | b0
    got = codes._fault_set_counts(mult, r, target)
    walk = fault_set_counts(code, r, inject_z, order=3)
    assert [list(row) for row in got] == [row[:9] for row in walk]
    assert all(any(row[5:9]) for row in walk)  # every class takes some sets of three


@pytest.mark.parametrize(
    "name, d, r",
    [("surface", 3, 4), ("phase-flip", 5, 4), ("phase-flip", 3, 5), ("perfect", None, 4),
     ("perfect", None, 5), ("four-qubit", None, 4)],
)
def test_fault_sets_match_brute_force_past_r_3(name, d, r):
    # the rows r = 4..7 that the cubic reads past r = 7, counted directly,
    # against every set of one to three events walked one by one, with no
    # target and with every distinct remainder of an injected Z.  The
    # four-qubit code gives no rotation, but its four cycle-0 slots hold
    # equal zero-signature events with b0 != 0, so three of them read A^3
    code = codes.get_code(name, d)
    mult = code.error_multiplicities
    rows = codes._branch_basis(mult.branch_columns)[0]
    targets = {0} | {codes._reduce(rows, mult.channels[3 * q + 2])[0] for q in range(code.n)}
    for target in sorted(targets):
        got = {k: v for k, v in codes._count_sets(mult, r, target).items() if v}
        assert got == count_sets_by_brute_force(mult, r, target), target


def test_fault_sets_are_shared_by_code_value():
    # two objects built from the same checks; the enumeration runs once
    a = codes.rotated_surface_code(5).error_multiplicities
    b = codes.rotated_surface_code(5).error_multiplicities
    assert a is not b
    assert codes._fault_set_counts(a, 2, 0) is codes._fault_set_counts(b, 2, 0)


def test_replace_rederives_from_the_checks():
    # a surface d=3 copy whose logical Z is the diagonal times the
    # Z-type check on qubits 3, 4, 6, 7: support and counts both follow
    # the new logical_z
    code = codes.get_code("surface", 3)
    moved = dataclasses.replace(
        code, logical_z=code.logical_z * PauliString.from_label("IIIZZIZZI")
    )
    assert moved.z_support == (0, 3, 6, 7, 8)
    assert first_order_multiplicity(moved) == counts_from_masks(moved)
    assert codes.validate(moved).ok


def test_require_rotation(code):
    if code.name == "four-qubit":
        with pytest.raises(ValueError, match="'four-qubit' gives no rotation state: its "
                           "logical Z must be pure Z with odd weight d"):
            codes.require_rotation(code)
    else:
        codes.require_rotation(code)


def test_require_rotation_refuses_x_part_and_wrong_weight():
    good = codes.get_code("phase-flip", 3)
    for changed in (
        dataclasses.replace(good, logical_z=PauliString.from_label("YZZ")),
        dataclasses.replace(good, logical_z=PauliString.from_label("ZZI")),
        dataclasses.replace(good, d=5),
    ):
        with pytest.raises(ValueError, match="pure Z with odd weight d"):
            codes.require_rotation(changed)


def test_syndrome_of_known_errors():
    code = codes.get_code("phase-flip", 3)
    clean = syndrome(PauliString.identity(3), code)
    assert clean == (0,) * 2
    z_mid = PauliString.single_z(3, 1)
    assert syndrome(z_mid, code) == (1, 1)
    z_end = PauliString.single_z(3, 0)
    assert syndrome(z_end, code) == (1, 0)
    # X errors commute with the X-type checks
    assert syndrome(PauliString.single_x(3, 1), code) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_syndrome_is_linear(data):
    name, d = data.draw(st.sampled_from(ALL_INSTANCES))
    code = codes.get_code(name, d)
    bits = st.integers(min_value=0, max_value=(1 << code.n) - 1)
    e1 = PauliString(code.n, data.draw(bits), data.draw(bits))
    e2 = PauliString(code.n, data.draw(bits), data.draw(bits))
    s1 = syndrome(e1, code)
    s2 = syndrome(e2, code)
    s12 = syndrome(e1 * e2, code)
    assert s12 == tuple(a ^ b for a, b in zip(s1, s2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_syndrome_matches_commutation(data):
    name, d = data.draw(st.sampled_from(ALL_INSTANCES))
    code = codes.get_code(name, d)
    bits = st.integers(min_value=0, max_value=(1 << code.n) - 1)
    err = PauliString(code.n, data.draw(bits), data.draw(bits))
    syn = syndrome(err, code)
    for bit, g in zip(syn, code.stabilizers):
        assert bit == (0 if commutes(err, g) else 1)


def test_stabilizers_mutually_commute(code):
    for i, a in enumerate(code.stabilizers):
        for b in code.stabilizers[i + 1:]:
            assert commutes(a, b)


def test_validate_flags_broken_code():
    good = codes.get_code("phase-flip", 3)
    bad = codes.StabilizerCode(
        name="broken",
        n=good.n,
        k=good.k,
        d=good.d,
        stabilizers=(good.stabilizers[0], PauliString.from_label("ZII")),
        logical_z=good.logical_z,
        logical_x=good.logical_x,
        distance_metric=good.distance_metric,
    )
    report = codes.validate(bad)
    assert not report.ok
    assert report.failures


def test_validate_flags_dependent_generators():
    good = codes.get_code("phase-flip", 5)
    first, second = good.stabilizers[:2]
    dependent = dataclasses.replace(good, stabilizers=good.stabilizers[:-1] + (first * second,))
    assert "generators are not independent" in codes.validate(dependent).failures
    assert "generators are not independent" not in codes.validate(good).failures


def test_validate_flags_each_broken_part():
    # one broken part per copy of the phase-flip code, each named once
    good = codes.get_code("phase-flip", 3)
    x_part = good.logical_z * good.logical_x  # YYY up to phase
    broken = {
        "expected 2 generators, found 1": dataclasses.replace(
            good, stabilizers=good.stabilizers[:1]),
        "logical_z and logical_x commute": dataclasses.replace(good, logical_x=good.logical_z),
        "logical_z is not pure Z": dataclasses.replace(good, logical_z=x_part),
    }
    for failure, code in broken.items():
        report = codes.validate(code)
        assert not report.ok
        assert failure in report.failures, report.failures

