import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import codes
from ftrot.pauli import PauliString, commutes

from oracles import first_order_multiplicity, matrices_commute, pauli_matrix

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


def test_check_distance_agrees_with_get_code():
    pairs = [(name, d) for name in codes.list_codes() for d in (None, 1, 2, 3, 4, 5)]
    pairs.append(("no-such-code", 3))
    for name, d in pairs:
        try:
            codes.get_code(name, d)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                codes.check_distance(name, d)
        else:
            codes.check_distance(name, d)


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


def test_noncommuting_set_matches_support_touch(code):
    support_mask = 0
    for q in code.z_support:
        support_mask |= 1 << q
    expected = tuple(
        i for i, g in enumerate(code.stabilizers) if g.x & support_mask
    )
    assert code.noncommuting_set == expected


def test_noncommuting_set_sizes():
    # d-1 for the two main families; the transversal rotation only
    # collides with checks whose X part meets the support
    assert len(codes.get_code("phase-flip", 5).noncommuting_set) == 4
    assert len(codes.get_code("surface", 3).noncommuting_set) == 2
    assert len(codes.get_code("surface", 7).noncommuting_set) == 6
    assert len(codes.get_code("four-qubit").noncommuting_set) == 1
    assert len(codes.get_code("perfect").noncommuting_set) == 4


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


def test_multiplicities_match_enumeration_oracle():
    """Re-derive the undetected-channel counts by direct enumeration.

    The oracle counts single-qubit Paulis whose stabilizer signature a
    weight-1 branch pattern can cancel.  For surface and perfect codes
    that count equals the stored first-order multiplicity.  For
    phase-flip, Y errors share Z's signature under the depolarizing
    channel (no Z-type checks exist to see their X part), so both the
    enumeration and the stored count are 2d.
    """
    for name, d in (("surface", 3), ("surface", 5), ("surface", 7)):
        code = codes.get_code(name, d)
        flips, readout = first_order_multiplicity(code)
        assert flips == code.error_multiplicities.first_order == code.d + 2
        assert readout == code.error_multiplicities.readout_combos == 2
    perfect = codes.get_code("perfect")
    assert first_order_multiplicity(perfect) == (3, 1)
    assert perfect.error_multiplicities.first_order == 3
    for d in (3, 5):
        code = codes.get_code("phase-flip", d)
        flips, readout = first_order_multiplicity(code)
        assert flips == code.error_multiplicities.first_order == 2 * d
        assert readout == code.error_multiplicities.readout_combos == 2


def test_stored_multiplicity_tuples():
    assert codes.get_code("surface", 5).error_multiplicities == codes.Multiplicities(5, 2, 2)
    # Z and Y on each support qubit: no Z-type check sees the Y
    assert codes.get_code("phase-flip", 3).error_multiplicities == codes.Multiplicities(6, 0, 2)
    # weight-2 support makes X and Y first order as well; the closed
    # form folds all eight channels into one count
    assert codes.get_code("four-qubit").error_multiplicities == codes.Multiplicities(8, 0, 2)
    assert codes.get_code("perfect").error_multiplicities == codes.Multiplicities(3, 0, 1)


def test_syndrome_of_known_errors():
    code = codes.get_code("phase-flip", 3)
    clean = code.syndrome_of(PauliString.identity(3))
    assert clean == (0,) * 2
    z_mid = PauliString.single_z(3, 1)
    assert code.syndrome_of(z_mid) == (1, 1)
    z_end = PauliString.single_z(3, 0)
    assert code.syndrome_of(z_end) == (1, 0)
    # X errors commute with the X-type checks
    assert code.syndrome_of(PauliString.single_x(3, 1)) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_syndrome_is_linear(data):
    name, d = data.draw(st.sampled_from(ALL_INSTANCES))
    code = codes.get_code(name, d)
    bits = st.integers(min_value=0, max_value=(1 << code.n) - 1)
    e1 = PauliString(code.n, data.draw(bits), data.draw(bits))
    e2 = PauliString(code.n, data.draw(bits), data.draw(bits))
    s1 = code.syndrome_of(e1)
    s2 = code.syndrome_of(e2)
    s12 = code.syndrome_of(e1 * e2)
    assert s12 == tuple(a ^ b for a, b in zip(s1, s2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_syndrome_matches_commutation(data):
    name, d = data.draw(st.sampled_from(ALL_INSTANCES))
    code = codes.get_code(name, d)
    bits = st.integers(min_value=0, max_value=(1 << code.n) - 1)
    err = PauliString(code.n, data.draw(bits), data.draw(bits))
    syn = code.syndrome_of(err)
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
        z_support=good.z_support,
        noncommuting_set=good.noncommuting_set,
        error_multiplicities=good.error_multiplicities,
        distance_metric=good.distance_metric,
    )
    report = codes.validate(bad)
    assert not report.ok
    assert report.failures
