import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot.pauli import PauliString, commutes

from oracles import matrices_commute, pauli_matrix

LETTERS = "IXYZ"

labels = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.text(alphabet=LETTERS, min_size=n, max_size=n)
)


def test_label_round_trip():
    for text in ("I", "XYZ", "ZZIXY", "YYYY"):
        p = PauliString.from_label(text)
        assert p.label() == text
        assert p.n == len(text)


def test_constructors():
    z1 = PauliString.single_z(4, 2)
    assert z1.label() == "IIZI"
    x0 = PauliString.single_x(3, 0)
    assert x0.label() == "XII"
    assert PauliString.identity(5).weight == 0


def test_weight_and_support():
    p = PauliString.from_label("IXYZI")
    assert p.weight == 3
    assert p.support == (1, 2, 3)


def test_bad_inputs():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString(2, x=0b100, z=0)
    with pytest.raises(ValueError):
        PauliString.from_label("XX") * PauliString.from_label("X")


def test_commutes_refuses_mismatched_sizes():
    with pytest.raises(ValueError):
        commutes(PauliString.from_label("XX"), PauliString.from_label("X"))


def test_product_phases_small_cases():
    X = PauliString.from_label("X")
    Y = PauliString.from_label("Y")
    Z = PauliString.from_label("Z")
    assert (X * Y).label() == "+iZ"
    assert (Y * X).label() == "-iZ"
    assert (Z * X).label() == "+iY"
    assert (Y * Y).label() == "I"


@settings(max_examples=150, deadline=None)
@given(labels, st.data())
def test_product_matches_matrix_oracle(a_label, data):
    b_label = data.draw(
        st.text(alphabet=LETTERS, min_size=len(a_label), max_size=len(a_label))
    )
    a = PauliString.from_label(a_label)
    b = PauliString.from_label(b_label)
    got = pauli_matrix((a * b).label())
    want = pauli_matrix(a_label) @ pauli_matrix(b_label)
    assert np.allclose(got, want)


@settings(max_examples=150, deadline=None)
@given(labels, st.data())
def test_commutes_matches_matrix_oracle(a_label, data):
    b_label = data.draw(
        st.text(alphabet=LETTERS, min_size=len(a_label), max_size=len(a_label))
    )
    a = PauliString.from_label(a_label)
    b = PauliString.from_label(b_label)
    assert commutes(a, b) == matrices_commute(
        pauli_matrix(a_label), pauli_matrix(b_label)
    )


@settings(max_examples=80, deadline=None)
@given(labels)
def test_self_products_are_identity(label):
    p = PauliString.from_label(label)
    square = p * p
    assert square.x == 0 and square.z == 0
    # P * P = i^(2 n_y) * X^0 Z^0 picks up no net sign for Hermitian P
    assert square.label() == "I" * p.n
    assert commutes(p, p)
