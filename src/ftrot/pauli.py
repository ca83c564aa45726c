"""Pauli strings as symplectic bit masks.

A length-n Pauli operator is stored as a pair of integers (x, z) whose
bit q gives the X / Z component on qubit q, together with a power of i.
The represented operator is

    i**phase * prod_q X_q**x[q] * prod_q Z_q**z[q]

so a single-qubit Y is (x=1, z=1, phase=1).  Everything the rest of the
package needs (commutation, products, supports) is bit arithmetic on
these masks; no matrices are built outside the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}


def _popcount(v: int) -> int:
    return v.bit_count()


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator in symplectic (x, z, phase) form.

    Parameters
    ----------
    n:
        Number of qubits.
    x, z:
        Bit masks of X and Z components; bit q acts on qubit q.
    phase:
        Power of i in front of the X..Z product, mod 4.
    """

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(f"component masks exceed {self.n} qubits")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a letter string; qubit 0 is the leftmost character."""
        x = z = 0
        n_y = 0
        for q, letter in enumerate(label.upper()):
            try:
                xb, zb = _LETTER_TO_BITS[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
            n_y += xb & zb
        return cls(len(label), x, z, n_y)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def single_z(cls, n: int, qubit: int) -> "PauliString":
        return cls(n, 0, 1 << qubit)

    @classmethod
    def single_x(cls, n: int, qubit: int) -> "PauliString":
        return cls(n, 1 << qubit, 0)

    def label(self) -> str:
        """Letter form with a leading sign when the phase is not +1."""
        letters = []
        n_y = 0
        for q in range(self.n):
            bits = ((self.x >> q) & 1, (self.z >> q) & 1)
            letters.append(_BITS_TO_LETTER[bits])
            n_y += bits[0] & bits[1]
        return _PHASE_PREFIX[(self.phase - n_y) % 4] + "".join(letters)

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return _popcount(self.x | self.z)

    @property
    def support(self) -> tuple[int, ...]:
        s = self.x | self.z
        return tuple(q for q in range(self.n) if (s >> q) & 1)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        # Z^b X^c = (-1)^{|b&c|} X^c Z^b, so swapping the inner factors
        # costs i^{2 |z1 & x2|}.
        phase = self.phase + other.phase + 2 * _popcount(self.z & other.x)
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.label()


def commutes(p: PauliString, q: PauliString) -> bool:
    """True when the two operators commute.

    The symplectic form <p, q> = |p.x & q.z| + |p.z & q.x| mod 2 is 0
    exactly for commuting Pauli operators.
    """
    if p.n != q.n:
        raise ValueError("qubit counts differ")
    return (_popcount(p.x & q.z) + _popcount(p.z & q.x)) % 2 == 0
