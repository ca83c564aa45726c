"""Stabilizer codes used by the rotation-preparation protocol.

Four code families are registered:

``phase-flip``
    The distance-d repetition code in the X basis (stabilizers
    ``X_i X_{i+1}``).  Only phase errors are protected against, which is
    all the protocol needs; the stored distance counts Z-type logicals.
``surface``
    The rotated d x d surface code with the logical Z on the main
    diagonal and the logical X on the anti-diagonal.
``four-qubit``
    The [[4,2,2]] code with one designated logical qubit.  Its logical
    Z has weight 2, so the projected transversal rotation is a weak
    filter of |0_L> against |1_L>, not a rotation: `require_rotation`
    refuses it.
``perfect``
    A [[5,1,3]] code in a gauge where the logical Z is ``ZZZII``, i.e.
    supported on only three qubits.

A code stores only the values someone chooses: its checks, its
logical pair and its parameters.  Everything else is derived from the
checks, once per code object: the rotation support (the support of
``logical_z``) and the check masks that its fault sets are read from
(`Multiplicities`).  One rule says which fault sets are accepted:
`slot_events` gives each data fault and readout flip over r cycles a
signature and a branch string b0, over GF(2), and a set is accepted when
its signatures XOR to 0, reading the XOR of its b0s.
`_fault_set_counts` is the one cached fault-set table: every accepted
set of at most three faults and flips over r cycles, grouped by
signature and counted by the weight classes of the branch strings it
is accepted with, class 0 included, once per check layout, r and
target; past r = 7 its counts are extrapolated exactly from r = 4..7.
`fault_set_rates` is its one weighting, each set at the product of its
events' odds (`event_odds`): both the model's class rates and the Monte
Carlo engine's law of the trials with at most three faults, the
engine's also with an injected Z's form as the target.  `code_of_size`
finds the registered code of a given size, for callers that only hold
a code's qubit and check counts.  The test suite walks every fault set
one at a time with a Pauli frame per cycle.

`require_rotation` is the one rule for which codes the protocol
covers; the Monte Carlo engine, the planner and ``analyze`` call it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .pauli import PauliString, commutes


class Multiplicities(NamedTuple):
    """The check masks that a code's fault sets are read from, and the
    key of the cached fault-set table (`_fault_set_counts`) and of the
    Monte Carlo engine's plan.  Derived from the checks by the code (see
    ``StabilizerCode.error_multiplicities``).

    Attributes
    ----------
    channels:
        The check bit mask of each single-qubit channel, qubit-major,
        X Y Z: bit i is set when the channel anticommutes with check i.
    branch_columns:
        The check mask of Z on each support position.
    n_checks:
        The check count.
    """

    channels: tuple[int, ...]
    branch_columns: tuple[int, ...]
    n_checks: int


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k, d]] stabilizer code with a designated logical pair.

    The fields are the values someone chooses; ``z_support`` and
    ``error_multiplicities`` are derived from them on first use, so
    ``dataclasses.replace`` re-derives them.

    Attributes
    ----------
    name:
        Registry name of the family this instance came from.
    n, k, d:
        Qubit count, logical count, and code distance.  For the
        phase-flip family ``d`` counts Z-type logicals only (see
        ``distance_metric``).
    stabilizers:
        Generator tuple; the Monte-Carlo engine measures these in the
        order given.
    logical_z, logical_x:
        The designated logical pair.  ``logical_z`` is always a pure
        Z-type operator here; the rotation is transversal over its
        support.
    distance_metric:
        ``"full"`` for a genuine distance-d code, ``"phase"`` when only
        Z-type logicals are counted (phase-flip family).
    """

    name: str
    n: int
    k: int
    d: int
    stabilizers: tuple[PauliString, ...]
    logical_z: PauliString
    logical_x: PauliString
    distance_metric: str = "full"

    @cached_property
    def z_support(self) -> tuple[int, ...]:
        """Qubit indices of ``logical_z``'s support."""
        return self.logical_z.support

    @cached_property
    def error_multiplicities(self) -> Multiplicities:
        """See :class:`Multiplicities`."""
        # Per-qubit check columns: bit i of z_trips[q] is set when Z_q
        # anticommutes with generator i (its X part covers q), and of
        # x_trips[q] when X_q does; Y_q trips the XOR of the two.
        z_trips = [0] * self.n
        x_trips = [0] * self.n
        for i, s in enumerate(self.stabilizers):
            for q in _bits(s.x):
                z_trips[q] |= 1 << i
            for q in _bits(s.z):
                x_trips[q] |= 1 << i
        channels = tuple(
            trips
            for q in range(self.n)
            for trips in (x_trips[q], x_trips[q] ^ z_trips[q], z_trips[q])
        )
        return Multiplicities(
            channels, tuple(z_trips[q] for q in self.z_support), len(self.stabilizers)
        )


def require_rotation(code: StabilizerCode) -> None:
    """Raise ValueError unless the transversal rotation on ``code``
    prepares a logical rotation state.

    ``logical_z`` must be pure Z with odd weight d.  Projected onto the
    code space, the rotation is then cos^d + (i sin)^d Z_L (half-angles
    implied), a rotation about Z_L, and the accepted branch pair is
    {0, 1^d}.  With even weight both coefficients are real, so it is a
    filter instead.
    """
    if code.logical_z.x or len(code.z_support) != code.d or code.d % 2 == 0:
        raise ValueError(
            f"code {code.name!r} gives no rotation state: its logical Z "
            "must be pure Z with odd weight d"
        )


def _coset_counts(columns: tuple[int, ...], b0: int) -> tuple[int, ...]:
    """The branch strings b0 + (kernel of the columns), counted by
    weight: the strings with branch string b0's syndrome."""
    coset = [b0]
    for k in _branch_basis(columns)[1]:
        coset += [b ^ k for b in coset]
    counts = [0] * (len(columns) + 1)
    for b in coset:
        counts[b.bit_count()] += 1
    return tuple(counts)


@functools.lru_cache(maxsize=64)
def _branch_basis(
    columns: tuple[int, ...],
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """Echelon form of the branch columns: rows (leading check, mask,
    support positions summed), leading checks distinct and descending,
    and a basis of the kernel as support-position masks."""
    rows: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, col in enumerate(columns):
        mask, pos = col, 1 << j
        while mask:
            lead = mask.bit_length() - 1
            if lead not in rows:
                rows[lead] = (mask, pos)
                break
            mask ^= rows[lead][0]
            pos ^= rows[lead][1]
        else:
            kernel.append(pos)
    return tuple((lead, *rows[lead]) for lead in sorted(rows, reverse=True)), tuple(kernel)


def _reduce(rows: tuple[tuple[int, int, int], ...], syndrome: int) -> tuple[int, int]:
    """(remainder, support positions) of a syndrome against the echelon
    rows.  The remainder is the same for two syndromes exactly when
    their XOR is a branch syndrome, and 0 for the branch syndromes."""
    pos = 0
    for lead, mask, p in rows:
        if syndrome >> lead & 1:
            syndrome ^= mask
            pos ^= p
    return syndrome, pos


def slot_events(mult: Multiplicities, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The acceptance signature and branch string b0 of every event over
    r cycles, in the Monte Carlo engine's slot order: the data slots
    (cycle, qubit), each as X, Y and Z, then the flip slots (cycle, check).

    With s_t the syndrome cycle t = 0..r-1 reads, row 0 of a signature
    is the remainder (`_reduce`) of the event's part of s_0, and row
    t >= 1 its part of s_t ^ s_{t-1}: a data fault enters the row of its
    cycle, a flip the rows of its cycle and the next.  A signature is an
    integer whose bits [t n_checks, (t + 1) n_checks) hold row t; b0 is
    `_reduce`'s branch string of the event's part of s_0.  It is all
    linear, so a set is accepted (every cycle reads s_0, a branch
    syndrome) exactly when its signatures XOR to 0, and then reads the
    XOR of its b0s.  Not cached: `_count_sets` reads it once per
    cached table (`_fault_set_counts`), and the Monte Carlo engine's
    cached plan reads its one-cycle forms.
    """
    channels, columns, n_checks = mult
    rows = _branch_basis(columns)[0]
    data = [_reduce(rows, s) for s in channels]
    flip = [_reduce(rows, 1 << i) for i in range(n_checks)]
    sigs = [rest for rest, _ in data]
    sigs += [s << t * n_checks for t in range(1, r) for s in channels]
    for t in range(r):
        for i, (rest, _) in enumerate(flip):
            bit = 1 << t * n_checks + i
            sigs.append((bit if t else rest) | (bit << n_checks if t + 1 < r else 0))
    later = [0] * (r - 1)
    b0s = [b0 for _, b0 in data] + later * len(channels)
    b0s += [b0 for _, b0 in flip] + later * n_checks
    return tuple(sigs), tuple(b0s)


def _count_sets(mult: Multiplicities, r: int, target: int) -> collections.Counter:
    """The accepted sets of one to three events of `slot_events` over r
    cycles, counted event by event, as {(b0, shape): count}, shape 0..4:
    data, flip, data-data, data-flip, flip-flip, then 5..8 for three
    events: data-data-data, data-data-flip, data-flip-flip, flip-flip-
    flip.  A data event is one X/Y/Z kind; two data faults in one slot
    are no set.

    A set is accepted when its signatures XOR to `target`: 0, or an
    injected Z's signature, its remainder (`_reduce`) in row 0 alone.
    b0 is the XOR of the set's b0s.  Two rules count every set once.  A
    set with a member that has a signature bit outside the target is
    found from its lowest-index such member e, at e's lowest such bit b:
    the set's XOR has no bit b, so exactly one other member f has it,
    and a third member g, if any, comes from the group of events whose
    signature is target ^ sig(e) ^ sig(f), kept when it has no bit
    outside the target or comes after e.  Every other set lies within
    the target's bits, and is counted slot by slot, not set by set, as a
    code can hold hundreds of such events (every X fault on the
    phase-flip code has a zero signature): k slots with equal sums A of
    (signature, b0, flips) labels add j events in C(k, j) A^j ways.
    Not cached: its one caller, `_fault_set_counts`, is.
    """
    sigs, b0s = slot_events(mult, r)
    n_data = len(mult.channels) * r
    # a data event's slot is its (cycle, qubit); a flip is its own slot
    slots = [e // 3 if e < n_data else e for e in range(len(sigs))]
    # each event's lowest signature bit outside the target, -1 if none
    low: list[int] = []
    groups: dict[int, list[int]] = {}
    by_bit: dict[int, list[int]] = {}
    by_slot: dict[int, dict] = {}
    for e, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(e)
        outside = sig & ~target
        low.append((outside & -outside).bit_length() - 1)
        for bit in _bits(outside):
            by_bit.setdefault(bit, []).append(e)
        if low[e] < 0:
            labels = by_slot.setdefault(slots[e], collections.Counter())
            labels[sig, b0s[e], int(e >= n_data)] += 1

    tally: collections.Counter = collections.Counter()
    for e, sig in enumerate(sigs):
        if low[e] < 0:
            continue
        for f in by_bit[low[e]]:
            if f <= e or slots[f] == slots[e]:
                continue
            b0, flips = b0s[e] ^ b0s[f], (e >= n_data) + (f >= n_data)
            rest = target ^ sig ^ sigs[f]
            if not rest:
                tally[b0, 2 + flips] += 1
            for g in groups.get(rest, ()):
                if slots[g] != slots[e] and slots[g] != slots[f] and (g > e or low[g] < 0):
                    tally[b0 ^ b0s[g], 5 + flips + (g >= n_data)] += 1

    # sets[k]: the sets of k events within the target's bits on distinct
    # slots, by label; the slots are added one kind at a time, sets[3]
    # first, so that sets[k - j] does not yet hold the kind
    sets = [{(0, 0, 0): 1}] + [collections.Counter() for _ in range(3)]
    kinds = collections.Counter(frozenset(labels.items()) for labels in by_slot.values())
    for kind, k in kinds.items():
        powers = [sets[0], dict(kind)]
        while len(powers) < 4:
            powers.append(_label_product(powers[-1], powers[1]))
        for n in (3, 2, 1):
            for j in range(1, min(n, k) + 1):
                ways = math.comb(k, j)
                for label, x in _label_product(sets[n - j], powers[j]).items():
                    sets[n][label] += ways * x
    for n, shape in ((1, 0), (2, 2), (3, 5)):
        for (sig, b0, flips), count in sets[n].items():
            if sig == target:
                tally[b0, shape + flips] += count
    return tally


def _label_product(a: dict, b: dict) -> dict:
    """The product of two sums of (signature, b0, flips) labels, which
    combine by XOR of the signatures and of the b0s and sum of the
    flips."""
    out: dict = collections.defaultdict(int)
    for (s, b0, n), x in a.items():
        for (t, c0, m), y in b.items():
            out[s ^ t, b0 ^ c0, n + m] += x * y
    return out


@functools.lru_cache(maxsize=64)
def _fault_set_counts(mult: Multiplicities, r: int, target: int) -> tuple[tuple[int, ...], ...]:
    """Per weight class m = 0..d//2, the accepted sets of one to three
    events over r cycles per shape (`_count_sets`: a data fault, a flip,
    two data faults, one of each, two flips, then the four shapes of
    three): each count sums the class-m branch pairs {b, bbar} that its
    sets are accepted with.  `target` is the form (`_reduce`'s
    `rest << d | b0`) of a Z injected in the first cycle, 0 without one:
    each (b0, shape) of `_count_sets` at target `rest` adds the branch
    strings of b0 XOR the Z's per class (`_coset_counts`).  Cached by
    value, so code objects with the same checks share one table, and the
    model and the Monte Carlo engine share it.

    Past r = 7 each count is the cubic in r through r = 4..7, exactly.
    Call the cycles that hold a set's events occupied, and a run of
    consecutive occupied cycles a group.  A data fault's signature lies
    in its own cycle's row and a flip's in its cycle's and the next, so
    groups with an empty cycle between them touch disjoint rows, and the
    set is accepted exactly when each group is: the group at cycle 0
    with the target, the others with 0.  Only cycle-0 events carry a b0,
    so that group also fixes the set's b0.  A group that touches neither
    cycle 0 nor cycle r - 1 is accepted or not wherever it sits; one that
    touches only one end depends only on its offset from that end.  A
    group spans at most as many cycles as it holds events, so from r = 4
    on no group touches both ends, and the sets of one kind, with g
    middle groups spanning S cycles in all, are placed in C(E - 1, g)
    ways, E = r - S >= 1: a polynomial in r of degree g <= 3.  A class
    count is a fixed integer sum of them.  At r = 3 a group of three
    events can touch both ends, as the r flips of one check do, so the
    cubic does not reach down to it.
    """
    if r > 7:
        by_r = [_fault_set_counts(mult, t, target) for t in range(4, 8)]
        # the cubic through r = 4 + i, i = 0..3, at r: the sum over j of
        # C(k, j) times the j-th forward difference at r = 4
        k = r - 4
        weights = [
            sum(math.comb(k, j) * math.comb(j, i) * (-1) ** (j - i) for j in range(i, 4))
            for i in range(4)
        ]
        return tuple(
            tuple(sum(w * v for w, v in zip(weights, values)) for values in zip(*rows))
            for rows in zip(*by_r)
        )
    columns = mult.branch_columns
    d = len(columns)
    counts = [[0] * 9 for _ in range(d // 2 + 1)]
    tally = _count_sets(mult, r, target >> d)
    for (b0, shape), count in tally.items():
        strings = _coset_counts(columns, b0 ^ (target & (1 << d) - 1))
        for m, row in enumerate(counts):
            row[shape] += strings[m] * count
    return tuple(map(tuple, counts))


def event_odds(p_in: float, readout_flip: float) -> tuple[float, float]:
    """The odds (a, g) of one event against a clean slot: a = (p_in/3) /
    (1 - p_in) for a data fault of one kind, g = f / (1 - f) for a flip
    at readout_flip f.  A set of events and no other weighs P0 (no event
    at all) times the product of its odds."""
    return p_in / 3.0 / (1.0 - p_in), readout_flip / (1.0 - readout_flip)


def fault_set_rates(
    mult: Multiplicities, r: int, target: int, p_in: float, readout_flip: float
) -> np.ndarray:
    """`_fault_set_counts` (same arguments) with each set weighted by its
    events' odds (`event_odds`): per class m, P(exactly those events,
    accepted in class m) over P0 and the class-m pair weight, summed over
    the sets of one to three events.  The empty set is left to the
    caller."""
    a, g = event_odds(p_in, readout_flip)
    odds = (a, g, a * a, a * g, g * g, a**3, a * a * g, a * g * g, g**3)
    counts = np.array(_fault_set_counts(mult, r, target), dtype=float)
    return counts @ odds


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --------------------------------------------------------------------
# code constructors
# --------------------------------------------------------------------


def phase_flip_code(d: int) -> StabilizerCode:
    """Distance-d phase-flip repetition code, [[d, 1, d]]_Z.

    Stabilizers are ``X_i X_{i+1}``; the logical Z is the full-weight
    ``Z...Z`` string, so every generator's X part meets the rotation.
    With no Z-type checks, Y on a support qubit has Z's syndrome, so
    both feed the first-order path.
    """
    _require_distance(d)
    stabs = tuple(
        PauliString(d, (0b11 << i), 0) for i in range(d - 1)
    )
    mask = (1 << d) - 1
    return StabilizerCode(
        name="phase-flip",
        n=d,
        k=1,
        d=d,
        stabilizers=stabs,
        logical_z=PauliString(d, 0, mask),
        logical_x=PauliString(d, mask, 0),
        distance_metric="phase",
    )


def rotated_surface_code(d: int) -> StabilizerCode:
    """Rotated d x d surface code with diagonal logicals.

    Data qubit (r, c) has index ``d*r + c``.  Plaquette corners run
    over (i, j) in [-1, d-1]^2; a plaquette covers the up-to-four
    qubits {(i,j), (i,j+1), (i+1,j), (i+1,j+1)} inside the grid and is
    X-type when i+j is even.  Boundary halves keep the usual rotated
    layout: X halves on the top and bottom rows, Z halves on the left
    and right columns, no corner singles.  The logical Z runs down the
    main diagonal and the logical X along the anti-diagonal, so the
    rotation support is the d diagonal qubits.
    """
    _require_distance(d)
    n = d * d

    def qubit(r: int, c: int) -> int:
        return d * r + c

    stabs: list[PauliString] = []
    for i, j in itertools.product(range(-1, d), repeat=2):
        corners = [
            (r, c)
            for r, c in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))
            if 0 <= r < d and 0 <= c < d
        ]
        if len(corners) == 4:
            keep = True
        elif len(corners) == 2:
            x_type = (i + j) % 2 == 0
            if i == -1 or i == d - 1:  # top / bottom row: X halves only
                keep = x_type
            else:  # left / right column: Z halves only
                keep = not x_type
        else:  # corner singles never appear in the rotated layout
            keep = False
        if not keep:
            continue
        mask = 0
        for r, c in corners:
            mask |= 1 << qubit(r, c)
        if (i + j) % 2 == 0:
            stabs.append(PauliString(n, mask, 0))
        else:
            stabs.append(PauliString(n, 0, mask))

    assert len(stabs) == n - 1, "rotated layout must give n-1 checks"

    z_mask = 0
    x_mask = 0
    for t in range(d):
        z_mask |= 1 << qubit(t, t)
        x_mask |= 1 << qubit(t, d - 1 - t)

    return StabilizerCode(
        name="surface",
        n=n,
        k=1,
        d=d,
        stabilizers=tuple(stabs),
        logical_z=PauliString(n, 0, z_mask),
        logical_x=PauliString(n, x_mask, 0),
    )


def four_qubit_code() -> StabilizerCode:
    """[[4,2,2]] code, one designated logical qubit.

    The designated logical Z is ``ZZII`` (weight-2 support).  Every X
    or Y trips ``ZZZZ``, which no branch pattern can cancel, so only
    the four single-qubit Z channels are first order.
    """
    stabs = (
        PauliString.from_label("XXXX"),
        PauliString.from_label("ZZZZ"),
    )
    return StabilizerCode(
        name="four-qubit",
        n=4,
        k=2,
        d=2,
        stabilizers=stabs,
        logical_z=PauliString.from_label("ZZII"),
        logical_x=PauliString.from_label("XIXI"),
    )


def perfect_code() -> StabilizerCode:
    """[[5,1,3]] code in a gauge with a weight-3 logical Z.

    The generators are a cyclic-code gauge chosen so that
    ``logical_z = ZZZII``: the rotation then acts on three qubits only,
    at the cost of all four generators' X parts meeting that support.
    """
    stabs = (
        PauliString.from_label("YYIZZ"),
        PauliString.from_label("IXXXZ"),
        PauliString.from_label("YXZIX"),
        PauliString.from_label("XYZXI"),
    )
    return StabilizerCode(
        name="perfect",
        n=5,
        k=1,
        d=3,
        stabilizers=stabs,
        logical_z=PauliString.from_label("ZZZII"),
        logical_x=_PERFECT_LOGICAL_X,
    )


# Minimal-weight representative found by exhaustive search (validate()
# re-checks the algebra); the overall sign is a gauge choice.
_PERFECT_LOGICAL_X = PauliString.from_label("IIXYY")


# --------------------------------------------------------------------
# registry
# --------------------------------------------------------------------

_PARAMETRIZED = {"phase-flip": phase_flip_code, "surface": rotated_surface_code}
_FIXED = {"four-qubit": four_qubit_code, "perfect": perfect_code}

CODE_DESCRIPTIONS = {
    "phase-flip": "distance-d repetition code in the X basis (d odd, >= 3)",
    "surface": "rotated d x d surface code, diagonal logicals (d odd, >= 3)",
    "four-qubit": "[[4,2,2]] code, weight-2 rotation support",
    "perfect": "[[5,1,3]] code, weight-3 rotation support",
}


def list_codes() -> tuple[str, ...]:
    return tuple(CODE_DESCRIPTIONS)


def is_parametrized(name: str) -> bool:
    """True for families that take a distance, False for fixed codes."""
    if name not in CODE_DESCRIPTIONS:
        raise ValueError(f"unknown code {name!r}")
    return name in _PARAMETRIZED


def get_code(name: str, d: int | None = None) -> StabilizerCode:
    """Instantiate a registered code.

    ``d`` is required for the parametrized families (phase-flip,
    surface) and must be omitted or match for the fixed ones.  Every
    call that names the same code shares one object, however d is
    passed: the build is cached on (name, d) with a fixed code's d read
    as None.  A code is frozen, so sharing it and the values derived
    from it is safe.
    """
    check_distance(name, d)
    return _build(name, d if name in _PARAMETRIZED else None)


@functools.lru_cache(maxsize=32)
def _build(name: str, d: int | None) -> StabilizerCode:
    """The one build of a checked (name, d), d None for a fixed code."""
    return _FIXED[name]() if d is None else _PARAMETRIZED[name](d)


def code_of_size(n: int, n_checks: int, d: int) -> StabilizerCode | None:
    """The registered code with n qubits, n_checks checks and distance
    d, or None.  No two registered codes share all three, so the sizes
    that `analytics.success_rate` is given name its code.  Not cached:
    the codes come from `get_code`, which is."""
    for name in CODE_DESCRIPTIONS:
        try:
            code = get_code(name, d)
        except ValueError:
            continue
        if code.n == n and len(code.stabilizers) == n_checks:
            return code
    return None


# the largest distance a parametrized family builds: the surface code's
# build time and memory grow as d^4
D_MAX = 51


def check_distance(name: str, d: int | None) -> None:
    """Raise ValueError unless `get_code(name, d)` accepts the pair.

    Builds no parametrized code, so a caller can check a grid of
    distances before any work starts.  A fixed code's d is read from
    its one cached build.
    """
    if name in _PARAMETRIZED:
        if d is None:
            raise ValueError(f"code {name!r} needs a distance d")
        _require_distance(d)
    elif name in _FIXED:
        if d is not None and d != (fixed := _build(name, None).d):
            raise ValueError(f"code {name!r} has fixed d={fixed}")
    else:
        raise ValueError(f"unknown code {name!r}")


def _require_distance(d: int) -> None:
    if not (3 <= d <= D_MAX and d % 2):
        raise ValueError(f"d must be odd and in [3, {D_MAX}], got {d}")


# --------------------------------------------------------------------
# validation
# --------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]
    distance: int | None = None


def validate(code: StabilizerCode) -> ValidationReport:
    """Re-derive the code's claimed structure from scratch.

    Checks generator commutation and independence, the logical pair
    algebra, that ``logical_z`` is pure Z, and (for n <= 9,
    by exhaustive search over all 4^n Paulis) the distance.  The
    distance search respects ``distance_metric``: for ``"phase"`` only
    Z-type logicals are counted.
    """
    failures: list[str] = []

    for i, a in enumerate(code.stabilizers):
        for j in range(i + 1, len(code.stabilizers)):
            if not commutes(a, code.stabilizers[j]):
                failures.append(f"generators {i} and {j} anticommute")

    if len(code.stabilizers) != code.n - code.k:
        failures.append(
            f"expected {code.n - code.k} generators, "
            f"found {len(code.stabilizers)}"
        )
    if _gf2_rank(code) != len(code.stabilizers):
        failures.append("generators are not independent")

    for name, op in (("logical_z", code.logical_z), ("logical_x", code.logical_x)):
        bad = [i for i, s in enumerate(code.stabilizers) if not commutes(op, s)]
        if bad:
            failures.append(f"{name} anticommutes with generators {bad}")
    if commutes(code.logical_z, code.logical_x):
        failures.append("logical_z and logical_x commute")

    if code.logical_z.x != 0:
        failures.append("logical_z is not pure Z")

    distance: int | None = None
    if code.n <= 9:
        distance = _brute_force_distance(code)
        if distance != code.d:
            failures.append(f"claimed d={code.d}, brute force found {distance}")

    return ValidationReport(ok=not failures, failures=tuple(failures), distance=distance)


def _gf2_rank(code: StabilizerCode) -> int:
    """Rank over GF(2) of the generators' symplectic masks x | z << n."""
    basis: list[int] = []
    for p in code.stabilizers:
        row = p.x | p.z << code.n
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _brute_force_distance(code: StabilizerCode) -> int:
    """Minimum weight of a logical operator, by exhaustive search.

    Enumerates all 4^n Pauli masks (n <= 9 keeps this around 260k),
    keeps those commuting with every generator and outside the
    stabilizer group, and returns the minimum weight.  The group is
    small enough (2^(n-k)) to enumerate into a set.
    """
    n = code.n
    group = {(0, 0)}
    for p in code.stabilizers:
        group |= {(g[0] ^ p.x, g[1] ^ p.z) for g in group}

    svals = np.arange(1 << (2 * n), dtype=np.uint64)
    xs = svals & np.uint64((1 << n) - 1)
    zs = svals >> np.uint64(n)
    if code.distance_metric == "phase":
        keep = xs == 0
        xs, zs = xs[keep], zs[keep]

    ok = np.ones(xs.shape, dtype=bool)
    for p in code.stabilizers:
        anti = (
            np.bitwise_count(xs & np.uint64(p.z))
            + np.bitwise_count(zs & np.uint64(p.x))
        ) % 2
        ok &= anti == 0
    xs, zs = xs[ok], zs[ok]

    weights = np.bitwise_count(xs | zs)
    for w in range(1, n + 1):
        for x, z in zip(xs[weights == w], zs[weights == w]):
            if (int(x), int(z)) not in group:
                return w
    return n
