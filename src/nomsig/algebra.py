"""Group and hash abstraction used by the signature scheme.

Two interchangeable backends expose the same surface:

  * ``RealBackend`` -- the BN254 curve groups with the optimal ate pairing.
  * ``MockBackend`` -- every group element is its discrete log w.r.t. the
    fixed generator, reduced mod the group order; the pairing multiplies
    exponents. This is the brute-force oracle the test suites check the
    real curve against.

Scalars are plain ints in [0, order). Group elements are immutable wrapper
objects supporting ``*`` (group operation), ``**`` (scalar exponent), ``/``
and ``~`` (inverse), so scheme code reads like the algebra it implements.
A backend's one group-law hook is ``add_all``, which multiplies each pair of
a list in one call; ``Backend`` writes ``op``, ``op_all`` and
``subset_sums`` over it. On bn254 each per-group hook looks the group's
``curve.Group`` record up in ``RealBackend.groups``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any

from . import bn254, curve

ELL = 256

H1_TAG = b"NOMSIG-H1"
H2_TAG = b"NOMSIG-H2"


class AlgebraError(Exception):
    pass


class MalformedEncoding(AlgebraError):
    pass


class NotOnCurve(AlgebraError):
    pass


class NotInSubgroup(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# Hashes
# ---------------------------------------------------------------------------


def hash_h1(data: bytes) -> bytes:
    """H1: arbitrary bytes -> 256-bit string (returned as 32 bytes)."""
    return hashlib.sha256(H1_TAG + data).digest()


def hash_h2(data: bytes, order: int) -> int:
    """H2: arbitrary bytes -> scalar, by wide reduction of a 512-bit digest."""
    return int.from_bytes(hashlib.sha512(H2_TAG + data).digest(), "big") % order


def encode_parts(*parts: bytes) -> bytes:
    """Length-prefixed concatenation; keeps multi-field hash inputs unambiguous."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(4, "big") + part
    return bytes(out)


def bit(bs: bytes, i: int) -> int:
    """The i-th bit of a bit string, 1-indexed, MSB of the first byte first."""
    return (bs[(i - 1) >> 3] >> (7 - ((i - 1) & 7))) & 1


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


class GroupElem:
    """Immutable element of one of the three pairing groups.

    ``lines`` is None until a pairing on the real backend meets the element
    as a G2 argument; then it holds the element's Miller-loop lines, a
    function of its value, for the next pairing that meets it.

    ``comb`` counts the products of powers the element has been a base of on
    the real backend; at the ``COMB_USES``-th, the element's comb table, also
    a function of its value, replaces the count for good (``kept``).
    """

    __slots__ = ("backend", "group", "value", "lines", "comb")

    def __init__(self, backend: "Backend", group: str, value: Any):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "lines", None)
        object.__setattr__(self, "comb", 0)

    def __setattr__(self, *_):
        raise AttributeError("group elements are immutable")

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem) or other.group != self.group:
            return NotImplemented
        return GroupElem(self.backend, self.group, self.backend.op(self.group, self.value, other.value))

    def __truediv__(self, other: "GroupElem") -> "GroupElem":
        return self * ~other

    def __pow__(self, k: int) -> "GroupElem":
        return self.backend.multi_exp([(self, k)])

    def __invert__(self) -> "GroupElem":
        return GroupElem(self.backend, self.group, self.backend.inv(self.group, self.value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElem)
            and self.group == other.group
            and type(self.backend) is type(other.backend)
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.group, self.value))

    def is_identity(self) -> bool:
        return self.value == self.backend.identity_value(self.group)

    def to_bytes(self) -> bytes:
        return self.backend.serialize(self.group, self.value)

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __repr__(self):
        return f"<{self.group} {self.hex()[:16]}..>"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Backend:
    """Shared surface of the two backends."""

    name: str
    order: int

    def g1(self) -> GroupElem:
        return GroupElem(self, "G1", self.generator_value("G1"))

    def g2(self) -> GroupElem:
        return GroupElem(self, "G2", self.generator_value("G2"))

    def gt(self) -> GroupElem:
        """e(g1, g2), the canonical GT generator."""
        return GroupElem(self, "GT", self.generator_value("GT"))

    def identity(self, group: str) -> GroupElem:
        return GroupElem(self, group, self.identity_value(group))

    def pairing_product(self, pairs: list[tuple[GroupElem, GroupElem]], held=()) -> GroupElem:
        """prod_i e(a_i, b_i) over (G1, G2) pairs, times the pairings of the ``miller_value`` results held, as one batch."""
        for a, b in pairs:
            if a.group != "G1" or b.group != "G2":
                raise AlgebraError(f"pairing needs (G1, G2), got ({a.group}, {b.group})")
        return GroupElem(self, "GT", self.pairing_product_values(pairs, held))

    def pairing_check(self, pairs: list[tuple[GroupElem, GroupElem]], held=()) -> bool:
        """Whether prod_i e(a_i, b_i) times the held pairs' pairings is the identity, checked as one batch."""
        return self.pairing_product(pairs, held).is_identity()

    def multi_exp(self, terms: list[tuple[GroupElem, int]]) -> GroupElem:
        """prod_i x_i^k_i over one or more (element, scalar) terms of one group, as one joint exponentiation."""
        raise NotImplementedError

    def base_powers(self, base: GroupElem, scalars: list[int]) -> list[GroupElem]:
        """[base^k for k in scalars]; the real backend takes a batch of G2 powers from one comb."""
        return [base**k for k in scalars]

    def product(self, elems: list[GroupElem]) -> GroupElem:
        """The group product of one or more elements of one group, in one call."""
        group = _one_group(elems, "product")
        return GroupElem(self, group, self.op_all(group, [e.value for e in elems]))

    def subset_sums(self, group: str, groups: list[list]) -> list[list]:
        """``curve.subset_sums`` over lists of values of one group: entry j of a list's table multiplies its values at the set bits of j."""
        return curve.subset_sums(groups, functools.partial(self.add_all, group))

    def op(self, group, a, b):
        return self.add_all(group, [(a, b)])[0]

    def op_all(self, group, values):
        """The product of one or more values of one group, by a pairwise tree: one ``add_all`` call per level."""
        return curve.sums([values], functools.partial(self.add_all, group))[0]

    def element(self, group: str, data: bytes, compressed: bool = True) -> GroupElem:
        return GroupElem(self, group, self.deserialize(group, data, compressed))

    def random_scalar(self, rng) -> int:
        return rng.randrange(self.order)

    def random_nonzero_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    def hash_to_g2(self, data: bytes) -> GroupElem:
        raise NotImplementedError

    # value-level hooks implemented per backend
    def generator_value(self, group): raise NotImplementedError
    def identity_value(self, group): raise NotImplementedError
    def add_all(self, group, pairs): raise NotImplementedError  # a * b for each pair (a, b) of values, in one call
    def inv(self, group, a): raise NotImplementedError
    def miller_value(self, a, b): raise NotImplementedError  # of one (G1, G2) element pair, kept by its holder
    def pairing_product_values(self, pairs, held): raise NotImplementedError  # (G1, G2) element pairs
    # A G1 or G2 point's encoding is compressed or, for compressed=False, its ``point_words``; the scheme's
    # hashes take the compressed one, ``GroupElem.to_bytes``. Mock elements and GT have one encoding each.
    def serialize(self, group, a, compressed=True) -> bytes: raise NotImplementedError
    def deserialize(self, group, data: bytes, compressed=True): raise NotImplementedError
    # ``deserialize`` of a G2 point is two hooks: ``point`` puts the encoding on the twist, and
    # ``first_outside_g2`` takes a list of such points per object: the index of the first with one outside G2, or None.
    def point(self, group, data: bytes, compressed=True): raise NotImplementedError
    def first_outside_g2(self, groups): raise NotImplementedError


def _one_group(elems: list[GroupElem], what: str) -> str:
    group = elems[0].group
    if any(e.group != group for e in elems):
        raise AlgebraError(f"{what} needs elements of one group")
    return group


class MockBackend(Backend):
    """Exponent-tracking oracle: an element is its discrete log mod the order."""

    name = "mock"
    order = bn254.N

    def generator_value(self, group):
        return 1

    def identity_value(self, group):
        return 0

    def add_all(self, group, pairs):
        return [(a + b) % self.order for a, b in pairs]

    def inv(self, group, a):
        return -a % self.order

    def exp(self, group, a, k):  # unused: kept by name for perfbench's tracer, as RealBackend.exp
        return a * k % self.order

    def multi_exp(self, terms):
        group = _one_group([x for x, _ in terms], "multi_exp")
        return GroupElem(self, group, sum(x.value * k for x, k in terms) % self.order)

    def miller_value(self, a, b):
        return a.value * b.value % self.order

    def pairing_product_values(self, pairs, held):
        return (sum(a.value * b.value for a, b in pairs) + sum(held)) % self.order

    def serialize(self, group, a, compressed=True):
        return a.to_bytes(32, "big")

    def deserialize(self, group, data, compressed=True):
        if len(data) != 32:
            raise MalformedEncoding(f"{group}: expected 32 bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise MalformedEncoding(f"{group}: exponent out of range")
        return v

    point = deserialize

    def first_outside_g2(self, groups):
        return None

    def hash_to_g2(self, data: bytes) -> GroupElem:
        return GroupElem(self, "G2", hash_h2(b"mock-h2g" + data, self.order))


_FLAG_SIGN = 0x80
_FLAG_INF = 0x40


# Per curve group: the compressed encoding's length, y^2 as a function of x and as a function of y, and
# the square root and negation of its field, Fp for G1 and Fp2 for the twist.
_CURVES = {
    "G1": (32, lambda x: (x * x * x + bn254.G1_B) % bn254.P, lambda y: y * y % bn254.P, bn254._sqrt_fp,
           lambda y: -y % bn254.P),
    "G2": (64, bn254.g2_rhs, bn254.f2_sqr, bn254.f2_sqrt, bn254.f2_neg),
}


def _coeffs(v) -> tuple:
    """An Fp or Fp2 coordinate as Fp coefficients in encoding order: c1 first for c0 + c1*i."""
    return (v,) if isinstance(v, int) else (v[1], v[0])


def _is_high(y) -> bool:
    """The sign bit of y: whether its first nonzero coefficient in encoding order exceeds (p - 1)/2."""
    return next((c for c in _coeffs(y) if c), 0) > (bn254.P - 1) // 2


def _lift(group: str, x, high: bool):
    """The G1 or twist point with x-coordinate x whose y is high or low, or None if x is not on the curve."""
    _, rhs, _, sqrt, neg = _CURVES[group]
    y = sqrt(rhs(x))
    return None if y is None else (x, y if _is_high(y) == high else neg(y))


def point_words(group: str, pt) -> bytes:
    """A G1 or G2 point as the EIP-197 precompiles read it: 32-byte big-endian words, G1 (x, y) and G2
    (x_im, x_re, y_im, y_re), each coordinate's ``_coeffs`` in turn; the point at infinity is all zeros."""
    if pt is None:
        return bytes(2 * _CURVES[group][0])
    return b"".join(c.to_bytes(32, "big") for v in pt for c in _coeffs(v))


def words_point(group: str, data: bytes):
    """The G1 or G2 point whose ``point_words`` data is, range-checked and on its curve, before any subgroup test."""
    n = 2 * _CURVES[group][0]
    if len(data) != n:
        raise MalformedEncoding(f"{group}: expected {n} bytes, got {len(data)}")
    cs = [int.from_bytes(data[i : i + 32], "big") for i in range(0, n, 32)]
    if max(cs) >= bn254.P:
        raise MalformedEncoding(f"{group}: coordinate out of range")
    if not any(cs):  # (0, 0) is on neither curve
        return None
    x, y = cs if group == "G1" else ((cs[1], cs[0]), (cs[3], cs[2]))
    _, rhs, sqr, _, _ = _CURVES[group]
    if sqr(y) != rhs(x):
        raise NotOnCurve(f"{group}: point not on curve")
    return x, y


# The G2 batch from which one batched subgroup test beats a test per point:
# the measured break-even is 28-32 points.
G2_BATCH_MIN = 32


def _all_in_g2(pts) -> bool:
    """Whether every twist point of pts is in G2: one batched test from G2_BATCH_MIN points up, else one per point."""
    return bn254.g2_all_in_subgroup(pts) if len(pts) >= G2_BATCH_MIN else all(map(bn254.g2_in_subgroup, pts))


# The products of powers an element meets before it keeps a comb table.
# A G2 table (240 doublings, 494 additions) costs about what 6 lone comb terms
# save over GLS ones, or 15 beside a split term; a G1 table what 4 lone terms
# save, and a GT table (240 cyclotomic squarings, 494 products) what 10 save.
# A key's Waters bases keep their nibble table from the same count of
# evaluations (``scheme.WatersBases``).
COMB_USES = 8


def kept(holder, slot, build, now=False):
    """The table in holder's slot, built by build() at the ``COMB_USES``-th call (or ``now``); None before.

    The slot counts the calls until then; the table replaces the count for
    good, so it lives exactly as long as its holder.
    """
    table = getattr(holder, slot)
    if isinstance(table, int):
        if table + 1 < COMB_USES and not now:
            object.__setattr__(holder, slot, table + 1)
            return None
        table = build()
        object.__setattr__(holder, slot, table)
    return table


def held_for(holder, slot, partner, build):
    """The value holder keeps in slot for partner, built by build() unless partner is the one it was last built for.

    The slot holds (partner, value), or None. Partners are compared by
    identity, never by hashing their points; another one replaces the last.
    """
    last = getattr(holder, slot)
    if last is None or last[0] is not partner:
        last = (partner, build())
        object.__setattr__(holder, slot, last)
    return last[1]


@functools.cache
def _gt_gen():
    return bn254.pairing(bn254.G1_GEN, bn254.G2_GEN)


class RealBackend(Backend):
    """BN254 groups; G2 lives on the sextic twist, GT inside Fp12."""

    name = "bn254"
    order = bn254.N
    groups = {"G1": bn254.G1, "G2": bn254.G2, "GT": bn254.GT}  # each group's ``curve.Group`` record

    def generator_value(self, group):
        if group == "G1":
            return bn254.G1_GEN
        if group == "G2":
            return bn254.G2_GEN
        return _gt_gen()

    def identity_value(self, group):
        return self.groups[group].one

    def add_all(self, group, pairs):  # on G1 and G2, one batched inversion for all the pairs
        return self.groups[group].add_all(pairs)

    def inv(self, group, a):  # GT is cyclotomic: its inverse is the conjugate
        return self.groups[group].neg(a)

    def exp(self, group, a, k):  # unused: kept by name for perfbench's tracer; powers go through multi_exp
        return self.multi_exp([(GroupElem(self, group, a), k)]).value

    def multi_exp(self, terms):
        """One ``curve.multi_mul`` ladder; a base with a comb (``comb_of``) enters it by its table.

        Every GT value here is in the order-N subgroup, where the GLS split holds.
        """
        group = _one_group([x for x, _ in terms], "multi_exp")
        terms = [(x, k % self.order, self.comb_of(x)) for x, k in terms]
        plain = [(x.value, k) for x, k, comb in terms if comb is None]
        combs = [(comb, k) for _, k, comb in terms if comb is not None]
        return GroupElem(self, group, curve.multi_mul(self.groups[group], plain, combs))

    def comb_of(self, x: GroupElem, now: bool = False):
        """x's comb table, ``kept`` in its ``comb`` slot from its ``COMB_USES``-th product (or ``now``); None before.

        The identity keeps none. An element made for one op never reaches the
        count, so it costs nothing.
        """
        if x.is_identity():
            return None
        return kept(x, "comb", lambda: curve.comb_table(self.groups[x.group], x.value), now)

    def base_powers(self, base, scalars):
        """A batch of G2 powers from base's comb, built now if it has none yet: keygen's u_i and u'_i."""
        if base.group != "G2" or base.value is None:
            return super().base_powers(base, scalars)
        values = curve.comb_powers(bn254.G2, self.comb_of(base, now=True), [k % self.order for k in scalars])
        return [GroupElem(self, "G2", v) for v in values]

    def miller_value(self, a, b):
        """f_{6u+2, b}(a) from b's lines computed afresh and not kept: its holder keeps the value."""
        return bn254.miller_loop(b.value, a.value)

    def pairing_product_values(self, pairs, held):
        """One Miller evaluation over the pairs' G2 lines, times each held value, then the final exponentiation.

        A G2 element keeps its lines (None for the identity) in its ``lines``
        slot, written once: the elements that have none yet get them from one
        ``bn254.g2_lines`` batch over their distinct values, one Jacobian walk
        each with no inversion. Each line is scaled by a factor in Fp, so the
        Miller value is defined up to a subfield factor, which the final
        exponentiation removes.
        """
        new = [b for _, b in pairs if b.lines is None and b.value is not None]
        qs = list(dict.fromkeys(b.value for b in new))
        lines = dict(zip(qs, bn254.g2_lines(qs)))
        for b in new:
            object.__setattr__(b, "lines", lines[b.value])
        f = bn254.miller_eval([(a.value, b.lines) for a, b in pairs])
        return bn254.final_exp(functools.reduce(bn254.f12_mul, held, f))

    def serialize(self, group, a, compressed=True):
        """GT as its 12 Fp coefficients; a G1 or G2 point as x's ``_coeffs``, flagged with y's sign or as infinity."""
        if group == "GT":
            return b"".join(c.to_bytes(32, "big") for pair in a for c in pair)
        if not compressed:
            return point_words(group, a)
        if a is None:
            return bytes([_FLAG_INF]) + bytes(_CURVES[group][0] - 1)
        buf = bytearray(b"".join(c.to_bytes(32, "big") for c in _coeffs(a[0])))
        buf[0] |= _FLAG_SIGN if _is_high(a[1]) else 0
        return bytes(buf)

    def deserialize(self, group, data, compressed=True):
        if group == "GT":
            if len(data) != 384:
                raise MalformedEncoding("GT: expected 384 bytes")
            coeffs = []
            for i in range(6):
                c0 = int.from_bytes(data[64 * i : 64 * i + 32], "big")
                c1 = int.from_bytes(data[64 * i + 32 : 64 * i + 64], "big")
                if c0 >= bn254.P or c1 >= bn254.P:
                    raise MalformedEncoding("GT: coefficient out of range")
                coeffs.append((c0, c1))
            v = tuple(coeffs)
            # nonzero a has a^N = 1 exactly when a^p = a^(p - N), and p - N = 6u^2 has 127 bits to N's 254;
            # cyclotomic first, so that power may square cyclotomically. Zero passes both, so it is named.
            if (v == (bn254.F2_ZERO,) * 6 or not bn254.f12_is_cyclotomic(v)
                    or bn254.f12_frob(v) != curve.wnaf_mul(bn254.GT, v, bn254.P - self.order)):
                raise NotInSubgroup("GT: not in the order-n subgroup")
            return v
        pt = self.point(group, data, compressed)
        if group == "G2" and not bn254.g2_in_subgroup(pt):
            raise NotInSubgroup("G2: point not in the prime-order subgroup")
        return pt

    def first_outside_g2(self, groups):
        """The index of the first of the lists of twist points that holds a point outside G2, or None.

        One test takes all the points (``bn254.g2_all_in_subgroup`` from
        G2_BATCH_MIN points up, which lets a point outside G2 through with
        probability below 2^-132). One that fails proves a point outside G2,
        so only its list is sought: the lists before the last non-empty one
        are tested in order, and that one is named with no test of its own.
        Should an earlier list's test pass wrongly, a later one is named.
        """
        if _all_in_g2([q for g in groups for q in g]):
            return None
        last = max(i for i, g in enumerate(groups) if g)
        return next((i for i, g in enumerate(groups[:last]) if not _all_in_g2(g)), last)

    def point(self, group, data, compressed=True):
        """The G1 or G2 point that data encodes, range-checked and on its curve, before any subgroup test."""
        if not compressed:
            return words_point(group, data)
        n = _CURVES[group][0]
        if len(data) != n:
            raise MalformedEncoding(f"{group}: expected {n} bytes, got {len(data)}")
        flags = data[0] & (_FLAG_SIGN | _FLAG_INF)
        body = bytes([data[0] & ~(_FLAG_SIGN | _FLAG_INF)]) + data[1:]
        if flags & _FLAG_INF:
            if flags & _FLAG_SIGN or any(body):
                raise MalformedEncoding(f"{group}: bad infinity encoding")
            return None
        cs = [int.from_bytes(body[i : i + 32], "big") for i in range(0, n, 32)]
        if max(cs) >= bn254.P:
            raise MalformedEncoding(f"{group}: x out of range")
        pt = _lift(group, cs[0] if n == 32 else (cs[1], cs[0]), bool(flags & _FLAG_SIGN))
        if pt is None:
            raise NotOnCurve(f"{group}: x not on curve")
        return pt

    def hash_to_g2(self, data: bytes) -> GroupElem:
        """Try-and-increment onto the twist, then clear the cofactor."""
        ctr = 0
        while True:
            seed = hashlib.sha512(b"NOMSIG-H2G" + ctr.to_bytes(4, "big") + data).digest()
            c0 = int.from_bytes(seed[:32], "big") % bn254.P
            c1 = int.from_bytes(seed[32:], "big") % bn254.P
            pt = _lift("G2", (c0, c1), False)
            if pt is not None:
                pt = bn254.g2_mul(pt, bn254.G2_COFACTOR)
                if pt is not None:
                    return GroupElem(self, "G2", pt)
            ctr += 1


def get_backend(name: str) -> Backend:
    if name == "mock":
        return MockBackend()
    if name in ("real", "bn254"):
        return RealBackend()
    raise AlgebraError(f"unknown backend {name!r}")
