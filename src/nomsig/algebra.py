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
    the real backend; at the ``COMB_USES``-th, a G1 or G2 element's comb
    table, also a function of its value, replaces the count for good.
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

    def pairing(self, a: GroupElem, b: GroupElem) -> GroupElem:
        return self.pairing_product([(a, b)])

    def pairing_product(self, pairs: list[tuple[GroupElem, GroupElem]]) -> GroupElem:
        """prod_i e(a_i, b_i) over (G1, G2) pairs, computed as one batch."""
        for a, b in pairs:
            if a.group != "G1" or b.group != "G2":
                raise AlgebraError(f"pairing needs (G1, G2), got ({a.group}, {b.group})")
        prepared = self.prepare_g2([b for _, b in pairs])
        return GroupElem(self, "GT", self.pairing_product_values([(a.value, q) for (a, _), q in zip(pairs, prepared)]))

    def pairing_check(self, pairs: list[tuple[GroupElem, GroupElem]]) -> bool:
        """Whether prod_i e(a_i, b_i) is the identity, checked as one batch."""
        return self.pairing_product(pairs).is_identity()

    def prepare_g2(self, elems: list[GroupElem]) -> list:
        """The G2 side of each pair in the form ``pairing_product_values`` takes: here the value."""
        return [e.value for e in elems]

    def multi_exp(self, terms: list[tuple[GroupElem, int]]) -> GroupElem:
        """prod_i x_i^k_i over one or more (element, scalar) terms of one group, as one joint exponentiation."""
        group = _one_group([x for x, _ in terms], "multi_exp")
        return GroupElem(self, group, self.multi_exp_values(group, [(x.value, k % self.order) for x, k in terms]))

    def base_powers(self, base: GroupElem, scalars: list[int]) -> list[GroupElem]:
        """[base^k for k in scalars]; the real backend takes a batch of G2 powers from one comb."""
        return [base**k for k in scalars]

    def product(self, elems: list[GroupElem]) -> GroupElem:
        """The group product of one or more elements of one group, in one call."""
        group = _one_group(elems, "product")
        return GroupElem(self, group, self.op_all(group, [e.value for e in elems]))

    def element(self, group: str, data: bytes) -> GroupElem:
        return GroupElem(self, group, self.deserialize(group, data))

    def random_scalar(self, rng) -> int:
        return rng.randrange(self.order)

    def random_nonzero_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    def hash_to_g2(self, data: bytes) -> GroupElem:
        raise NotImplementedError

    # value-level hooks implemented per backend
    def generator_value(self, group): raise NotImplementedError
    def identity_value(self, group): raise NotImplementedError
    def op(self, group, a, b): raise NotImplementedError
    def op_all(self, group, values): raise NotImplementedError
    def inv(self, group, a): raise NotImplementedError
    def multi_exp_values(self, group, terms): raise NotImplementedError  # or override multi_exp, as RealBackend
    def pairing_product_values(self, pairs): raise NotImplementedError  # (G1 value, prepare_g2 entry) pairs
    def serialize(self, group, a) -> bytes: raise NotImplementedError
    def deserialize(self, group, data: bytes): raise NotImplementedError


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

    def op(self, group, a, b):
        return (a + b) % self.order

    def op_all(self, group, values):
        return sum(values) % self.order

    def inv(self, group, a):
        return -a % self.order

    def exp(self, group, a, k):  # unused: kept by name for perfbench's tracer, as RealBackend.exp
        return a * k % self.order

    def multi_exp_values(self, group, terms):
        return sum(a * k for a, k in terms) % self.order

    def pairing_product_values(self, pairs):
        return sum(a * b for a, b in pairs) % self.order

    def serialize(self, group, a):
        return a.to_bytes(32, "big")

    def deserialize(self, group, data):
        if len(data) != 32:
            raise MalformedEncoding(f"{group}: expected 32 bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise MalformedEncoding(f"{group}: exponent out of range")
        return v

    def hash_to_g2(self, data: bytes) -> GroupElem:
        return GroupElem(self, "G2", hash_h2(b"mock-h2g" + data, self.order))


_FLAG_SIGN = 0x80
_FLAG_INF = 0x40


def _fp_is_high(v: int) -> bool:
    return v > (bn254.P - 1) // 2


def _f2_is_high(v) -> bool:
    c0, c1 = v
    return _fp_is_high(c1) if c1 != 0 else _fp_is_high(c0)


def _g2_lift(x, high: bool):
    """The twist point with x-coordinate x whose y is high or low, or None if x is not on the twist."""
    y = bn254.f2_sqrt(bn254.g2_rhs(x))
    return None if y is None else (x, y if _f2_is_high(y) == high else bn254.f2_neg(y))


# The products of powers a G1 or G2 element meets before it keeps a comb table.
# A G2 table costs about what 8 comb terms save over GLS ones; a G1 table less.
COMB_USES = 8


@functools.cache
def _gt_gen():
    return bn254.pairing(bn254.G1_GEN, bn254.G2_GEN)


class RealBackend(Backend):
    """BN254 groups; G2 lives on the sextic twist, GT inside Fp12."""

    name = "bn254"
    order = bn254.N

    def generator_value(self, group):
        if group == "G1":
            return bn254.G1_GEN
        if group == "G2":
            return bn254.G2_GEN
        return _gt_gen()

    def identity_value(self, group):
        return bn254.F12_ONE if group == "GT" else None

    def op(self, group, a, b):
        if group == "G1":
            return bn254.g1_add(a, b)
        if group == "G2":
            return bn254.g2_add(a, b)
        return bn254.f12_mul(a, b)

    def op_all(self, group, values):
        if group == "G2":  # Jacobian accumulation, one inversion
            return bn254.g2_sum(values)
        return functools.reduce(lambda a, b: self.op(group, a, b), values)

    def inv(self, group, a):
        if group == "G1":
            return bn254.g1_neg(a)
        if group == "G2":
            return bn254.g2_neg(a)
        return bn254.f12_conj(a)  # GT is cyclotomic: inverse = conjugate

    def exp(self, group, a, k):  # unused: kept by name for perfbench's tracer; powers go through multi_exp
        return self.multi_exp([(GroupElem(self, group, a), k)]).value

    def multi_exp(self, terms):
        """One joint ladder; a G1 or G2 base with a comb (``comb_of``) enters it by its table."""
        group = _one_group([x for x, _ in terms], "multi_exp")
        terms = [(x, k % self.order) for x, k in terms]
        if group == "GT":  # every GT value here is in the order-N subgroup, where the GLS split holds
            return GroupElem(self, group, bn254.gt_pow_gls([(x.value, k) for x, k in terms]))
        plain, combs = [], []
        for x, k in terms:
            comb = self.comb_of(x)
            if comb is None:
                plain.append((x.value, k))
            else:
                combs.append((comb, k))
        if group == "G1":
            return GroupElem(self, group, curve.glv_mul(bn254.G1_GLV, plain, combs))
        return GroupElem(self, group, bn254.g2_mul_gls(plain, combs))

    def comb_of(self, x: GroupElem, now: bool = False):
        """x's comb table, built at its ``COMB_USES``-th product (or ``now``); None before, and for the identity.

        The table replaces the use count in x's ``comb`` slot, once: it lives
        exactly as long as the key, sigma or params object holding x. An
        element made for one op never reaches the count, so it costs nothing.
        """
        if x.value is None:
            return None
        comb = x.comb
        if isinstance(comb, int):
            if comb + 1 < COMB_USES and not now:
                object.__setattr__(x, "comb", comb + 1)
                return None
            comb = curve.comb(bn254.P, x.value) if x.group == "G1" else bn254.g2_comb(x.value)
            object.__setattr__(x, "comb", comb)
        return comb

    def base_powers(self, base, scalars):
        """A batch of G2 powers from base's comb, built now if it has none yet: keygen's u_i and u'_i."""
        if base.group != "G2" or base.value is None:
            return super().base_powers(base, scalars)
        values = bn254.g2_comb_powers(self.comb_of(base, now=True), [k % self.order for k in scalars])
        return [GroupElem(self, "G2", v) for v in values]

    def prepare_g2(self, elems):
        """Each element's Miller-loop lines (None for the identity), kept in its ``lines`` slot.

        The elements that have none yet get them from one ``bn254.g2_lines``
        batch over their distinct values; the slot is written once.
        """
        new = [e for e in elems if e.lines is None and e.value is not None]
        qs = list(dict.fromkeys(e.value for e in new))
        lines = dict(zip(qs, bn254.g2_lines(qs)))
        for e in new:
            object.__setattr__(e, "lines", lines[e.value])
        return [e.lines for e in elems]

    def pairing_product_values(self, pairs):
        return bn254.final_exp(bn254.miller_eval(pairs))

    def serialize(self, group, a):
        if group == "GT":
            out = bytearray()
            for c in a:
                out += c[0].to_bytes(32, "big") + c[1].to_bytes(32, "big")
            return bytes(out)
        if a is None:
            n = 32 if group == "G1" else 64
            return bytes([_FLAG_INF]) + bytes(n - 1)
        x, y = a
        if group == "G1":
            buf = bytearray(x.to_bytes(32, "big"))
            if _fp_is_high(y):
                buf[0] |= _FLAG_SIGN
            return bytes(buf)
        buf = bytearray(x[1].to_bytes(32, "big") + x[0].to_bytes(32, "big"))
        if _f2_is_high(y):
            buf[0] |= _FLAG_SIGN
        return bytes(buf)

    def deserialize(self, group, data):
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
            # cyclotomic first, so the order check may use cyclotomic squaring;
            # zero passes the first test and fails the second
            if not bn254.f12_is_cyclotomic(v) or bn254.f12_cyc_pow(v, self.order) != bn254.F12_ONE:
                raise NotInSubgroup("GT: not in the order-n subgroup")
            return v
        n = 32 if group == "G1" else 64
        if len(data) != n:
            raise MalformedEncoding(f"{group}: expected {n} bytes, got {len(data)}")
        flags = data[0] & (_FLAG_SIGN | _FLAG_INF)
        body = bytes([data[0] & ~(_FLAG_SIGN | _FLAG_INF)]) + data[1:]
        if flags & _FLAG_INF:
            if flags & _FLAG_SIGN or any(body):
                raise MalformedEncoding(f"{group}: bad infinity encoding")
            return None
        sign = bool(flags & _FLAG_SIGN)
        if group == "G1":
            x = int.from_bytes(body, "big")
            if x >= bn254.P:
                raise MalformedEncoding("G1: x out of range")
            y = bn254._sqrt_fp((x * x * x + bn254.G1_B) % bn254.P)
            if y is None:
                raise NotOnCurve("G1: x not on curve")
            if _fp_is_high(y) != sign:
                y = -y % bn254.P
            return (x, y)
        c1 = int.from_bytes(body[:32], "big")
        c0 = int.from_bytes(body[32:], "big")
        if c0 >= bn254.P or c1 >= bn254.P:
            raise MalformedEncoding("G2: x out of range")
        pt = _g2_lift((c0, c1), sign)
        if pt is None:
            raise NotOnCurve("G2: x not on curve")
        if not bn254.g2_in_subgroup(pt):
            raise NotInSubgroup("G2: point not in the prime-order subgroup")
        return pt

    def hash_to_g2(self, data: bytes) -> GroupElem:
        """Try-and-increment onto the twist, then clear the cofactor."""
        ctr = 0
        while True:
            seed = hashlib.sha512(b"NOMSIG-H2G" + ctr.to_bytes(4, "big") + data).digest()
            c0 = int.from_bytes(seed[:32], "big") % bn254.P
            c1 = int.from_bytes(seed[32:], "big") % bn254.P
            pt = _g2_lift((c0, c1), False)
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
