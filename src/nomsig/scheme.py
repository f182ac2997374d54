"""The nominative signature scheme over an asymmetric pairing.

Eight algorithms: setup, the two key generators, sign (signer's half),
receive (nominee's half, producing the nominative signature), convert
(nominee turns the signature into a publicly verifiable token), tk_verify
(public token verification), plus the bit-hash evaluators both use.

Conventions pinned here, applied consistently in every algorithm:

  * t = H2(pk_S || sigma_1 || sigma_2 || m). sigma_3 is excluded (it is
    not yet defined when t is first needed inside receive).
  * M_N = g2^t * k^s is a G2 element; the bits fed to F_N are
    H1(serialize(M_N)).
  * The exponent applied to delta'_2 in receive is the sum
    v'_0 + sum_i v'_i * M_N[i], matching F_N's definition.
  * receive rejects unless BOTH of its checks hold; they run as one
    batched pairing check, and apart only when that fails.

All hash inputs over multiple fields use length-prefixed concatenation of
canonical serializations.

Randomized algorithms take an explicit ``random.Random``; with equal seeds
the mock and real backends draw identical scalar traces, which is what the
cross-backend oracle tests rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Optional

from .algebra import (
    ELL,
    Backend,
    GroupElem,
    bit,
    encode_parts,
    get_backend,
    hash_h1,
    hash_h2,
    held_for,
    kept,
)


# Domain tags of the hashes that derive the batching coefficients of tk_verify and of receive's checks.
TK_BATCH_TAG = b"NOMSIG-TKV-BATCH"
DELTA_BATCH_TAG = b"NOMSIG-RCV-BATCH"


class SchemeError(Exception):
    pass


class UnsupportedSecurityLevel(SchemeError):
    pass


class LengthMismatch(SchemeError):
    pass


@dataclass(frozen=True)
class PublicParams:
    backend: Backend
    g1: GroupElem
    g2: GroupElem
    order: int


class WatersBases(tuple):
    """A public key's Waters bases u_0..u_ell: a tuple that keeps a table once it is evaluated often.

    At its ``COMB_USES``-th evaluation it builds, for each 4-bit nibble of
    the input, the 16 products of the subsets of that nibble's 4 bases
    (``Backend.subset_sums``): 64 tables, 960 elements. ``waters_eval`` then
    multiplies u_0 and one entry per nonzero nibble, at most 65 elements
    where the fold multiplies one per set bit. ``table`` counts the
    evaluations until then; the table, a function of the bases, replaces the
    count for good (``algebra.kept``) and lives as long as the key that
    holds the bases.
    """

    table = 0

    def nibble_table(self):
        """The nibble tables from the ``COMB_USES``-th call on, values indexed by the nibble; None before."""
        u = self[0]
        # nibble j holds the input bits 4j+1..4j+4, the first as its high bit
        return kept(self, "table", lambda: u.backend.subset_sums(u.group, [[x.value for x in self[i : i + 4][::-1]]
                                                                           for i in range(1, len(self), 4)]))


@dataclass(frozen=True)
class SignerPublicKey:
    gS: GroupElem  # g1^alpha_S
    hS: GroupElem  # random G2
    u: tuple[GroupElem, ...]  # ell + 1 bases of F_S, held as WatersBases

    def __post_init__(self):
        object.__setattr__(self, "u", WatersBases(self.u))

    def to_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:  # once per key: about 260 points
        return encode_parts(self.gS.to_bytes(), self.hS.to_bytes(), *(e.to_bytes() for e in self.u))

    @cached_property
    def miller(self):  # once per key: the Miller value of e(gS^-1, hS), a held value of pairing_product
        return self.gS.backend.miller_value(~self.gS, self.hS)


@dataclass(frozen=True)
class SignerSecretKey:
    alphaS: int

    h = None  # (pk_s, hS^alphaS), ``held_for``

    def H(self, pk_s: SignerPublicKey) -> GroupElem:
        """H_S = hS^alphaS, the Waters signing key of pk_s, kept for the pk_s object it was last used with."""
        return held_for(self, "h", pk_s, lambda: pk_s.hS**self.alphaS)


@dataclass(frozen=True)
class NomineePublicKey:
    gN: GroupElem  # g1^alpha_N
    hN: GroupElem  # random G2
    k: GroupElem  # random G2, blinds M_N
    uPrime: tuple[GroupElem, ...]  # ell + 1 bases of F_N, held as WatersBases
    x1: GroupElem  # g2^(1/y1)
    x2: GroupElem  # g2^(1/y2)

    def __post_init__(self):
        object.__setattr__(self, "uPrime", WatersBases(self.uPrime))

    def to_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:  # once per key: about 260 points
        return encode_parts(
            self.gN.to_bytes(),
            self.hN.to_bytes(),
            self.k.to_bytes(),
            *(e.to_bytes() for e in self.uPrime),
            self.x1.to_bytes(),
            self.x2.to_bytes(),
        )

    @cached_property
    def miller(self):  # once per key: the Miller value of e(gN^-1, hN), a held value of pairing_product
        return self.gN.backend.miller_value(~self.gN, self.hN)

    pair = None  # (pk_s, K), ``held_for``

    def pair_K(self, pk_s: SignerPublicKey) -> GroupElem:
        """K = e(gS^-1, hS) e(gN^-1, hN) in GT, one final exponentiation of both keys' ``miller``, kept for pk_s."""
        return held_for(self, "pair", pk_s, lambda: self.gN.backend.pairing_product([], [pk_s.miller, self.miller]))


@dataclass(frozen=True)
class NomineeSecretKey:
    alphaN: int
    vPrime: tuple[int, ...]
    y1: int
    y2: int

    h = None  # (pk_n, hN^alphaN), ``held_for``

    def H(self, pk_n: NomineePublicKey) -> GroupElem:
        """H_N = hN^alphaN for pk_n, kept for the pk_n object it was last used with."""
        return held_for(self, "h", pk_n, lambda: pk_n.hN**self.alphaN)


@dataclass(frozen=True)
class DeltaMsg:
    d1: GroupElem  # g1^r
    d2: GroupElem  # g2^r
    d3: GroupElem  # hS^alpha_S * F_S(M_S)^r


@dataclass(frozen=True)
class NomSignature:
    s1: GroupElem  # G1
    s2: GroupElem  # G1
    s3: GroupElem  # G2
    s: int


@dataclass(frozen=True)
class VerificationToken:
    tk1: GroupElem  # sigma_1^y1
    tk2: GroupElem  # sigma_2^y2


@dataclass(frozen=True)
class DerivedValues:
    """Values both nominee and verifier recompute from public data."""

    MS: bytes  # H1(pk_N || m), the F_S input
    t: int
    MN: GroupElem
    MNbits: bytes  # H1(serialize(M_N)), the F_N input


@dataclass
class OpCounts:
    """Operation tallies a contract would be billed for (plus unpriced extras).

    ``pairing_pairs`` is the number of pairs in the one batched pairing check,
    ``ec_additions`` the curve additions of the Waters products and tk1 * tk2.
    ``scalar_mults`` counts the scalar multiplications: two recompute M_N, the
    rest apply the batch coefficients; the cost table does not price them.
    """

    pairing_pairs: int = 0
    ec_additions: int = 0
    scalar_mults: int = 0


def setup(security: int = 128, backend: Backend | str = "bn254") -> PublicParams:
    if security != 128:
        raise UnsupportedSecurityLevel(f"only the 128-bit level is supported, got {security}")
    if isinstance(backend, str):
        backend = get_backend(backend)
    return PublicParams(backend=backend, g1=backend.g1(), g2=backend.g2(), order=backend.order)


def keygen_signer(par: PublicParams, rng: Random) -> tuple[SignerPublicKey, SignerSecretKey]:
    """The signer's keys; hS and u_0..u_ell come from one ``base_powers`` call, from g2's comb on bn254."""
    b = par.backend
    alpha = b.random_scalar(rng)
    v = [b.random_scalar(rng) for _ in range(ELL + 1)]
    hS, *u = b.base_powers(par.g2, [b.random_scalar(rng), *v])
    # v_0..v_ell are only needed to build u and are dropped here.
    return SignerPublicKey(gS=par.g1**alpha, hS=hS, u=tuple(u)), SignerSecretKey(alphaS=alpha)


def keygen_nominee(par: PublicParams, rng: Random) -> tuple[NomineePublicKey, NomineeSecretKey]:
    """The nominee's keys; hN, k, x1, x2 and u'_0..u'_ell come from one ``base_powers`` call, from g2's comb on bn254."""
    b = par.backend
    alpha = b.random_scalar(rng)
    y1 = b.random_nonzero_scalar(rng)
    y2 = b.random_nonzero_scalar(rng)
    vp = tuple(b.random_scalar(rng) for _ in range(ELL + 1))
    hN, k, x1, x2, *u = b.base_powers(par.g2, [b.random_scalar(rng), b.random_scalar(rng),
                                               pow(y1, -1, par.order), pow(y2, -1, par.order), *vp])
    pk = NomineePublicKey(gN=par.g1**alpha, hN=hN, k=k, uPrime=tuple(u), x1=x1, x2=x2)
    return pk, NomineeSecretKey(alphaN=alpha, vPrime=vp, y1=y1, y2=y2)


def waters_eval(bases: tuple[GroupElem, ...], mbits: bytes) -> GroupElem:
    """u_0 * prod_{i: m_i = 1} u_i for a 256-bit input, as one backend product.

    Bases with a nibble table (``WatersBases``) give u_0 and one entry per
    nonzero nibble of the input; others give u_0 and one base per set bit.
    """
    if len(bases) != ELL + 1:
        raise LengthMismatch(f"need {ELL + 1} bases, got {len(bases)}")
    if len(mbits) * 8 != ELL:
        raise LengthMismatch(f"need a {ELL}-bit input, got {len(mbits) * 8} bits")
    u = bases[0]
    table = bases.nibble_table() if isinstance(bases, WatersBases) else None
    if table is None:
        return u.backend.product([u] + [bases[i] for i in range(1, ELL + 1) if bit(mbits, i)])
    entries = [t[v] for t, v in zip(table, (v for byte in mbits for v in (byte >> 4, byte & 15))) if v]
    return GroupElem(u.backend, u.group, u.backend.op_all(u.group, [u.value, *entries]))


def waters_product(pk_s: SignerPublicKey, pk_n: NomineePublicKey, d: DerivedValues) -> GroupElem:
    """F_S(M_S) * F_N(M_N), the G2 side of the main verification equation."""
    return waters_eval(pk_s.u, d.MS) * waters_eval(pk_n.uPrime, d.MNbits)


def _ms_bits(pk_n: NomineePublicKey, m: bytes) -> bytes:
    return hash_h1(encode_parts(pk_n.to_bytes(), m))


def _chal_scalar(par: PublicParams, pk_s: SignerPublicKey, s1: GroupElem, s2: GroupElem, m: bytes) -> int:
    return hash_h2(encode_parts(pk_s.to_bytes(), s1.to_bytes(), s2.to_bytes(), m), par.order)


def derive_values(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
) -> DerivedValues:
    """Recompute (M_S, t, M_N, M_N bits) from public data; g2^t * k^s is one joint ladder."""
    t = _chal_scalar(par, pk_s, sigma.s1, sigma.s2, m)
    mn = par.backend.multi_exp([(par.g2, t), (pk_n.k, sigma.s)])
    return DerivedValues(MS=_ms_bits(pk_n, m), t=t, MN=mn, MNbits=hash_h1(mn.to_bytes()))


def sign(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sk_s: SignerSecretKey,
    rng: Random,
) -> DeltaMsg:
    r = par.backend.random_scalar(rng)
    fs = waters_eval(pk_s.u, _ms_bits(pk_n, m))
    return DeltaMsg(d1=par.g1**r, d2=par.g2**r, d3=sk_s.H(pk_s) * fs**r)


def delta_checks(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    delta: DeltaMsg,
) -> tuple[bool, bool]:
    """The two receive-side checks: the Waters equation and the d1/d2 consistency."""
    return _delta_checks(par, pk_s, pk_n, m, delta, waters_eval(pk_s.u, _ms_bits(pk_n, m)))


def _delta_checks(
    par: PublicParams, pk_s: SignerPublicKey, pk_n: NomineePublicKey, m: bytes, delta: DeltaMsg, fs: GroupElem
) -> tuple[bool, bool]:
    """The verdicts of (W) and (C), both True from one batched check, c on (C) and 1 on (W); apart if it fails."""
    w, c = _waters(par, pk_s, delta, fs), _consistency(par, delta)
    if _check(par, [c, w], DELTA_BATCH_TAG, pk_s.to_bytes(), pk_n.to_bytes(), m,
              delta.d1.to_bytes(), delta.d2.to_bytes(), delta.d3.to_bytes())[0]:
        return True, True
    return _check(par, [w])[0], _check(par, [c])[0]


def receive(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    delta: DeltaMsg,
    sk_n: NomineeSecretKey,
    rng: Random,
) -> Optional[NomSignature]:
    """Nominee half of signing; None means the delta message was rejected."""
    fs = waters_eval(pk_s.u, _ms_bits(pk_n, m))
    waters_ok, consistent = _delta_checks(par, pk_s, pk_n, m, delta, fs)
    if not (waters_ok and consistent):
        return None
    b = par.backend
    r = b.random_scalar(rng)
    r_prime = b.random_scalar(rng)
    s = b.random_scalar(rng)
    # with the re-randomized delta d' = (d1 g1^r', d2 g2^r', d3 F_S^r'):
    y1_inv = pow(sk_n.y1, -1, par.order)
    s1 = b.multi_exp([(delta.d1, y1_inv), (par.g1, (r_prime - r) * y1_inv)])  # (d1' / g1^r)^(1/y1)
    s2 = par.g1 ** (r * pow(sk_n.y2, -1, par.order))  # (g1^r)^(1/y2)
    mn_bits = derive_values(par, pk_s, pk_n, m, NomSignature(s1=s1, s2=s2, s3=None, s=s)).MNbits  # t excludes s3
    expo = sk_n.vPrime[0]
    for i in range(1, ELL + 1):
        if bit(mn_bits, i):
            expo += sk_n.vPrime[i]
    # d3' hN^alphaN d2'^expo
    s3 = delta.d3 * sk_n.H(pk_n) * b.multi_exp([(fs, r_prime), (delta.d2, expo), (par.g2, r_prime * expo)])
    return NomSignature(s1=s1, s2=s2, s3=s3, s=s)


def convert(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    sk_n: NomineeSecretKey,
) -> Optional[VerificationToken]:
    """Produce the public verification token; None if sigma does not verify by (3)."""
    fs_fn = waters_product(pk_s, pk_n, derive_values(par, pk_s, pk_n, m, sigma))
    tk = VerificationToken(tk1=sigma.s1**sk_n.y1, tk2=sigma.s2**sk_n.y2)
    return tk if _check(par, [_main(par, pk_s, pk_n, sigma.s3, tk.tk1 * tk.tk2, fs_fn)])[0] else None


def tk_verify(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    tk: VerificationToken,
) -> tuple[bool, OpCounts]:
    """Public verification of (sigma, tk); returns the verdict and op tallies.

    Equations (1), (2) and (3) run as one batched check (``_check``) with
    coefficients c1, c2 and 1 hashed from all inputs: one Miller evaluation
    and one final exponentiation. This is the gas model's single precompile
    call over the n = 8 pairs and held values as written. The engine
    evaluates five pairs: e(gS, hS) and e(gN, hN) enter as the keys' held
    Miller values, and the g2 pairs of (1) and (2) join as e(s1^c1 s2^c2, g2).
    """
    d = derive_values(par, pk_s, pk_n, m, sigma)
    fs_fn = waters_product(pk_s, pk_n, d)
    relations = [_token(par, sigma.s1, tk.tk1, pk_n.x1), _token(par, sigma.s2, tk.tk2, pk_n.x2),
                 _main(par, pk_s, pk_n, sigma.s3, tk.tk1 * tk.tk2, fs_fn)]
    ok, pairs, powers = _check(par, relations, TK_BATCH_TAG, pk_s.to_bytes(), pk_n.to_bytes(), m,
                               sigma.s1.to_bytes(), sigma.s2.to_bytes(), sigma.s3.to_bytes(),
                               sigma.s.to_bytes(32, "big"), tk.tk1.to_bytes(), tk.tk2.to_bytes())
    additions = int.from_bytes(d.MS + d.MNbits, "big").bit_count() + 2
    return ok, OpCounts(pairing_pairs=pairs, ec_additions=additions, scalar_mults=2 + powers)


# The five relations, each written once as ([(a, sign, b), ...], held): it holds when prod e(a, b)^sign
# times the pairings of its held Miller values is 1. A key's held value ``miller`` is that of e(g^-1, h).


def _waters(par, pk_s, delta, fs):  # (W) e(gS, hS) * e(d1, F_S) = e(g1, d3)
    return [(delta.d1, -1, fs), (par.g1, 1, delta.d3)], [pk_s.miller]


def _consistency(par, delta):  # (C) e(d1, g2) = e(g1, d2)
    return [(delta.d1, 1, par.g2), (par.g1, -1, delta.d2)], []


def _token(par, s, tk, x):  # (1) e(s1, g2) = e(tk1, x1), or (2) e(s2, g2) = e(tk2, x2)
    return [(s, 1, par.g2), (tk, -1, x)], []


def _main(par, pk_s, pk_n, s3, tk12, fs_fn):  # (3) e(g1, s3) = e(gS, hS) * e(gN, hN) * e(tk1 * tk2, F_S * F_N)
    return [(par.g1, 1, s3), (tk12, -1, fs_fn)], [pk_s.miller, pk_n.miller]


def _check(par: PublicParams, relations: list, tag: bytes = b"", *parts: bytes) -> tuple[bool, int, int]:
    """Whether all the relations hold, as one pairing check; with its priced pair count and the powers it took.

    Relation i is raised to c_i, where (c_1, ..., c_{n-1}, 1) are the
    ``_batch_coefficients`` of the tag and parts, so only the last may hold
    Miller values. ``pairs_by_smaller_side`` groups the terms by the side
    with fewer distinct elements, and the other side takes sign * c_i: the
    G1 side when grouped by G2 element (``tk_verify``, ``convert``), the G2
    side when grouped by G1 element (``receive``, whose d1 and g1 each meet
    two G2 elements). Either way a term's written element is raised, not a
    fresh inverse, so an element that keeps a comb enters by it. A side whose
    exponents are all negative is the inverted result of the positive powers:
    tk1^-c1 is (tk1^c1)^-1 and d2^-c is (d2^c)^-1, whose 128-bit exponents
    read only the low table of a comb, where N - c1 reads both.

    Soundness (small-exponent batching, Bellare-Garay-Rabin, EUROCRYPT 1998):
    G1 has cofactor 1 and every G2 input was checked to lie in G2 when it was
    decoded (a public key's points by one batched test that errs with
    probability below 2^-132, ``bn254.g2_all_in_subgroup``), so each
    relation's value E_i lies in the order-N subgroup of GT, where the
    coefficients act as exponents. The side that takes c_i does not change
    the value checked: e(a^k, b) = e(a, b^k) = e(a, b)^k, so the pairs
    multiply to prod E_i^c_i either way. prod E_i^c_i = 1 cannot hold if
    E_n is the only error, and if E_i != 1 for some i < n it fixes c_i given
    the other coefficients; a hash-derived 128-bit coefficient hits that one
    value with probability about 2^-128.
    """
    terms, held = [], []
    for (rel, h), c in zip(relations, _batch_coefficients(len(relations), tag, *parts)):
        assert c == 1 or not h, "a held Miller value cannot be raised to a coefficient"
        held += h
        terms += [(a, sign * c, b) for a, sign, b in rel]
    pairs, powers = pairs_by_smaller_side(par.backend, terms)
    return par.backend.pairing_check(pairs, held), sum(len(t) + len(h) for t, h in relations), powers


def pairs_by_smaller_side(backend: Backend, terms) -> tuple[list, int]:
    """(G1, G2) pairs whose pairings multiply to prod e(a, b)^k over (a, k, b) terms, and the powers they took.

    By bilinearity the terms that share an element of one side take one
    pair, whose other side is the product of their elements there raised to
    their k: exponents +-1 by the group operation, the rest by one
    ``multi_exp``, whose terms are the powers taken (to -k, then inverted,
    when every k is negative). The terms share their G1 elements when those
    are strictly fewer than their G2 elements, and their G2 elements
    otherwise, so each distinct element of the smaller side is one pair, and
    a pair's lone element of exponent 1 is the term's own.
    """
    by_g1 = len({a for a, _, _ in terms}) < len({b for _, _, b in terms})
    groups = {}
    for a, k, b in terms:
        key, x = (a, b) if by_g1 else (b, a)
        groups.setdefault(key, []).append((x, k))
    pairs, powers = [], 0
    for key, ts in groups.items():
        side = [x if k == 1 else ~x for x, k in ts if k in (1, -1)]
        rest = [(x, k) for x, k in ts if k not in (1, -1)]
        if rest:
            neg = all(k < 0 for _, k in rest)
            power = backend.multi_exp([(x, -k) for x, k in rest] if neg else rest)
            side.append(~power if neg else power)
            powers += len(rest)
        side = side[0] if len(side) == 1 else backend.product(side)
        pairs.append((key, side) if by_g1 else (side, key))
    return pairs, powers


def _batch_coefficients(count: int, tag: bytes = b"", *parts: bytes) -> list[int]:
    """count - 1 nonzero 128-bit coefficients hashed from every input of a batched check under its tag, then 1."""
    assert count <= 3, "one SHA-256 digest gives two coefficients"
    digest = hashlib.sha256(tag + encode_parts(*parts)).digest() if count > 1 else b""
    return [int.from_bytes(digest[16 * i : 16 * i + 16], "big") or 1 for i in range(count - 1)] + [1]
