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
  * receive rejects unless BOTH of its pairing checks hold.

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
)


# Domain tag of the hash that derives tk_verify's batching coefficients.
TK_BATCH_TAG = b"NOMSIG-TKV-BATCH"


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
    ell: int = ELL


@dataclass(frozen=True)
class SignerPublicKey:
    gS: GroupElem  # g1^alpha_S
    hS: GroupElem  # random G2
    u: tuple[GroupElem, ...]  # ell + 1 bases of F_S

    def to_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:  # once per key: about 260 points
        return encode_parts(self.gS.to_bytes(), self.hS.to_bytes(), *(e.to_bytes() for e in self.u))


@dataclass(frozen=True)
class SignerSecretKey:
    alphaS: int


@dataclass(frozen=True)
class NomineePublicKey:
    gN: GroupElem  # g1^alpha_N
    hN: GroupElem  # random G2
    k: GroupElem  # random G2, blinds M_N
    uPrime: tuple[GroupElem, ...]  # ell + 1 bases of F_N
    x1: GroupElem  # g2^(1/y1)
    x2: GroupElem  # g2^(1/y2)

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


@dataclass(frozen=True)
class NomineeSecretKey:
    alphaN: int
    vPrime: tuple[int, ...]
    y1: int
    y2: int


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
    ``scalar_mults`` counts the two that recompute M_N and the six that apply
    the batching coefficients; the cost table does not price them.
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
    v = [b.random_scalar(rng) for _ in range(par.ell + 1)]
    hS, *u = b.base_powers(par.g2, [b.random_scalar(rng), *v])
    # v_0..v_ell are only needed to build u and are dropped here.
    return SignerPublicKey(gS=par.g1**alpha, hS=hS, u=tuple(u)), SignerSecretKey(alphaS=alpha)


def keygen_nominee(par: PublicParams, rng: Random) -> tuple[NomineePublicKey, NomineeSecretKey]:
    """The nominee's keys; hN, k, x1, x2 and u'_0..u'_ell come from one ``base_powers`` call, from g2's comb on bn254."""
    b = par.backend
    alpha = b.random_scalar(rng)
    y1 = b.random_nonzero_scalar(rng)
    y2 = b.random_nonzero_scalar(rng)
    vp = tuple(b.random_scalar(rng) for _ in range(par.ell + 1))
    hN, k, x1, x2, *u = b.base_powers(par.g2, [b.random_scalar(rng), b.random_scalar(rng),
                                               pow(y1, -1, par.order), pow(y2, -1, par.order), *vp])
    pk = NomineePublicKey(gN=par.g1**alpha, hN=hN, k=k, uPrime=tuple(u), x1=x1, x2=x2)
    return pk, NomineeSecretKey(alphaN=alpha, vPrime=vp, y1=y1, y2=y2)


def waters_eval(bases: tuple[GroupElem, ...], mbits: bytes, counts: Optional[OpCounts] = None) -> GroupElem:
    """u_0 * prod_{i: m_i = 1} u_i for a 256-bit input, as one backend product.

    Counts the multiplications a pairwise fold makes: one per set bit.
    """
    if len(bases) != ELL + 1:
        raise LengthMismatch(f"need {ELL + 1} bases, got {len(bases)}")
    if len(mbits) * 8 != ELL:
        raise LengthMismatch(f"need a {ELL}-bit input, got {len(mbits) * 8} bits")
    chosen = [bases[0]] + [bases[i] for i in range(1, ELL + 1) if bit(mbits, i)]
    if counts is not None:
        counts.ec_additions += len(chosen) - 1
    return bases[0].backend.product(chosen)


def waters_product(
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    d: DerivedValues,
    counts: Optional[OpCounts] = None,
) -> GroupElem:
    """F_S(M_S) * F_N(M_N), the G2 side of the main verification equation."""
    fs_fn = waters_eval(pk_s.u, d.MS, counts) * waters_eval(pk_n.uPrime, d.MNbits, counts)
    if counts is not None:
        counts.ec_additions += 1
    return fs_fn


def _pow(x: GroupElem, k: int, counts: Optional[OpCounts]) -> GroupElem:
    """x^k, tallied as one scalar multiplication."""
    if counts is not None:
        counts.scalar_mults += 1
    return x**k


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
    counts: Optional[OpCounts] = None,
) -> DerivedValues:
    """Recompute (M_S, t, M_N, M_N bits) from public data."""
    t = _chal_scalar(par, pk_s, sigma.s1, sigma.s2, m)
    if counts is not None:
        counts.scalar_mults += 2  # g2^t and k^s, in one joint ladder
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
    return DeltaMsg(
        d1=par.g1**r,
        d2=par.g2**r,
        d3=par.backend.multi_exp([(pk_s.hS, sk_s.alphaS), (fs, r)]),
    )


def delta_checks(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    delta: DeltaMsg,
) -> tuple[bool, bool]:
    """The two receive-side checks: the Waters equation and the d1/d2 consistency."""
    return _delta_checks(par, pk_s, delta, waters_eval(pk_s.u, _ms_bits(pk_n, m)))


def _delta_checks(
    par: PublicParams, pk_s: SignerPublicKey, delta: DeltaMsg, fs: GroupElem
) -> tuple[bool, bool]:
    check = par.backend.pairing_check
    # e(gS, hS) * e(d1, F_S) = e(g1, d3) and e(d1, g2) = e(g1, d2), each as prod e = 1
    waters_ok = check([(pk_s.gS, pk_s.hS), (delta.d1, fs), (~par.g1, delta.d3)])
    consistent = check([(delta.d1, par.g2), (~par.g1, delta.d2)])
    return waters_ok, consistent


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
    waters_ok, consistent = _delta_checks(par, pk_s, delta, fs)
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
    t = _chal_scalar(par, pk_s, s1, s2, m)
    mn = b.multi_exp([(par.g2, t), (pk_n.k, s)])
    mn_bits = hash_h1(mn.to_bytes())
    expo = sk_n.vPrime[0]
    for i in range(1, par.ell + 1):
        if bit(mn_bits, i):
            expo += sk_n.vPrime[i]
    # d3' hN^alphaN d2'^expo
    s3 = delta.d3 * b.multi_exp([(fs, r_prime), (pk_n.hN, sk_n.alphaN), (delta.d2, expo), (par.g2, r_prime * expo)])
    return NomSignature(s1=s1, s2=s2, s3=s3, s=s)


def convert(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    sk_n: NomineeSecretKey,
) -> Optional[VerificationToken]:
    """Produce the public verification token; None if sigma does not verify."""
    d = derive_values(par, pk_s, pk_n, m, sigma)
    fs_fn = waters_product(pk_s, pk_n, d)
    tk = VerificationToken(tk1=sigma.s1**sk_n.y1, tk2=sigma.s2**sk_n.y2)
    # e(g1, s3) = e(gS, hS) * e(gN, hN) * e(tk1 * tk2, F_S * F_N), as prod e = 1
    if not par.backend.pairing_check(_main_pairs(par, pk_s, pk_n, sigma, tk.tk1 * tk.tk2, fs_fn)):
        return None
    return tk


def _main_pairs(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    sigma: NomSignature,
    tk12: GroupElem,
    fs_fn: GroupElem,
    c: int = 1,
    counts: Optional[OpCounts] = None,
) -> list[tuple[GroupElem, GroupElem]]:
    """The main equation as four pairs whose pairings multiply to 1, raised to c on the G1 side."""
    g1, gs, gn = par.g1, pk_s.gS, pk_n.gN
    if c != 1:
        g1, gs, gn, tk12 = (_pow(x, c, counts) for x in (g1, gs, gn, tk12))
    return [(g1, sigma.s3), (~gs, pk_s.hS), (~gn, pk_n.hN), (~tk12, fs_fn)]


def _batch_coefficients(
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    tk: VerificationToken,
) -> tuple[int, int]:
    """Two nonzero 128-bit coefficients hashed from every tk_verify input."""
    digest = hashlib.sha256(
        TK_BATCH_TAG
        + encode_parts(
            pk_s.to_bytes(),
            pk_n.to_bytes(),
            m,
            sigma.s1.to_bytes(),
            sigma.s2.to_bytes(),
            sigma.s3.to_bytes(),
            sigma.s.to_bytes(32, "big"),
            tk.tk1.to_bytes(),
            tk.tk2.to_bytes(),
        )
    ).digest()
    return int.from_bytes(digest[:16], "big") or 1, int.from_bytes(digest[16:], "big") or 1


def tk_verify(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    tk: VerificationToken,
) -> tuple[bool, OpCounts]:
    """Public verification of (sigma, tk); returns the verdict and op tallies.

    The three equations
      (1) e(s1, g2) = e(tk1, x1)
      (2) e(s2, g2) = e(tk2, x2)
      (3) e(g1, s3) = e(gS, hS) * e(gN, hN) * e(tk1 * tk2, F_S * F_N)
    are moved to the form prod e = 1 and combined with coefficients 1, c2 and
    c3 into one check over eight pairs: one Miller loop, one final
    exponentiation. This is the gas model's single batched precompile call
    with n = 8. c2 and c3 are nonzero 128-bit values hashed from all inputs
    and applied as G1 scalar multiplications (counted, unpriced).

    Soundness: G1 has cofactor 1 and every G2 input is subgroup-checked when
    it is decoded, so each pair's pairing value lies in the order-N subgroup
    of GT and the coefficients act on it as exponents. A failing equation i
    leaves an error E_i != 1 in that prime-order group. E1 * E2^c2 * E3^c3 = 1
    then fixes c2 given c3 if E2 != 1, fixes c3 if E2 = 1 and E3 != 1, and
    cannot hold if E1 is the only error; a hash-derived 128-bit coefficient
    hits the one bad value with probability about 2^-128.
    """
    counts = OpCounts()
    d = derive_values(par, pk_s, pk_n, m, sigma, counts)
    fs_fn = waters_product(pk_s, pk_n, d, counts)
    tk12 = tk.tk1 * tk.tk2
    counts.ec_additions += 1  # tk1 * tk2
    c2, c3 = _batch_coefficients(pk_s, pk_n, m, sigma, tk)
    pairs = [
        (sigma.s1, par.g2),
        (~tk.tk1, pk_n.x1),
        (_pow(sigma.s2, c2, counts), par.g2),
        (~_pow(tk.tk2, c2, counts), pk_n.x2),
        *_main_pairs(par, pk_s, pk_n, sigma, tk12, fs_fn, c3, counts),
    ]
    counts.pairing_pairs += len(pairs)
    return par.backend.pairing_check(pairs), counts
