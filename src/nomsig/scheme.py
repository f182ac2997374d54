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

from dataclasses import dataclass
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
    """Operation tallies a contract would be billed for (plus unpriced extras)."""

    pairing_pairs: int = 0
    ec_additions: int = 0
    scalar_mults: int = 0  # not priced by the cost table; reported for honesty


def setup(security: int = 128, backend: Backend | str = "bn254") -> PublicParams:
    if security != 128:
        raise UnsupportedSecurityLevel(f"only the 128-bit level is supported, got {security}")
    if isinstance(backend, str):
        backend = get_backend(backend)
    return PublicParams(backend=backend, g1=backend.g1(), g2=backend.g2(), order=backend.order)


def keygen_signer(par: PublicParams, rng: Random) -> tuple[SignerPublicKey, SignerSecretKey]:
    b = par.backend
    alpha = b.random_scalar(rng)
    v = [b.random_scalar(rng) for _ in range(par.ell + 1)]
    hS = par.g2 ** b.random_scalar(rng)
    pk = SignerPublicKey(
        gS=par.g1**alpha,
        hS=hS,
        u=tuple(par.g2**vi for vi in v),
    )
    # v_0..v_ell are only needed to build u and are dropped here.
    return pk, SignerSecretKey(alphaS=alpha)


def keygen_nominee(par: PublicParams, rng: Random) -> tuple[NomineePublicKey, NomineeSecretKey]:
    b = par.backend
    alpha = b.random_scalar(rng)
    y1 = b.random_nonzero_scalar(rng)
    y2 = b.random_nonzero_scalar(rng)
    vp = tuple(b.random_scalar(rng) for _ in range(par.ell + 1))
    pk = NomineePublicKey(
        gN=par.g1**alpha,
        hN=par.g2 ** b.random_scalar(rng),
        k=par.g2 ** b.random_scalar(rng),
        uPrime=tuple(par.g2**vi for vi in vp),
        x1=par.g2 ** pow(y1, -1, par.order),
        x2=par.g2 ** pow(y2, -1, par.order),
    )
    return pk, NomineeSecretKey(alphaN=alpha, vPrime=vp, y1=y1, y2=y2)


def waters_eval(bases: tuple[GroupElem, ...], mbits: bytes, counts: Optional[OpCounts] = None) -> GroupElem:
    """u_0 * prod_{i: m_i = 1} u_i for a 256-bit input; counts multiplications."""
    if len(bases) != ELL + 1:
        raise LengthMismatch(f"need {ELL + 1} bases, got {len(bases)}")
    if len(mbits) * 8 != ELL:
        raise LengthMismatch(f"need a {ELL}-bit input, got {len(mbits) * 8} bits")
    acc = bases[0]
    muls = 0
    for i in range(1, ELL + 1):
        if bit(mbits, i):
            acc = acc * bases[i]
            muls += 1
    if counts is not None:
        counts.ec_additions += muls
    return acc


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
    mn = (par.g2**t) * (pk_n.k**sigma.s)
    if counts is not None:
        counts.scalar_mults += 2
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
        d3=(pk_s.hS**sk_s.alphaS) * fs**r,
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
    e = par.backend.pairing
    waters_ok = e(pk_s.gS, pk_s.hS) * e(delta.d1, fs) == e(par.g1, delta.d3)
    consistent = e(delta.d1, par.g2) == e(par.g1, delta.d2)
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
    d1p = delta.d1 * par.g1**r_prime
    d2p = delta.d2 * par.g2**r_prime
    d3p = delta.d3 * fs**r_prime
    s1 = (d1p / par.g1**r) ** pow(sk_n.y1, -1, par.order)
    s2 = (par.g1**r) ** pow(sk_n.y2, -1, par.order)
    t = _chal_scalar(par, pk_s, s1, s2, m)
    mn = (par.g2**t) * (pk_n.k**s)
    mn_bits = hash_h1(mn.to_bytes())
    expo = sk_n.vPrime[0]
    for i in range(1, par.ell + 1):
        if bit(mn_bits, i):
            expo += sk_n.vPrime[i]
    s3 = d3p * pk_n.hN**sk_n.alphaN * d2p ** (expo % par.order)
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
    e = par.backend.pairing
    d = derive_values(par, pk_s, pk_n, m, sigma)
    fs_fn = waters_product(pk_s, pk_n, d)
    combined = sigma.s1**sk_n.y1 * sigma.s2**sk_n.y2
    lhs = e(par.g1, sigma.s3)
    rhs = e(pk_s.gS, pk_s.hS) * e(pk_n.gN, pk_n.hN) * e(combined, fs_fn)
    if lhs != rhs:
        return None
    return VerificationToken(tk1=sigma.s1**sk_n.y1, tk2=sigma.s2**sk_n.y2)


def tk_verify(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
    tk: VerificationToken,
) -> tuple[bool, OpCounts]:
    """Public verification of (sigma, tk); returns the verdict and op tallies.

    Eight pairings: two per token-consistency equation, four for the main
    equation. The counts feed the gas meter, which prices them as a single
    batched precompile call with n = 8.
    """
    counts = OpCounts()
    e = par.backend.pairing
    d = derive_values(par, pk_s, pk_n, m, sigma, counts)
    fs_fn = waters_product(pk_s, pk_n, d, counts)
    tk12 = tk.tk1 * tk.tk2
    counts.ec_additions += 1  # tk1 * tk2
    eq1 = e(sigma.s1, par.g2) == e(tk.tk1, pk_n.x1)
    eq2 = e(sigma.s2, par.g2) == e(tk.tk2, pk_n.x2)
    eq3 = e(par.g1, sigma.s3) == e(pk_s.gS, pk_s.hS) * e(pk_n.gN, pk_n.hN) * e(tk12, fs_fn)
    counts.pairing_pairs += 8
    return eq1 and eq2 and eq3, counts
