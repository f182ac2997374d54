"""Interactive confirm/disavow proofs for nominative signatures.

Both protocols prove knowledge of the nominee's (y1, y2) relative to the
public statement

    e1 = e(g1, sigma_3)          e3 = e(sigma_1, F_S(M_S) F_N(M_N))
    e2 = e(gS, hS) e(gN, hN)     e4 = e(sigma_2, F_S(M_S) F_N(M_N))

Confirm shows e1 = e2 * e3^y1 * e4^y2 (the signature is valid), disavow
shows the inequality. Each runs as a four-pass committed-challenge
protocol: the verifier first Pedersen-commits to its challenge over G2
(base derived by hashing to the group), the prover answers the sigma
protocol only after a valid opening. Committing first is what makes the
interaction zero-knowledge against arbitrary verifiers, hence
non-transferable.

Disavow uses the randomized-inequality technique: the prover publishes
C = (e2 e3^y1 e4^y2 / e1)^beta for fresh beta != 0 and proves consistency
of (beta, beta*y1, beta*y2) across C and the x1/x2 relations; C collapses
to the identity exactly when the signature is valid, and the verifier
rejects that outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

from .algebra import Backend, GroupElem
from .scheme import (
    NomineePublicKey,
    NomineeSecretKey,
    NomSignature,
    PublicParams,
    SignerPublicKey,
    derive_values,
    waters_product,
)

PEDERSEN_BASE_TAG = b"NOMSIG-PEDERSEN-BASE"


class ProtocolError(Exception):
    pass


class AbortBadOpening(ProtocolError):
    """Prover-side abort: the verifier's opening does not match its commitment."""


@dataclass(frozen=True)
class ConfirmStatement:
    e1: GroupElem
    e2: GroupElem
    e3: GroupElem
    e4: GroupElem
    x1: GroupElem
    x2: GroupElem
    g2ref: GroupElem

    @property
    def backend(self) -> Backend:
        return self.g2ref.backend

    def holds_for(self, y1: int, y2: int) -> bool:
        return self.e1 == self.e2 * self.e3**y1 * self.e4**y2


@dataclass(frozen=True)
class ChallengeCommitment:
    com: GroupElem


@dataclass(frozen=True)
class ChallengeOpening:
    c: int
    rho: int


@dataclass(frozen=True)
class SigmaFirstMsg:
    t1: GroupElem  # G2
    t2: GroupElem  # G2
    t3: GroupElem  # GT
    C: Optional[GroupElem] = None  # disavow only


@dataclass(frozen=True)
class SigmaResponse:
    z1: int
    z2: int
    z3: Optional[int] = None  # disavow only


@dataclass
class Transcript:
    protocol: str  # "confirm" | "disavow"
    commitment: ChallengeCommitment = None
    first: SigmaFirstMsg = None
    opening: ChallengeOpening = None
    response: SigmaResponse = None
    verdict: Optional[bool] = None

    def messages(self):
        return [self.commitment, self.first, self.opening, self.response, self.verdict]


def derive_statement(
    par: PublicParams,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    m: bytes,
    sigma: NomSignature,
) -> ConfirmStatement:
    """Both parties derive the same statement from the same public inputs."""
    e = par.backend.pairing
    d = derive_values(par, pk_s, pk_n, m, sigma)
    fs_fn = waters_product(pk_s, pk_n, d)
    return ConfirmStatement(
        e1=e(par.g1, sigma.s3),
        e2=par.backend.pairing_product([(pk_s.gS, pk_s.hS), (pk_n.gN, pk_n.hN)]),
        e3=e(sigma.s1, fs_fn),
        e4=e(sigma.s2, fs_fn),
        x1=pk_n.x1,
        x2=pk_n.x2,
        g2ref=par.g2,
    )


_PEDERSEN_CACHE: dict[str, GroupElem] = {}


def pedersen_base(backend: Backend) -> GroupElem:
    cached = _PEDERSEN_CACHE.get(backend.name)
    if cached is None or type(cached.backend) is not type(backend):
        cached = backend.hash_to_g2(PEDERSEN_BASE_TAG)
        _PEDERSEN_CACHE[backend.name] = cached
    return cached


def commit_challenge(backend: Backend, c: int, rho: int) -> GroupElem:
    return backend.g2() ** c * pedersen_base(backend) ** rho


# ---------------------------------------------------------------------------
# Verifier side (both protocols share the commitment handling)
# ---------------------------------------------------------------------------


class _VerifierBase:
    def __init__(self, statement: ConfirmStatement, rng: Random):
        self.stmt = statement
        b = statement.backend
        self._c = b.random_scalar(rng)
        self._rho = b.random_scalar(rng)
        self._com = ChallengeCommitment(commit_challenge(b, self._c, self._rho))

    def commitment(self) -> ChallengeCommitment:
        return self._com

    def opening(self) -> ChallengeOpening:
        return ChallengeOpening(self._c, self._rho)


def confirm_checks(s: ConfirmStatement, c: int, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
    return (
        s.x1**resp.z1 == first.t1 * s.g2ref**c
        and s.x2**resp.z2 == first.t2 * s.g2ref**c
        and s.e3**resp.z1 * s.e4**resp.z2 == first.t3 * (s.e1 / s.e2) ** c
    )


def disavow_checks(s: ConfirmStatement, c: int, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
    if first.C is None or resp.z3 is None or first.C.is_identity():
        return False
    return (
        s.x1**resp.z1 / s.g2ref**resp.z3 == first.t1
        and s.x2**resp.z2 / s.g2ref**resp.z3 == first.t2
        and s.e2**resp.z3 * s.e3**resp.z1 * s.e4**resp.z2 / s.e1**resp.z3
        == first.t3 * first.C**c
    )


class ConfirmVerifier(_VerifierBase):
    def verdict(self, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
        return confirm_checks(self.stmt, self._c, first, resp)


class DisavowVerifier(_VerifierBase):
    def verdict(self, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
        return disavow_checks(self.stmt, self._c, first, resp)


# ---------------------------------------------------------------------------
# Prover side
# ---------------------------------------------------------------------------


class _ProverBase:
    def __init__(self, statement: ConfirmStatement, sk_n: NomineeSecretKey, rng: Random):
        self.stmt = statement
        self.y1 = sk_n.y1
        self.y2 = sk_n.y2
        self.rng = rng
        self._com: Optional[ChallengeCommitment] = None

    def _check_opening(self, opening: ChallengeOpening) -> None:
        expected = commit_challenge(self.stmt.backend, opening.c, opening.rho)
        if self._com is None or expected != self._com.com:
            raise AbortBadOpening("challenge opening does not match the commitment")


class ConfirmProver(_ProverBase):
    def first_message(self, commitment: ChallengeCommitment) -> SigmaFirstMsg:
        self._com = commitment
        b = self.stmt.backend
        self._a1 = b.random_scalar(self.rng)
        self._a2 = b.random_scalar(self.rng)
        s = self.stmt
        return SigmaFirstMsg(
            t1=s.x1**self._a1,
            t2=s.x2**self._a2,
            t3=s.e3**self._a1 * s.e4**self._a2,
        )

    def response(self, opening: ChallengeOpening) -> SigmaResponse:
        self._check_opening(opening)
        n = self.stmt.backend.order
        return SigmaResponse(
            z1=(self._a1 + opening.c * self.y1) % n,
            z2=(self._a2 + opening.c * self.y2) % n,
        )


class DisavowProver(_ProverBase):
    def first_message(self, commitment: ChallengeCommitment) -> SigmaFirstMsg:
        self._com = commitment
        b = self.stmt.backend
        s = self.stmt
        n = b.order
        beta = b.random_nonzero_scalar(self.rng)
        self._beta = beta
        self._gamma1 = beta * self.y1 % n
        self._gamma2 = beta * self.y2 % n
        # C = (e2 e3^y1 e4^y2 / e1)^beta; identity iff the signature is valid.
        d = s.e2 * s.e3**self.y1 * s.e4**self.y2 / s.e1
        self._C = d**beta
        self._a = b.random_scalar(self.rng)
        self._b1 = b.random_scalar(self.rng)
        self._b2 = b.random_scalar(self.rng)
        return SigmaFirstMsg(
            t1=s.x1**self._b1 / s.g2ref**self._a,
            t2=s.x2**self._b2 / s.g2ref**self._a,
            t3=s.e2**self._a * s.e3**self._b1 * s.e4**self._b2 / s.e1**self._a,
            C=self._C,
        )

    def response(self, opening: ChallengeOpening) -> SigmaResponse:
        self._check_opening(opening)
        n = self.stmt.backend.order
        c = opening.c
        return SigmaResponse(
            z1=(self._b1 + c * self._gamma1) % n,
            z2=(self._b2 + c * self._gamma2) % n,
            z3=(self._a + c * self._beta) % n,
        )


# ---------------------------------------------------------------------------
# In-process orchestration
# ---------------------------------------------------------------------------


def _run(protocol: str, prover, verifier) -> tuple[bool, Transcript]:
    tr = Transcript(protocol)
    tr.commitment = verifier.commitment()
    tr.first = prover.first_message(tr.commitment)
    tr.opening = verifier.opening()
    tr.response = prover.response(tr.opening)
    tr.verdict = verifier.verdict(tr.first, tr.response)
    return tr.verdict, tr


def run_confirm(
    statement: ConfirmStatement,
    sk_n: NomineeSecretKey,
    prover_rng: Random,
    verifier_rng: Random,
) -> tuple[bool, Transcript]:
    return _run("confirm", ConfirmProver(statement, sk_n, prover_rng), ConfirmVerifier(statement, verifier_rng))


def run_disavow(
    statement: ConfirmStatement,
    sk_n: NomineeSecretKey,
    prover_rng: Random,
    verifier_rng: Random,
) -> tuple[bool, Transcript]:
    return _run("disavow", DisavowProver(statement, sk_n, prover_rng), DisavowVerifier(statement, verifier_rng))


# ---------------------------------------------------------------------------
# Zero-knowledge simulator and special-soundness extractor (test machinery)
# ---------------------------------------------------------------------------


def simulate_transcript(statement: ConfirmStatement, protocol: str, rng: Random) -> Transcript:
    """Accepting transcript built without the witness.

    The simulator exploits exactly what the committed challenge grants a
    zero-knowledge simulator: it learns c before emitting the first message.
    """
    b = statement.backend
    s = statement
    n = b.order
    c = b.random_scalar(rng)
    rho = b.random_scalar(rng)
    tr = Transcript(protocol)
    tr.commitment = ChallengeCommitment(commit_challenge(b, c, rho))
    tr.opening = ChallengeOpening(c, rho)
    if protocol == "confirm":
        z1, z2 = b.random_scalar(rng), b.random_scalar(rng)
        tr.first = SigmaFirstMsg(
            t1=s.x1**z1 / s.g2ref**c,
            t2=s.x2**z2 / s.g2ref**c,
            t3=s.e3**z1 * s.e4**z2 / (s.e1 / s.e2) ** c,
        )
        tr.response = SigmaResponse(z1=z1, z2=z2)
        tr.verdict = confirm_checks(s, c, tr.first, tr.response)
    elif protocol == "disavow":
        C = b.gt() ** b.random_nonzero_scalar(rng)
        z1, z2, z3 = b.random_scalar(rng), b.random_scalar(rng), b.random_scalar(rng)
        tr.first = SigmaFirstMsg(
            t1=s.x1**z1 / s.g2ref**z3,
            t2=s.x2**z2 / s.g2ref**z3,
            t3=(s.e2**z3 * s.e3**z1 * s.e4**z2 / s.e1**z3) / C**c,
            C=C,
        )
        tr.response = SigmaResponse(z1=z1, z2=z2, z3=z3)
        tr.verdict = disavow_checks(s, c, tr.first, tr.response)
    else:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    return tr


def extract_confirm_witness(
    statement: ConfirmStatement,
    first: SigmaFirstMsg,
    c1: int,
    resp1: SigmaResponse,
    c2: int,
    resp2: SigmaResponse,
) -> tuple[int, int]:
    """Special soundness: two accepting transcripts over one first message
    with distinct challenges pin down (y1, y2)."""
    n = statement.backend.order
    if c1 == c2:
        raise ProtocolError("challenges must differ")
    dc_inv = pow((c1 - c2) % n, -1, n)
    y1 = (resp1.z1 - resp2.z1) * dc_inv % n
    y2 = (resp1.z2 - resp2.z2) * dc_inv % n
    return y1, y2
