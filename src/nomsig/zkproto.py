"""Interactive confirm/disavow proofs for nominative signatures.

Both protocols prove knowledge of the nominee's (y1, y2) relative to the
public statement (d, e3, e4), with f = F_S(M_S) F_N(M_N):

    d  = e(g1, sigma_3) / (e(gS, hS) e(gN, hN)) = e(g1, sigma_3) K
    e3 = e(sigma_1, f)          e4 = e(sigma_2, f)

where K = e(gS^-1, hS) e(gN^-1, hN) is the key pair's GT value, which the
nominee's public key holds for the signer's (``pair_K``): one final
exponentiation per pair.

Confirm shows d = e3^y1 * e4^y2 (the signature is valid), disavow shows
the inequality. Each is one sigma protocol over a relation of three rows
(Maurer, "Unifying Zero-Knowledge Proofs of Knowledge", 2009): row i says
that a product of powers of public bases, taken at the secret witness,
equals the row's image; t_i is the same product taken at the nonces.

    witness (nonce-draw order)         row 1            row 2            row 3              images
    confirm: z1 = y1, z2 = y2          x1^z1            x2^z2            e3^z1 e4^z2        g2ref, g2ref, d
    disavow: z3 = beta, z1 = beta*y1,  x1^z1 g2ref^-z3  x2^z2 g2ref^-z3  d^-z3 e3^z1 e4^z2  1, 1, C
             z2 = beta*y2

Disavow uses the randomized-inequality technique: the prover publishes
its row-3 image C = (e3^y1 e4^y2 / d)^beta for fresh beta != 0; C
collapses to the identity exactly when the signature is valid, and the
verifier rejects that outright. Confirm is disavow's relation at beta = 1
and C = 1.

The statement keeps the pairing inputs of d, e3 and e4 and computes none
of them. Row 3 takes their powers by bilinearity (``power_product``):

    d^a e3^b e4^c = e(sigma_1^b sigma_2^c, f) e(g1^a, sigma_3) K^a

one Miller evaluation over at most two pairs and one final exponentiation,
times one GT product of a power of K, which keeps a comb table, and of the
row's GT elements (C^-c in disavow's check). These are the same GT
elements as the powers of d, e3 and e4 themselves (Pointcheval-Sanders,
CT-RSA 2016, take their proofs' GT commitments this way), so every
message is too. A confirm run makes two final exponentiations (the
prover's t3, the verifier's check), a disavow run three (t3, C, check),
and the first run over a key pair one more, for K.

Each runs as a four-pass committed-challenge protocol: the verifier
first Pedersen-commits to its challenge over G2 (base derived by hashing
to the group), the prover answers the sigma protocol only after a valid
opening. Committing first is what makes the interaction zero-knowledge
against arbitrary verifiers, hence non-transferable.
"""

from __future__ import annotations

import functools
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
    pairs_by_smaller_side,
    waters_product,
)

PEDERSEN_BASE_TAG = b"NOMSIG-PEDERSEN-BASE"


class ProtocolError(Exception):
    pass


class AbortBadOpening(ProtocolError):
    """Prover-side abort: the verifier's opening does not match its commitment."""


@dataclass(frozen=True)
class ConfirmStatement:
    """The pairing inputs of d, e3 and e4, kept as the public inputs held them, so they keep their lines and combs.

    d, e3 and e4 themselves are never computed: the protocols take only
    their powers (``power_product``).
    """

    g1: GroupElem
    s1: GroupElem
    s2: GroupElem
    s3: GroupElem
    fs_fn: GroupElem  # F_S(M_S) F_N(M_N)
    pk_s: SignerPublicKey
    pk_n: NomineePublicKey
    g2ref: GroupElem

    @property
    def backend(self) -> Backend:
        return self.g2ref.backend

    def form(self, name: str):
        """The named GT value as ([(a, b), ...], held): the product of e(a, b) over its pairs and of its held GT values."""
        if name == "d":
            return [(self.g1, self.s3)], [self.pk_n.pair_K(self.pk_s)]
        return [(self.s1 if name == "e3" else self.s2, self.fs_fn)], []


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
    """Both parties derive the same statement from the same public inputs: F_S F_N, and no pairing."""
    fs_fn = waters_product(pk_s, pk_n, derive_values(par, pk_s, pk_n, m, sigma))
    return ConfirmStatement(par.g1, sigma.s1, sigma.s2, sigma.s3, fs_fn, pk_s, pk_n, par.g2)


def pedersen_base(backend: Backend) -> GroupElem:
    return _pedersen_base(type(backend))


@functools.cache
def _pedersen_base(backend_class) -> GroupElem:
    """The Pedersen base, hashed to G2 once per backend class.

    It is kept for the process, and so is its comb table once it has one:
    the only comb table that lives as long as the process.
    """
    return backend_class().hash_to_g2(PEDERSEN_BASE_TAG)


def commit_challenge(g2: GroupElem, c: int, rho: int) -> GroupElem:
    """g2^c h^rho for a held G2 generator g2 (a statement's ``g2ref``) and the Pedersen base h."""
    return g2.backend.multi_exp([(g2, c), (pedersen_base(g2.backend), rho)])


# ---------------------------------------------------------------------------
# The relations, and the one sigma protocol over them
# ---------------------------------------------------------------------------


def relation(protocol: str, s: ConfirmStatement, C: Optional[GroupElem] = None):
    """The protocol's response fields in nonce-draw order, and its three rows.

    A row is its ((base, sign, field), ...) terms, base^(sign * field) each,
    and its image. A base is one of the statement's own elements, never one
    made per call, so it keeps its comb table, or the name of one of its GT
    values d, e3 and e4 (``power_product``). Disavow's row-3 image is the C
    its prover publishes, None while there is none other than the identity.
    """
    if protocol == "confirm":
        return ["z1", "z2"], [
            ([(s.pk_n.x1, 1, "z1")], s.g2ref),
            ([(s.pk_n.x2, 1, "z2")], s.g2ref),
            ([("e3", 1, "z1"), ("e4", 1, "z2")], "d"),
        ]
    if protocol == "disavow":
        one = s.backend.identity("G2")
        return ["z3", "z1", "z2"], [
            ([(s.pk_n.x1, 1, "z1"), (s.g2ref, -1, "z3")], one),
            ([(s.pk_n.x2, 1, "z2"), (s.g2ref, -1, "z3")], one),
            ([("d", -1, "z3"), ("e3", 1, "z1"), ("e4", 1, "z2")], None if C is None or C.is_identity() else C),
        ]
    raise ProtocolError(f"unknown protocol {protocol!r}")


def power_product(s: ConfirmStatement, terms) -> GroupElem:
    """prod x^k over (x, k) terms of one group, x a group element or the name of one of s's GT values.

    Elements take one ``multi_exp``. A named value enters by bilinearity,
    e(a, b)^k = e(a^k, b) over its ``form``: its pairs join one pairing
    product (``pairs_by_smaller_side``), and its held GT values the
    elements' product.
    """
    b = s.backend
    powers, elems = [], []
    for x, k in terms:
        if isinstance(x, GroupElem):
            elems.append((x, k))
            continue
        pairs, held = s.form(x)
        powers += [(a, k, g2) for a, g2 in pairs]
        elems += [(h, k) for h in held]
    out = []
    if powers:
        out.append(b.pairing_product(pairs_by_smaller_side(b, powers)[0]))
    if elems:
        out.append(b.multi_exp(elems))
    return b.product(out)


def _lhs(s: ConfirmStatement, terms, w: dict) -> GroupElem:
    return power_product(s, [(base, sign * w[field]) for base, sign, field in terms])


def _t(s: ConfirmStatement, terms, image, z: dict, c: int) -> GroupElem:
    """The first message under which responses z answer challenge c: lhs(z) / image^c, one product of powers."""
    return power_product(s, [(base, sign * z[field]) for base, sign, field in terms] + [(image, -c)])


def check(protocol: str, s: ConfirmStatement, c: int, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
    """The verifier's decision on a transcript with challenge c."""
    fields, rows = relation(protocol, s, first.C)
    z = {f: getattr(resp, f) for f in fields}
    if None in z.values() or any(image is None for _, image in rows):
        return False
    return all(t == _t(s, terms, image, z, c) for (terms, image), t in zip(rows, (first.t1, first.t2, first.t3)))


class Verifier:
    """The verifier of ``protocol``: commits to its challenge, opens it, then decides."""

    def __init__(self, protocol: str, statement: ConfirmStatement, rng: Random):
        self.protocol = protocol
        self.stmt = statement
        b = statement.backend
        self._c = b.random_scalar(rng)
        self._rho = b.random_scalar(rng)
        self._com = ChallengeCommitment(commit_challenge(statement.g2ref, self._c, self._rho))

    def commitment(self) -> ChallengeCommitment:
        return self._com

    def opening(self) -> ChallengeOpening:
        return ChallengeOpening(self._c, self._rho)

    def verdict(self, first: SigmaFirstMsg, resp: SigmaResponse) -> bool:
        return check(self.protocol, self.stmt, self._c, first, resp)


class Prover:
    """The nominee's prover of ``protocol``: answers only a challenge that opens the commitment it saw."""

    def __init__(self, protocol: str, statement: ConfirmStatement, sk_n: NomineeSecretKey, rng: Random):
        self.protocol = protocol
        self.stmt = statement
        self.y1 = sk_n.y1
        self.y2 = sk_n.y2
        self.rng = rng
        self._com: Optional[ChallengeCommitment] = None

    def first_message(self, commitment: ChallengeCommitment) -> SigmaFirstMsg:
        self._com = commitment
        b = self.stmt.backend
        n = b.order
        fields, rows = relation(self.protocol, self.stmt)
        publishes = rows[2][1] is None
        # the witness (beta, beta*y1, beta*y2); a relation that publishes no image takes beta = 1
        beta = b.random_nonzero_scalar(self.rng) if publishes else 1
        self._w = {"z3": beta, "z1": beta * self.y1 % n, "z2": beta * self.y2 % n}
        self._a = {f: b.random_scalar(self.rng) for f in fields}
        t1, t2, t3 = (_lhs(self.stmt, terms, self._a) for terms, _ in rows)
        return SigmaFirstMsg(t1, t2, t3, _lhs(self.stmt, rows[2][0], self._w) if publishes else None)

    def response(self, opening: ChallengeOpening) -> SigmaResponse:
        expected = commit_challenge(self.stmt.g2ref, opening.c, opening.rho)
        if self._com is None or expected != self._com.com:
            raise AbortBadOpening("challenge opening does not match the commitment")
        n = self.stmt.backend.order
        return SigmaResponse(**{f: (a + opening.c * self._w[f]) % n for f, a in self._a.items()})


# ---------------------------------------------------------------------------
# In-process orchestration
# ---------------------------------------------------------------------------


def _run(protocol: str, statement, sk_n, prover_rng, verifier_rng) -> tuple[bool, Transcript]:
    prover = Prover(protocol, statement, sk_n, prover_rng)
    verifier = Verifier(protocol, statement, verifier_rng)
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
    return _run("confirm", statement, sk_n, prover_rng, verifier_rng)


def run_disavow(
    statement: ConfirmStatement,
    sk_n: NomineeSecretKey,
    prover_rng: Random,
    verifier_rng: Random,
) -> tuple[bool, Transcript]:
    return _run("disavow", statement, sk_n, prover_rng, verifier_rng)
