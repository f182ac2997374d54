"""Recoverable ECDSA over secp256k1.

The transaction-authorizing signature: the verification key is recovered
from (signature, message) and matched against a wallet address, which is
the trailing 20 bytes of a SHA-256 hash of the uncompressed key. Nonces
are derived deterministically from (sk, message hash) so signing is
reproducible; s is always normalized to the low half-range, and recovery
refuses high-s encodings.

The point arithmetic is ``curve``'s, shared with BN254 G1; every scalar
multiplication is ``curve.multi_mul`` over this curve's record ``GLV``,
which splits the scalar with its cube-root endomorphism.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from . import curve

# secp256k1 domain parameters
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
G = (GX, GY)
# The standard endomorphism (x, y) -> (BETA*x, y) = LAMBDA * (x, y), with BETA^3 = 1 mod P.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
GLV = curve.glv(P, N, BETA, LAMBDA)

ADDRESS_LEN = 20


class TriggerError(Exception):
    pass


class RecoveryFailed(TriggerError):
    pass


@dataclass(frozen=True)
class EcdsaKeyPair:
    sk: int
    vk: tuple[int, int]


@dataclass(frozen=True)
class EcdsaSignature:
    r: int
    s: int
    recovery_id: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.recovery_id])

    @classmethod
    def from_bytes(cls, data: bytes) -> "EcdsaSignature":
        if len(data) != 65:
            raise RecoveryFailed(f"signature must be 65 bytes, got {len(data)}")
        return cls(
            r=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:64], "big"),
            recovery_id=data[64],
        )


def ecdsa_keygen(seed: bytes) -> EcdsaKeyPair:
    """Deterministic key pair from a seed."""
    ctr = 0
    while True:
        sk = int.from_bytes(
            hashlib.sha256(b"NOMSIG-ECDSA-KEY" + ctr.to_bytes(4, "big") + seed).digest(), "big"
        )
        if 0 < sk < N:
            return EcdsaKeyPair(sk=sk, vk=curve.multi_mul(GLV, [(G, sk)]))
        ctr += 1


def address_of(vk: tuple[int, int]) -> bytes:
    raw = vk[0].to_bytes(32, "big") + vk[1].to_bytes(32, "big")
    return hashlib.sha256(raw).digest()[-ADDRESS_LEN:]


def _msg_hash(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def _nonce(sk: int, z: int, attempt: int) -> int:
    key = sk.to_bytes(32, "big")
    data = z.to_bytes(32, "big") + attempt.to_bytes(4, "big")
    return int.from_bytes(hmac.new(key, b"NOMSIG-ECDSA-NONCE" + data, hashlib.sha256).digest(), "big")


def ecdsa_sign(sk: int, message: bytes) -> EcdsaSignature:
    """Recoverable signature with deterministic nonce and canonical (low) s."""
    if not 0 < sk < N:
        raise TriggerError("signing key out of range")
    z = _msg_hash(message)
    attempt = 0
    while True:
        k = _nonce(sk, z, attempt) % N
        attempt += 1
        if k == 0:
            continue
        rx, ry = curve.multi_mul(GLV, [(G, k)])
        r = rx % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (z + r * sk) % N
        if s == 0:
            continue
        recovery_id = (2 if rx >= N else 0) | (ry & 1)
        if s > N // 2:
            s = N - s
            recovery_id ^= 1
        return EcdsaSignature(r=r, s=s, recovery_id=recovery_id)


def ecdsa_recover(sig: EcdsaSignature, message: bytes) -> tuple[int, int]:
    """Recover the verification key; raises RecoveryFailed on any invalid input."""
    if not 0 < sig.r < N or not 0 < sig.s < N:
        raise RecoveryFailed("r/s out of range")
    if sig.s > N // 2:
        raise RecoveryFailed("non-canonical signature: s in the high half-range")
    if not 0 <= sig.recovery_id <= 3:
        raise RecoveryFailed("recovery id out of range")
    x = sig.r + (N if sig.recovery_id >= 2 else 0)
    if x >= P:
        raise RecoveryFailed("recovery x out of field range")
    y_sq = (pow(x, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise RecoveryFailed("recovery point not on curve")
    if (y & 1) != (sig.recovery_id & 1):
        y = P - y
    big_r = (x, y)
    z = _msg_hash(message)
    r_inv = pow(sig.r, -1, N)
    # s/r * R - z/r * G as one joint ladder over R, -G and their endomorphism images
    vk = curve.multi_mul(GLV, [(big_r, sig.s * r_inv % N), ((GX, P - GY), z * r_inv % N)])
    if vk is None:
        raise RecoveryFailed("recovered key is the point at infinity")
    return vk


def verify_against_address(sig: EcdsaSignature, message: bytes, addr: bytes) -> bool:
    """accept iff the recovered key hashes to the given address."""
    try:
        vk = ecdsa_recover(sig, message)
    except RecoveryFailed:
        return False
    return address_of(vk) == addr
