import dataclasses
import hashlib
import random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, utils

from nomsig.trigger import (
    N,
    EcdsaSignature,
    RecoveryFailed,
    TriggerError,
    address_of,
    ecdsa_keygen,
    ecdsa_recover,
    ecdsa_sign,
    verify_against_address,
)


@pytest.fixture(scope="module")
def keypair():
    return ecdsa_keygen(b"pinned-vector-seed")


def test_keygen_pinned(keypair):
    # frozen from the reference run
    assert keypair.sk == 0xD850D31BB5DD40A2B46F385CA78CA51AEAA4082B8F6911E6908C0B7F7042C81F
    assert address_of(keypair.vk).hex() == "b8822ffaffa49fe61ab75751075d4e837c857839"


def test_sign_pinned(keypair):
    sig = ecdsa_sign(keypair.sk, b"pinned message")
    assert sig.to_bytes().hex() == (
        "90a91b9307236b3a660f5ce0ac14045ace260f7b3af56c5fb4a57756a035ae41"
        "320912cb9685a81124fa37f68eaa2163e743b3d198ff44a419814628a99161b0"
        "01"
    )


def test_sign_recover_roundtrip():
    rng = random.Random(21)
    for i in range(20):
        kp = ecdsa_keygen(rng.randbytes(16))
        msg = rng.randbytes(rng.randrange(1, 80))
        sig = ecdsa_sign(kp.sk, msg)
        assert ecdsa_recover(sig, msg) == kp.vk
        assert verify_against_address(sig, msg, address_of(kp.vk))


def test_oracle_agrees_with_cryptography_secp256k1():
    # independent implementation of the same curve and signature equation
    rng = random.Random(23)
    prehashed = ec.ECDSA(utils.Prehashed(hashes.SHA256()))
    for _ in range(10):
        kp = ecdsa_keygen(rng.randbytes(16))
        pub = ec.derive_private_key(kp.sk, ec.SECP256K1()).public_key()
        assert (pub.public_numbers().x, pub.public_numbers().y) == kp.vk
        msg = rng.randbytes(rng.randrange(1, 80))
        sig = ecdsa_sign(kp.sk, msg)
        der = utils.encode_dss_signature(sig.r, sig.s)
        pub.verify(der, hashlib.sha256(msg).digest(), prehashed)
        with pytest.raises(InvalidSignature):
            pub.verify(der, hashlib.sha256(msg + b"!").digest(), prehashed)


def test_signing_is_deterministic(keypair):
    a = ecdsa_sign(keypair.sk, b"same input")
    b = ecdsa_sign(keypair.sk, b"same input")
    assert a == b


def test_s_always_low_half(keypair):
    rng = random.Random(22)
    for _ in range(50):
        sig = ecdsa_sign(keypair.sk, rng.randbytes(24))
        assert 1 <= sig.s <= N // 2


def test_high_s_rejected(keypair):
    sig = ecdsa_sign(keypair.sk, b"msg")
    high = dataclasses.replace(sig, s=N - sig.s)
    with pytest.raises(RecoveryFailed):
        ecdsa_recover(high, b"msg")
    assert not verify_against_address(high, b"msg", address_of(keypair.vk))


def test_perturbed_message_rejected(keypair):
    addr = address_of(keypair.vk)
    sig = ecdsa_sign(keypair.sk, b"transfer 700 units")
    assert verify_against_address(sig, b"transfer 700 units", addr)
    assert not verify_against_address(sig, b"transfer 701 units", addr)


def test_invalid_r_s_rejected(keypair):
    sig = ecdsa_sign(keypair.sk, b"m")
    for bad in (
        dataclasses.replace(sig, r=0),
        dataclasses.replace(sig, s=0),
        dataclasses.replace(sig, r=N),
        dataclasses.replace(sig, recovery_id=4),
    ):
        with pytest.raises(RecoveryFailed):
            ecdsa_recover(bad, b"m")


def test_encoding_roundtrip(keypair):
    sig = ecdsa_sign(keypair.sk, b"encode me")
    data = sig.to_bytes()
    assert len(data) == 65
    # r and s as 32-byte big-endian words, then the recovery id
    assert EcdsaSignature(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:64], "big"), data[64]) == sig


def test_distinct_keys_distinct_addresses():
    seen = set()
    for i in range(30):
        kp = ecdsa_keygen(b"seed-%d" % i)
        seen.add(address_of(kp.vk))
    assert len(seen) == 30


def test_sign_rejects_bad_sk():
    with pytest.raises(TriggerError):
        ecdsa_sign(0, b"x")
    with pytest.raises(TriggerError):
        ecdsa_sign(N, b"x")
