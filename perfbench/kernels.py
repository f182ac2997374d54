"""Kernel rows: single operations timed over fixed operands.

These are the bottom rows of the per-layer table (field, group, pairing,
decode, ECDSA recovery and signer keygen). The operands are constants, not
drawn from the workload seed, so a row moves only when the code does. Each
row is the median of a few timed batches, in reference seconds.
"""

from __future__ import annotations

import hashlib
from random import Random

KERNEL_ROWS = [
    "bn254.f2_mul_us", "bn254.f2_inv_us", "bn254.f12_mul_us",
    "bn254.miller_loop_ms", "bn254.final_exp_ms",
    "algebra.g2_decode_ms", "trigger.ecdsa_recover_ms", "scheme.keygen_signer_s",
]


def _fp(tag: bytes) -> int:
    from nomsig import bn254

    return int.from_bytes(hashlib.sha512(tag).digest(), "big") % bn254.P


def _per_call(meter, fn, calls: int, batches: int = 3) -> float:
    def batch():
        for _ in range(calls):
            fn()

    return meter.timed_median(batch, batches) / calls


def kernel_rows(meter) -> dict[str, float]:
    from nomsig import bn254, scheme, trigger
    from nomsig.algebra import RealBackend

    a = (_fp(b"a0"), _fp(b"a1"))
    b = (_fp(b"b0"), _fp(b"b1"))
    dense = tuple((_fp(b"f%d0" % i), _fp(b"f%d1" % i)) for i in range(6))
    dense2 = tuple((_fp(b"g%d0" % i), _fp(b"g%d1" % i)) for i in range(6))
    q = bn254.g2_mul(bn254.G2_GEN, 0x5EED)
    p = bn254.g1_mul(bn254.G1_GEN, 0xBEEF)
    f = bn254.miller_loop(q, p)
    backend = RealBackend()
    q_bytes = backend.serialize("G2", q)
    kp = trigger.ecdsa_keygen(b"perfbench-kernel")
    msg = b"perfbench kernel message"
    sig = trigger.ecdsa_sign(kp.sk, msg)
    if trigger.ecdsa_recover(sig, msg) != kp.vk:
        raise RuntimeError("kernel operands: ECDSA recovery returned another key")
    if backend.deserialize("G2", q_bytes) != q:
        raise RuntimeError("kernel operands: G2 decode does not round-trip")
    par = scheme.setup(backend="bn254")

    return {
        "bn254.f2_mul_us": _per_call(meter, lambda: bn254.f2_mul(a, b), 2000) * 1e6,
        "bn254.f2_inv_us": _per_call(meter, lambda: bn254.f2_inv(a), 300) * 1e6,
        "bn254.f12_mul_us": _per_call(meter, lambda: bn254.f12_mul(dense, dense2), 100) * 1e6,
        "bn254.miller_loop_ms": _per_call(meter, lambda: bn254.miller_loop(q, p), 1) * 1e3,
        "bn254.final_exp_ms": _per_call(meter, lambda: bn254.final_exp(f), 1) * 1e3,
        "algebra.g2_decode_ms": _per_call(meter, lambda: backend.deserialize("G2", q_bytes), 10) * 1e3,
        "trigger.ecdsa_recover_ms": _per_call(meter, lambda: trigger.ecdsa_recover(sig, msg), 10) * 1e3,
        "scheme.keygen_signer_s": _per_call(meter, lambda: scheme.keygen_signer(par, Random(0)), 1, 1),
    }

