import dataclasses
import random

import pytest

from nomsig import scheme
from nomsig.algebra import GroupElem


class Pipeline:
    """One honest run of sign -> receive -> convert, with everything kept."""

    def __init__(self, seed, backend="mock", message=None, par=None, keys=None):
        self.rng = random.Random(seed)
        self.par = par if par is not None else scheme.setup(backend=backend)
        if keys is not None:
            self.pk_s, self.sk_s, self.pk_n, self.sk_n = keys
        else:
            self.pk_s, self.sk_s = scheme.keygen_signer(self.par, self.rng)
            self.pk_n, self.sk_n = scheme.keygen_nominee(self.par, self.rng)
        self.m = message if message is not None else b"program %d" % self.rng.getrandbits(64)
        self.delta = scheme.sign(self.par, self.pk_s, self.pk_n, self.m, self.sk_s, self.rng)
        self.sigma = scheme.receive(
            self.par, self.pk_s, self.pk_n, self.m, self.delta, self.sk_n, self.rng
        )
        self.tk = (
            None
            if self.sigma is None
            else scheme.convert(self.par, self.pk_s, self.pk_n, self.m, self.sigma, self.sk_n)
        )

    def verify(self):
        return scheme.tk_verify(self.par, self.pk_s, self.pk_n, self.m, self.sigma, self.tk)


def fresh(obj):
    """A copy of a params, key or sigma object whose group elements are new objects: no lines or held values."""
    return dataclasses.replace(obj, **{f.name: GroupElem(v.backend, v.group, v.value) for f in dataclasses.fields(obj)
                                      if isinstance(v := getattr(obj, f.name), GroupElem)})


@pytest.fixture(scope="session")
def mock_pipeline():
    p = Pipeline(seed=2024, backend="mock")
    assert p.sigma is not None and p.tk is not None
    return p


@pytest.fixture(scope="session")
def real_pipeline():
    p = Pipeline(seed=2024, backend="bn254")
    assert p.sigma is not None and p.tk is not None
    return p
