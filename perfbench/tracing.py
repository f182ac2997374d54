"""Spans and counters recorded around calls into nomsig's public functions.

The tracer wraps functions at run time from outside the program: it
replaces a function on its defining module and on every ``nomsig`` module
that imported it by name, and replaces methods on the backend classes.
Nothing under ``src/`` is edited. A span is recorded only while an op is
open, so set-up work and the benchmark's own checks leave no spans.

Spans are kept in memory as ``[name, start, end, parent, op]`` and are
summarised once the run ends: per op, each span name gets its call count,
its total time (outermost spans of that name only, so recursion is not
counted twice) and its self time (duration minus the time its direct
children cover).
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

# Module-level functions traced as spans, by module.
SPAN_FUNCTIONS = {
    "bn254": [
        "pairing", "miller_loop", "final_exp", "g2_in_subgroup",
        "g1_mul", "g2_mul", "g1_mul_base", "g2_mul_base", "g2_add",
    ],
    "scheme": [
        "tk_verify", "sign", "receive", "convert", "waters_eval",
        "derive_values", "keygen_signer", "keygen_nominee",
    ],
    "zkproto": ["derive_statement", "run_confirm", "run_disavow", "commit_challenge"],
    "trigger": ["ecdsa_recover", "ecdsa_sign", "ecdsa_keygen"],
    "contract": ["submit_trigger"],
    "envelopes": ["read_envelope"],
}

# Span names recorded by method wrappers and by the envelope decoders.
EXTRA_SPANS = [
    "algebra.deserialize.G1",
    "algebra.deserialize.G2",
    "algebra.hash_to_g2",
    "envelopes.from_payload",
]

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in SPAN_FUNCTIONS.items() for fn in fns] + EXTRA_SPANS

# Counters: exponentiations per group, bytes of envelope files read, and
# the gas meter's inputs per trigger submission.
EXP_COUNTERS = ["algebra.exp.G1", "algebra.exp.G2", "algebra.exp.GT"]
GAS_FIELDS = ["pairing_pairs", "ec_additions", "unpriced_scalar_mults", "tkverify_gas"]
READ_BYTES = "envelopes.read_envelope.bytes"
VERIFICATIONS = "gasmodel.verifications"


class Tracer:
    """Records spans and counts around wrapped calls while an op is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def span_wrapper(self, name, fn, on_result=None):
        """Wrap fn; ``name`` is a string or a function of the call's args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            result = self._span(label, fn, args, kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name(args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every nomsig module attribute that is ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nomsig" or modname.startswith("nomsig.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import nomsig.algebra as algebra
        import nomsig.envelopes as envelopes

        for mod, fns in SPAN_FUNCTIONS.items():
            module = sys.modules[f"nomsig.{mod}"]
            for fn in fns:
                on_result = None
                if (mod, fn) == ("contract", "submit_trigger"):
                    on_result = _count_gas
                elif (mod, fn) == ("envelopes", "read_envelope"):
                    on_result = _count_bytes
                original = getattr(module, fn)
                self._replace_everywhere(
                    original, self.span_wrapper(f"{mod}.{fn}", original, on_result)
                )
        for fn in [a for a in vars(envelopes) if a.endswith("_from_payload")]:
            original = getattr(envelopes, fn)
            self._replace_everywhere(
                original, self.span_wrapper("envelopes.from_payload", original)
            )
        for cls in (algebra.RealBackend, algebra.MockBackend):
            self._set(cls, "deserialize", self.span_wrapper(
                lambda a: f"algebra.deserialize.{a[1]}", vars(cls)["deserialize"]))
            self._set(cls, "hash_to_g2", self.span_wrapper(
                "algebra.hash_to_g2", vars(cls)["hash_to_g2"]))
            self._set(cls, "exp", self.count_wrapper(
                lambda a: f"algebra.exp.{a[1]}", vars(cls)["exp"]))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)


def _count_gas(tracer, args, receipt):
    tracer.counts[VERIFICATIONS] += 1
    for field in GAS_FIELDS:
        tracer.counts[f"gasmodel.{field}"] += getattr(receipt.gas, field)


def _count_bytes(tracer, args, result):
    tracer.counts[READ_BYTES] += os.path.getsize(args[0])


# -- summaries -------------------------------------------------------------


def span_stats(spans, scales=None):
    """{name: [calls, total_s, self_s]} over a list of spans.

    ``parent`` indexes into the same list (-1 for a root span). Self time is
    the span's duration minus its direct children's durations; total time
    counts a span only when no ancestor has the same name. ``scales[op]``,
    when given, converts the op's wall seconds to reference seconds.
    """
    durations = [
        (end - start) * (scales[op] if scales else 1.0) for _, start, end, _, op in spans
    ]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent, _), dur in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += dur
    stats: dict[str, list] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        dur = durations[i]
        row = stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += dur - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[1] += dur
    return stats


def layer_metrics(spans, counts, n_ops, scales=None):
    """Per-op span and counter metrics, with every known name present."""
    stats = span_stats(spans, scales)
    out = {}
    for name in SPAN_NAMES:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n_ops
        out[f"{name}.self_s"] = self_s / n_ops
        out[f"{name}.total_s"] = total / n_ops
    for name in EXP_COUNTERS + [READ_BYTES]:
        out[name] = counts.get(name, 0) / n_ops
    verifications = counts.get(VERIFICATIONS, 0)
    for field in GAS_FIELDS:
        total = counts.get(f"gasmodel.{field}", 0)
        out[f"gasmodel.{field}"] = total / verifications if verifications else 0.0
    return out
