"""Per-layer tracing by wrapping the public functions of ``qwitness`` from outside.

``Tracer.install`` replaces each traced function with a timing wrapper at
every site that holds it: the defining module and every ``qwitness``
module that imported the name directly. Methods are wrapped on their
class. Nothing under ``src/`` changes. Spans form a stack, so each call's
self time is its duration minus the time its traced children cover.
Per-name totals stay in memory for the whole round; the first
``SPAN_CAP`` raw spans are kept too and written out when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 20_000

# (layer name, module, attribute path). A dotted path names a method.
TARGETS = (
    ("qudit.haar_random", "qwitness.qudit", "haar_random"),
    ("qudit.PureState", "qwitness.qudit", "PureState.__post_init__"),
    ("qudit.measure_binary", "qwitness.qudit", "measure_binary"),
    ("qudit.tensor_states", "qwitness.qudit", "tensor_states"),
    ("qudit.sym_projector", "qwitness.qudit", "sym_projector"),
    ("qudit.measure_basis", "qwitness.qudit", "measure_basis"),
    ("qudit.fidelity_sq", "qwitness.qudit", "fidelity_sq"),
    ("estimation.covariant_estimate", "qwitness.estimation", "covariant_estimate"),
    ("strategies.alice_act", "qwitness.strategies", "alice_act"),
    ("strategies.bob_act", "qwitness.strategies", "bob_act"),
    ("commitment.commit", "qwitness.commitment", "commit"),
    ("commitment.sustain", "qwitness.commitment", "sustain"),
    ("commitment.unveil", "qwitness.commitment", "unveil"),
    ("spacetime.emit", "qwitness.spacetime", "Transcript.emit"),
    ("spacetime.validate", "qwitness.spacetime", "Transcript.validate"),
    ("spacetime.to_jsonl", "qwitness.spacetime", "Transcript.to_jsonl"),
    ("protocols.run_protocol", "qwitness.protocols", "run_protocol"),
    ("harness.trial_rng", "qwitness.harness", "trial_rng"),
    ("harness.run_trials_range", "qwitness.harness", "run_trials_range"),
    ("cli.main", "qwitness.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # Work figures recorded by hooks: computed flops, projector builds,
        # trials covered by run_trials_range.
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [start, child time, span index]
        self._patches: list[tuple] = []
        self.originals: dict[str, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack, spans = self._stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        cap = SPAN_CAP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, len(spans)]
            stack.append(frame)
            if len(spans) < cap:
                spans.append(None)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if frame[2] < cap:
                    spans[frame[2]] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result, duration)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every ``qwitness`` site that holds it."""
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = self.originals[name] = getattr(module, path)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qwitness" or mod_name.startswith("qwitness."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        cached = self.originals["qudit.sym_projector"]
        self.extra["sym_projector.misses"] = cached.cache_info().misses

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for the round; layers never called read 0."""
        calls, total, self_time, extra = self.calls, self.total, self.self_time, self.extra
        trials = calls["protocols.run_protocol"]

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        us = 1e6
        out = {}
        for name in ("qudit.haar_random", "qudit.PureState", "qudit.measure_binary"):
            out[f"{name}.us_per_call"] = per(total[name], calls[name], us)
            out[f"{name}.calls_per_trial"] = per(calls[name], trials)
        out["qudit.measure_binary.flops_per_call"] = per(
            extra["measure_binary.flops"], calls["qudit.measure_binary"]
        )
        for name in ("qudit.tensor_states", "qudit.measure_basis", "qudit.fidelity_sq"):
            out[f"{name}.us_per_call"] = per(total[name], calls[name], us)
        out["qudit.sym_projector.build_s"] = extra["sym_projector.build_s"]
        out["qudit.sym_projector.bytes"] = extra["sym_projector.bytes"]
        name = "estimation.covariant_estimate"
        out[f"{name}.us_per_call"] = per(total[name], calls[name], us)
        out[f"{name}.calls_per_trial"] = per(calls[name], trials)
        for name in ("strategies.alice_act", "strategies.bob_act"):
            out[f"{name}.self_us_per_call"] = per(self_time[name], calls[name], us)
        ops = [f"commitment.{op}" for op in ("commit", "sustain", "unveil")]
        op_calls = sum(calls[n] for n in ops)
        out["commitment.us_per_op"] = per(sum(total[n] for n in ops), op_calls, us)
        out["commitment.ops_per_trial"] = per(op_calls, trials)
        out["spacetime.emit.us_per_call"] = per(
            total["spacetime.emit"], calls["spacetime.emit"], us
        )
        out["spacetime.events_per_trial"] = per(calls["spacetime.emit"], trials)
        # One validate or to_jsonl call covers one trial's transcript.
        for name in ("spacetime.validate", "spacetime.to_jsonl"):
            out[f"{name}.us_per_trial"] = per(total[name], calls[name], us)
        name = "protocols.run_protocol"
        out[f"{name}.us_per_trial"] = per(total[name], trials, us)
        out[f"{name}.self_us_per_trial"] = per(self_time[name], trials, us)
        out["harness.trial_rng.us_per_call"] = per(
            total["harness.trial_rng"], calls["harness.trial_rng"], us
        )
        out["harness.run_trials_range.self_us_per_trial"] = per(
            self_time["harness.run_trials_range"], extra["run_trials_range.trials"], us
        )
        out["cli.main.self_s"] = per(self_time["cli.main"], calls["cli.main"])
        return out

    def dump(self, path: str) -> None:
        """Write the per-name totals and the kept raw spans as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "calls": self.calls,
                    "total_s": self.total,
                    "self_s": self.self_time,
                    "extra": self.extra,
                    "span_fields": ["name", "start", "end", "parent_index"],
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Hooks: work figures read from a call's arguments and result


def _measure_binary_hook(tracer: Tracer, args, result, duration: float) -> None:
    # Computed, not counted: the dense projector check P @ P costs 8 D^3 real
    # flops for complex D x D operands, applying P to the state 8 D^2.
    dim = args[1].dim
    tracer.extra["measure_binary.flops"] += 8 * dim**3 + 8 * dim**2


def _sym_projector_hook(tracer: Tracer, args, result, duration: float) -> None:
    # A call that added an entry to the lru_cache built the projector.
    misses = tracer.originals["qudit.sym_projector"].cache_info().misses
    if misses > tracer.extra["sym_projector.misses"]:
        tracer.extra["sym_projector.misses"] = misses
        tracer.extra["sym_projector.build_s"] += duration
        tracer.extra["sym_projector.bytes"] += result.matrix.nbytes


def _run_trials_range_hook(tracer: Tracer, args, result, duration: float) -> None:
    tracer.extra["run_trials_range.trials"] += args[2] - args[1]


_HOOKS = {
    "qudit.measure_binary": _measure_binary_hook,
    "qudit.sym_projector": _sym_projector_hook,
    "harness.run_trials_range": _run_trials_range_hook,
}
