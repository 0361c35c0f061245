"""Spans around lodeg's module boundaries, recorded from outside the package.

``Tracer.install`` wraps every public function of ``cli``, ``invariants``,
``randomness``, ``conormal`` and ``groebner`` (and ``VarietySpec.define``)
in its defining module, and rebinds every ``lodeg`` module attribute that
still names the original, so calls through ``from .groebner import
buchberger`` are traced too.  Nothing under ``src/`` is edited.

``poly`` is not wrapped: its public surface is the hot arithmetic of
``Polynomial``, and wrapping it would distort the numbers.  Its cost shows
up in the self time of the ``conormal`` and ``groebner`` spans.

Spans are kept in memory as ``[name, parent index, start, end]`` and
reduced to per-layer metrics (inclusive time ``.s``, self time ``.self_s``,
``.calls``) when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("cli", "invariants", "randomness", "conormal", "groebner")
COUNTERS = (
    "randomness.grid_evals",
    "randomness.retries",
    "randomness.degenerate_draws",
    "groebner.unit_ideals",
    "groebner.quotient_dim_sum",
    "groebner.quotient_dim_max",
    "groebner.buchberger.basis_len_max",
    "groebner.buchberger.basis_deg_max",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.names: set[str] = {"randomness.grid_eval"}

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable[[Any], None] | None = None) -> Callable:
        self.names.add(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _after_buchberger(self, gb) -> None:
        self.maxima["groebner.buchberger.basis_len_max"] = max(
            self.maxima["groebner.buchberger.basis_len_max"], len(gb.basis)
        )
        degree = max((g.total_degree() for g in gb.basis), default=0)
        self.maxima["groebner.buchberger.basis_deg_max"] = max(
            self.maxima["groebner.buchberger.basis_deg_max"], degree
        )
        if gb.is_unit():
            self.counts["groebner.unit_ideals"] += 1

    def _after_quotient_basis(self, qb) -> None:
        dim = len(qb)
        self.counts["groebner.quotient_dim_sum"] += dim
        self.maxima["groebner.quotient_dim_max"] = max(
            self.maxima["groebner.quotient_dim_max"], dim
        )

    def _hook_agreed_value(self, fn: Callable) -> Callable:
        """Count the grid behind each agreed value by wrapping the
        ``computation`` callable handed to it."""
        from lodeg.conormal import DegenerateSlice
        from lodeg.groebner import NotZeroDimensional
        from lodeg.randomness import derive_seed

        signature = inspect.signature(fn)
        counts = self.counts

        def agreed_value(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seed, policy = bound.arguments["seed"], bound.arguments["policy"]
            computation = bound.arguments["computation"]
            per = policy.seeds_per_trial
            attempt_of = {
                derive_seed(seed, a * per + s): a
                for a in range(policy.max_retries + 1)
                for s in range(per)
            }
            attempts: set[int] = set()

            def grid_eval(child: int, prime: int) -> int:
                counts["randomness.grid_evals"] += 1
                attempts.add(attempt_of.get(child, -1))
                try:
                    return computation(child, prime)
                except (NotZeroDimensional, DegenerateSlice):
                    counts["randomness.degenerate_draws"] += 1
                    raise

            bound.arguments["computation"] = self.wrap("randomness.grid_eval", grid_eval)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                counts["randomness.retries"] += max(len(attempts) - 1, 0)

        return agreed_value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and rebind every reference to them."""
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lodeg.{layer}")
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                target = obj
                if (layer, name) == ("randomness", "agreed_value"):
                    target = self._hook_agreed_value(obj)
                after = {
                    ("groebner", "buchberger"): self._after_buchberger,
                    ("groebner", "quotient_basis"): self._after_quotient_basis,
                }.get((layer, name))
                wrappers[id(obj)] = self.wrap(f"{layer}.{name}", target, after)
        for module in _lodeg_modules():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)
        from lodeg.conormal import VarietySpec

        define = VarietySpec.__dict__["define"]
        self._restore.append((VarietySpec, "define", define))
        VarietySpec.define = staticmethod(
            self.wrap("conormal.VarietySpec.define", define.__func__)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass inclusive and self times, call counts and counters.

        A span nested inside a span of the same name adds to neither
        ``.s`` nor ``.calls`` of that name, so recursion is not counted
        twice.  Maxima are over the whole traced run.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for index, (name, parent, start, end) in enumerate(self.spans):
            self_time = end - start - child_time[index]
            own[name] += self_time
            layer_own[name.split(".", 1)[0]] += self_time
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                inclusive[name] += end - start
                calls[name] += 1
        # Every installed boundary reads 0 when this run never crossed it.
        out: dict[str, float] = {
            f"{name}{suffix}": 0.0
            for name in self.names
            for suffix in (".s", ".self_s", ".calls")
        }
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out.update({name: 0.0 for name in COUNTERS})
        for name, total in inclusive.items():
            out[f"{name}.s"] = total / passes
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = own[name] / passes
        for layer, total in layer_own.items():
            out[f"{layer}.self_s"] = total / passes
        for name, total in self.counts.items():
            out[name] = total / passes
        out.update(self.maxima)
        values = out.get("randomness.agreed_value.calls", 0.0)
        out["randomness.grid_evals_per_value"] = (
            out.get("randomness.grid_evals", 0.0) / values if values else 0.0
        )
        return out

    def span_records(self) -> list[dict[str, Any]]:
        return [
            {"name": name, "parent": parent, "start": start, "end": end}
            for name, parent, start, end in self.spans
        ]


def _lodeg_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "lodeg" or name.startswith("lodeg."))
    ]
