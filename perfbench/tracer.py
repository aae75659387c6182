"""Outside-in span tracer for the traced repetition.

Each layer is a package function, wrapped at every module binding its callers
use (``observer.advance_profile`` as well as ``plant.advance_profile``).  A
wrapper records one span per call: layer, start, end and the span that was
open when it started.  Spans stay in memory until the repetition ends; a
layer's self time is its span durations minus the time its direct child spans
cover.

A binding that no longer exists is reported as missing instead of failing the
run, so a later change that renames or removes a function still gets a trace
of the layers that remain; a layer none of whose bindings exist reads 0.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, bindings it is called through, per-step layer?).  Per-step layers
# are normalised by solver steps; the others by scenario runs.
LAYERS = [
    ("plant.step_plant", ["plant.step_plant"], True),
    ("plant.advance_profile",
     ["plant.advance_profile", "observer.advance_profile"], True),
    ("numerics.solve_tridiagonal", ["plant.solve_tridiagonal"], True),
    ("observer.step_observer", ["observer.step_observer"], True),
    ("observer.error_norms", ["observer.error_norms"], True),
    ("diagnostics.transform_error_inverse",
     ["diagnostics.transform_error_inverse"], True),
    ("diagnostics.transform_controller_direct",
     ["diagnostics.transform_controller_direct"], True),
    ("diagnostics._volterra_weights", ["diagnostics._volterra_weights"], True),
    ("diagnostics.lyapunov_values", ["diagnostics.lyapunov_values"], True),
    ("trigger.deviation", ["trigger.deviation"], True),
    ("trigger.check_event", ["trigger.check_event"], True),
    ("trigger.step_m", ["trigger.step_m"], True),
    ("control.integral_u_hat", ["control.integral_u_hat"], True),
    ("control.zoh_update", ["control.zoh_update"], True),
    ("harness.run_scenario", ["harness.run_scenario"], False),
    ("harness.emit_outputs", ["harness.emit_outputs"], False),
    ("params.derive_trigger", ["params.derive_trigger"], False),
    ("params.compute_upsilon", ["params.compute_upsilon"], False),
    ("params.compute_f_max", ["params.compute_f_max"], False),
    ("params.validate_initial_data", ["params.validate_initial_data"], False),
    ("config.parse_config_text",
     ["config.parse_config_text", "cli.parse_config_text"], False),
    ("cli.cmd_sweep", ["cli.cmd_sweep"], False),
]


class Tracer:
    """Context manager that wraps the layers on entry and restores them on exit."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[tuple[int, int, int, int]] = []
        self.missing: dict[str, str] = {}   # binding -> why it was not wrapped
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_id, start, end, parent)
        return traced

    def __enter__(self):
        for layer_id, (_, bindings, _) in enumerate(self.layers):
            for binding in bindings:
                module_name, attr = binding.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"stefanetc.{module_name}")
                except ImportError as exc:
                    self.missing[binding] = str(exc)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing[binding] = "no such function"
                    continue
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer_id, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()
        return False

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                  for name, _, _ in self.layers}
        for index, (layer_id, start, end, _) in enumerate(self.spans):
            entry = totals[self.layers[layer_id][0]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[index]) * 1e-9
        return totals
