"""Per-layer tracing from outside the program.

Each traced function is named `<module>.<function>` after the fsocdma
module that defines it.  `install` wraps the function and rebinds every
fsocdma module attribute that refers to it, so callers that imported the
name (`from .phylink import draw_slot`) and callers that look it up at
call time both reach the wrapper.  The program's source is not touched.

Spans are kept as aggregates in memory: calls, total time and self time
(the span's duration minus the time covered by its child spans).  A
function missing from its module, for example one a later change
removed, is reported as absent with zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = (
    "cli.main",
    "montecarlo.estimate_ber",
    "montecarlo.derive_sensing",
    "phylink.draw_slot",
    "phylink.transmit_block",
    "orthocodes.embed",
    "orthocodes.build",
    "ber_analysis.average_pe",
    "ber_analysis.pe_of_counts",
    "sensing.solve_threshold",
    "sensing.pd_rayleigh",
    "sensing.pfa",
)


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, total, self
        self.counts = {
            "phylink.capacity_errors": 0,
            "montecarlo.slots": 0,
            "montecarlo.bits": 0,
            "montecarlo.errors": 0,
            "montecarlo.cap_stops": 0,
            "montecarlo.infeasible_slots": 0,
        }
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._build_cache = None
        self._build_misses_at_install = 0

    def _wrap(self, name, fn, on_result=None, on_error=None):
        agg = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_capacity_error(self, exc):
        if type(exc).__name__ == "CapacityError":
            self.counts["phylink.capacity_errors"] += 1

    def _count_point(self, args, point):
        cfg = args[0]
        c = self.counts
        c["montecarlo.slots"] += point.trials // cfg.params.bits_per_slot
        c["montecarlo.bits"] += point.trials
        c["montecarlo.errors"] += point.errors
        c["montecarlo.cap_stops"] += int(point.trials >= cfg.max_trials)
        c["montecarlo.infeasible_slots"] += getattr(point, "infeasible_slots", 0)

    def install(self):
        """Wrap every traced function at all of its lookup sites."""
        hooks = {
            "phylink.draw_slot": {"on_error": self._count_capacity_error},
            "phylink.transmit_block": {"on_error": self._count_capacity_error},
            "montecarlo.estimate_ber": {"on_result": self._count_point},
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fsocdma" or n.startswith("fsocdma."))]
        for name in TRACED:
            module_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"fsocdma.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if name == "orthocodes.build" and hasattr(original, "cache_info"):
                self._build_cache = original
                self._build_misses_at_install = original.cache_info().misses
            wrapper = self._wrap(name, original, **hooks.get(name, {}))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer values (calls, self_s, total_s per span, plus counts)."""
        out: dict[str, float] = {}
        for name, (calls, total, self_time) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_time
            out[f"{name}.total_s"] = total
        if self._build_cache is not None:
            misses = self._build_cache.cache_info().misses - self._build_misses_at_install
        else:
            misses = self.spans["orthocodes.build"][0]
        out["orthocodes.build.misses"] = misses
        out.update(self.counts)
        return out
