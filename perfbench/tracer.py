"""Per-layer spans and counts, recorded from outside the negocc package.

``Tracer.install`` replaces every public function of the measured modules
with a timing wrapper, at every negocc module that binds it (the defining
module, importers such as ``accuracy`` binding ``log_pmf_block``, and the
package ``__init__``), and ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

Each call becomes a span (operation index, span id, parent id, name, start,
end) kept in memory.  A span's self time is its duration minus the time
covered by its child spans; a layer's self time is the sum over the spans
of its module.  Counts come from call arguments and results, so they
repeat exactly for the same operations; work counts skip calls that
raised, except the incomplete-gamma points, which the kernel evaluates
before it gives up.  Count hooks run after the span has ended, and their
time is excluded from the enclosing spans.
"""

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "accuracy", "moments", "numerics", "exact", "gamma_approx", "sampler")


class Tracer:
    def __init__(self):
        self.op = 0
        self.keep_spans = True
        self.spans = []
        self._stack = []  # [span id, child ns, name, scratch]
        self._next_id = 1
        self._patched = []
        self.self_ns = defaultdict(int)  # per layer
        self.total_ns = defaultdict(int)  # per function, inclusive
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.gamma_max_shape = 0.0
        self._mv_keys = set()

    # -- installation -----------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"negocc.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "negocc" and not mod_name.startswith("negocc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, layer, name):
        # counts for <layer>.<function> come from a method _hook_<layer>_<function>
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0, name, None]
            stack.append(frame)
            error = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                result = None
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.self_ns[layer] += duration - frame[1]
                self.total_ns[name] += duration
                self.calls[name] += 1
                if self.keep_spans:
                    self.spans.append((self.op, span_id, parent[0] if parent else 0,
                                       name, start, end))
                if hook is not None:
                    hook(frame, args, result, error)
                if parent is not None:
                    parent[1] += perf_counter_ns() - start
            return result

        return traced

    def _inside(self, name):
        return any(frame[2] == name for frame in self._stack)

    # -- count hooks ------------------------------------------------------

    def _hook_numerics_gamma_log_cdf_grid(self, frame, args, result, error):
        x = np.asarray(args[0], dtype=float)
        shape, rate = args[1], args[2]
        z = rate * x
        self.counts["gamma_points"] += x.size
        self.counts["gamma_series_points"] += int(np.count_nonzero((z > 0.0) & (z < shape + 1.0)))
        self.counts["gamma_cf_points"] += int(np.count_nonzero(z >= shape + 1.0))
        self.gamma_max_shape = max(self.gamma_max_shape, float(shape))
        if error is not None and type(error).__name__ == "ConvergenceError":
            self.counts["gamma_failures"] += 1

    def _hook_numerics_harmonic_power_sum(self, frame, args, result, error):
        if error is not None:
            return
        self.counts["harmonic_terms"] += int(args[1])

    def _hook_moments_mean_variance(self, frame, args, result, error):
        if error is not None:
            return
        p = args[0]
        self._mv_keys.add((p.m, p.k, p.theta))

    def _hook_exact_log_pmf_block(self, frame, args, result, error):
        if error is not None:
            return
        m, theta, k, tmax = args
        cells = k * (tmax + 1)
        self.counts["block_column_updates"] += cells
        if not self._inside("accuracy.rse_block"):
            # block output (pmf --block) emits every computed cell
            self.counts["block_cells_used"] += cells

    def _hook_accuracy_rse_block(self, frame, args, result, error):
        if error is not None:
            return
        self.counts["rse_cells"] += len(result)
        self.counts["block_cells_used"] += sum(r.truncation + 1 for r in result)

    def _hook_exact_log_pmf_vector(self, frame, args, result, error):
        if error is not None:
            return
        params, tmax = args[0], args[1]
        if not params.is_infinite:
            self.counts["vector_column_updates"] += params.k * (tmax + 1)

    def _hook_exact_cdf_vector(self, frame, args, result, error):
        for outer in reversed(self._stack):
            if outer[2] == "exact.quantile":
                outer[3] = (outer[3] or []) + [args[1] + 1]
                break

    def _hook_exact_quantile(self, frame, args, result, error):
        if error is not None:
            return
        points = frame[3] or []
        if points:
            self.counts["quantile_cdf_points"] += sum(points)
            self.counts["quantile_final_points"] += points[-1]

    def _hook_sampler_sample_negocc(self, frame, args, result, error):
        if error is not None:
            return
        config = args[0]
        self.counts["sampler_uniforms"] += config.n * config.params.k

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures; times in seconds, ratios 0 where undefined."""
        s = 1e-9
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        gamma_s = self.total_ns["numerics.gamma_log_cdf_grid"] * s
        sampler_s = self.total_ns["sampler.sample_negocc"] * s
        return {
            "numerics.gamma_s": gamma_s,
            "numerics.gamma_calls": self.calls["numerics.gamma_log_cdf_grid"],
            "numerics.gamma_points": c["gamma_points"],
            "numerics.gamma_us_per_point": ratio(gamma_s * 1e6, c["gamma_points"]),
            "numerics.gamma_series_points": c["gamma_series_points"],
            "numerics.gamma_cf_points": c["gamma_cf_points"],
            "numerics.gamma_max_shape": self.gamma_max_shape,
            "numerics.gamma_failures": c["gamma_failures"],
            "numerics.harmonic_s": self.total_ns["numerics.harmonic_power_sum"] * s,
            "numerics.harmonic_calls": self.calls["numerics.harmonic_power_sum"],
            "numerics.harmonic_terms": c["harmonic_terms"],
            "numerics.self_s": self.self_ns["numerics"] * s,
            "moments.mean_variance_s": self.total_ns["moments.mean_variance"] * s,
            "moments.mean_variance_calls": self.calls["moments.mean_variance"],
            "moments.mean_variance_reuse": ratio(self.calls["moments.mean_variance"],
                                                 len(self._mv_keys)),
            "moments.summary_s": self.total_ns["moments.moment_summary"] * s,
            "moments.self_s": self.self_ns["moments"] * s,
            "exact.block_s": self.total_ns["exact.log_pmf_block"] * s,
            "exact.block_column_updates": c["block_column_updates"],
            "exact.block_bytes": 8 * c["block_column_updates"],
            "exact.block_useful_fraction": ratio(c["block_cells_used"],
                                                 c["block_column_updates"]),
            "exact.vector_s": self.total_ns["exact.log_pmf_vector"] * s,
            "exact.vector_column_updates": c["vector_column_updates"],
            "exact.quantile_recompute_ratio": ratio(c["quantile_cdf_points"],
                                                    c["quantile_final_points"]),
            "exact.self_s": self.self_ns["exact"] * s,
            "gamma_approx.self_s": self.self_ns["gamma_approx"] * s,
            "gamma_approx.calls": self.calls["gamma_approx.approx_log_pmf"],
            "accuracy.self_s": self.self_ns["accuracy"] * s,
            "accuracy.truncation_s": self.total_ns["accuracy.truncation_point"] * s,
            "accuracy.rse_s": self.total_ns["accuracy.rse"] * s,
            "accuracy.cells": c["rse_cells"],
            "sampler.s": sampler_s,
            "sampler.uniforms": c["sampler_uniforms"],
            "sampler.ns_per_uniform": ratio(sampler_s * 1e9, c["sampler_uniforms"]),
            "cli.self_s": self.self_ns["cli"] * s,
        }

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")
