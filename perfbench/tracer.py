"""Per-layer tracing of kaczlab from outside the package.

The tracer wraps named public functions in every ``kaczlab.*`` namespace
that binds them (``cli`` and ``noise_avg`` import ``lifted`` functions by
name, so patching ``kaczlab.lifted`` alone would miss those calls) and
restores the originals afterwards. Each wrapped function gets an aggregate
of calls, cumulative seconds and self seconds (cumulative minus the time
spent in wrapped children). Functions outside HOT also record one span per
call: (id, name, start, end, parent id). Hot leaves are called up to
hundreds of thousands of times per run, so they are kept as aggregates only.
Everything stays in memory until ``dump``.

The call stack is a plain list, so the tracer assumes calls arrive from one
thread; the benchmark runs ``kaczlab run`` with its default of one thread.
"""

import functools
import importlib
import json
import sys
import time

# (module, function) pairs wrapped in a traced run; ``cli.main`` is the root.
TARGETS = (
    ("cli", "main"),
    ("cli", "run_experiment"),
    ("rka", "monte_carlo_mse"),
    ("rka", "run_trial"),
    ("rka", "sample_rows"),
    ("kernels", "run_trial_errors"),
    ("seeding", "mix_seed"),
    ("problems", "gen_gaussian"),
    ("problems", "gen_tomography"),
    ("problems", "make_measurements"),
    ("problems", "load_vector"),
    ("lifted", "apply_P"),
    ("lifted", "apply_Q"),
    ("lifted", "apply_D"),
    ("lifted", "exact_mse_curve"),
    ("lifted", "limiting_mse"),
    ("lifted", "solve_v1"),
    ("lifted", "solve_v2"),
    ("lifted", "lambda_max_P"),
    ("lifted", "lambda_max_Q"),
    ("noise_avg", "g_apply"),
    ("noise_avg", "avg_mse_curve"),
    ("noise_avg", "expected_v1"),
    ("noise_avg", "avg_limiting_mse"),
    ("bounds", "condition_numbers"),
    ("bounds", "sv_bound_curve"),
    ("bounds", "zf_bound_curve"),
    ("bounds", "zf_general_bound_curve"),
    ("bounds", "zf_avg_bound_curve"),
)

HOT = frozenset({
    "rka.run_trial",
    "rka.sample_rows",
    "kernels.run_trial_errors",
    "seeding.mix_seed",
    "problems.make_measurements",
    "lifted.apply_P",
    "lifted.apply_Q",
    "lifted.apply_D",
    "noise_avg.g_apply",
})


def kaczlab_modules():
    """Every imported ``kaczlab`` module, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kaczlab" or name.startswith("kaczlab."))]


class Tracer:
    """Wraps TARGETS on ``install`` and puts the originals back on ``restore``."""

    def __init__(self):
        self.stats = {}     # "module.fn" -> [calls, cumulative s, self s]
        self.spans = []     # [id, name, start, end, parent id or None]
        self.absent = []    # targets this version of kaczlab does not define
        self._stack = []    # one [child seconds, span id or None] per active call
        self._patched = []  # (module object, attribute, original)

    def install(self):
        importlib.import_module("kaczlab.cli")   # binds every submodule
        modules = kaczlab_modules()
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            try:
                original = getattr(importlib.import_module(f"kaczlab.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name, fn):
        stat = self.stats[name] = [0, 0.0, 0.0]
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep_span = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if keep_span:
                frame[1] = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span = [frame[1], name, 0.0, 0.0, parent]
                spans.append(span)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    span[2], span[3] = t0, t1

        return wrapper

    def dump(self, path, run_id):
        """Write the aggregates and spans of this trace as one JSON file."""
        doc = {
            "run_id": run_id,
            "absent": self.absent,
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
