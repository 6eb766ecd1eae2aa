"""Spans around the library's public functions, installed from outside.

A traced pass replaces the module attributes that the harness and the
recovery code look up (``nfcs.harness.sample_channel``,
``nfcs.recovery.synthesize_channel``, ``BlockOMP.fit``, ...) with wrappers
that record one span per call: name, start, end and parent span. Every
module of the package that holds a reference to the wrapped function gets
the wrapper, so calls through any import path are seen. Nothing inside the
library changes; ``uninstall`` puts the original objects back.

A target that no longer exists (a function removed or renamed) is reported
as absent with a note, and its metrics read zero, instead of failing the run.
"""

import functools
import importlib
import sys
import time

# span name -> (module, qualified name). Names follow "<module>.<function>".
TARGETS = {
    "harness.run": ("nfcs.harness", "run"),
    "harness.emit": ("nfcs.harness", "emit"),
    "recovery.make_problem": ("nfcs.recovery", "make_problem"),
    "recovery.gen_pilots": ("nfcs.recovery", "gen_pilots"),
    "recovery.BlockOMP.fit": ("nfcs.recovery", "BlockOMP.fit"),
    "geometry.sample_channel": ("nfcs.geometry", "sample_channel"),
    "geometry.synthesize_channel": ("nfcs.geometry", "synthesize_channel"),
    "seeding.rng_from": ("nfcs.seeding", "rng_from"),
    "dictionaries.analyze": ("nfcs.dictionaries", "analyze"),
    "dictionaries.inverse_transform": ("nfcs.dictionaries", "Dictionary.inverse_transform"),
    "dictionaries.build_dmu": ("nfcs.dictionaries", "build_dmu"),
    "dictionaries.build_dft": ("nfcs.dictionaries", "build_dft"),
    "dictionaries.build_polar_baseline": ("nfcs.dictionaries", "build_polar_baseline"),
    "dictionaries.mutual_coherence": ("nfcs.dictionaries", "mutual_coherence"),
    "coherence.sparsity_bound": ("nfcs.coherence", "sparsity_bound"),
    "coherence._exact_magnitudes": ("nfcs.coherence", "_exact_magnitudes"),
    "coherence._approx_magnitudes": ("nfcs.coherence", "_approx_magnitudes"),
    "harness._fast_analysis_fractions": ("nfcs.harness", "_fast_analysis_fractions"),
    "block_rip.empirical_rip_probe": ("nfcs.block_rip", "empirical_rip_probe"),
}

FIT = "recovery.BlockOMP.fit"


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Records spans of the wrapped calls of one pass at a time.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in call order;
    ``fit_iters`` sums ``n_iter_`` over the BlockOMP fits of the pass.
    """

    def __init__(self):
        self.spans = []
        self.fit_iters = 0
        self.notes = []
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.fit_iters = 0

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == FIT:
                self.fit_iters += getattr(result, "n_iter_", 0)
            return result

        return traced

    def install(self):
        """Wrap every target; a target that is gone gets a note in ``notes``."""
        for name, (module_name, qualname) in TARGETS.items():
            found = _resolve(module_name, qualname)
            if found is None:
                self.notes.append(f"{name}: {module_name}.{qualname} not found; reported as 0")
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "nfcs" or mod_name.startswith("nfcs.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds of one pass.

    Self time is a span's duration minus the time its direct child spans
    cover (children of a single-threaded call nest strictly inside it).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return {name: {"calls": c, "busy_s": b, "self_s": s} for name, (c, b, s) in out.items()}
