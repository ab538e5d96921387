"""Per-layer tracing of the coposim pipeline from outside the package.

While installed, a ``Tracer`` replaces each public function named in
``LAYERS`` by a timing wrapper in every loaded coposim module that refers to
it, so calls the package makes internally (``reconstruct`` calling
``remap_to_sphere``, ``locate_and_sync`` calling ``locate_anchor``) are seen
too.  A span's self time is its duration minus the durations of the wrapped
calls it made.  Counts are read from the sizes of the values the wrapped
functions return.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "scenario": ("build_scene",),
    "waveform": ("validate_scene",),
    "channel": ("simulate_signature", "simulate_sfcw"),
    "sync": ("measure_pdoa", "initial_guess", "locate_anchor", "estimate_clock"),
    "imaging": ("sample_aperture", "forward_2d_spectrum", "remap_to_sphere",
                "inverse_3d_spectrum", "detect_peaks"),
    "combining": ("group_by_clock", "search_theta_ref", "fuse_clouds", "combine_cluster"),
    "analysis": ("hausdorff",),
}

# Counts taken from a wrapped call's arguments and result, keyed by the call.
OBSERVERS = {
    "imaging.remap_to_sphere": lambda args, out: {"imaging.spectrum_bins": out.values.size},
    "imaging.inverse_3d_spectrum": lambda args, out: {"imaging.voxels": out.voxels.size,
                                                      "imaging.voxel_bytes": out.voxels.nbytes},
    "imaging.detect_peaks": lambda args, out: {"imaging.peaks": len(out)},
    "combining.group_by_clock": lambda args, out: {"combining.clusters": len(out)},
    "combining.combine_cluster": lambda args, out: {"combining.primary_size": len(args[0])},
    "combining.fuse_clouds": lambda args, out: {"combining.fused_points": len(out)},
    "sync.locate_anchor": lambda args, out: {"sync.gn_iterations": out.iterations,
                                             "sync.not_converged": int(not out.converged)},
    "sync.estimate_clock": lambda args, out: {"sync.sigma_hat_s": out},
}


class Tracer:
    """Self time per wrapped function and the counts observed at its boundary."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.observed: dict[str, list] = defaultdict(list)
        self._open: list[float] = []   # time spent in wrapped children, per open span

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self.self_s[name] += duration - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
            if observe is not None:
                for key, value in observe(args, out).items():
                    self.observed[key].append(value)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in ``LAYERS`` for the duration of the block."""
        patches = []
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"coposim.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in [m for n, m in sys.modules.items()
                               if n == "coposim" or n.startswith("coposim.")]:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)
