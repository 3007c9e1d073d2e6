"""Outside-in layer trace for the wassfilter benchmark.

Spans are recorded from the benchmark's own files by swapping the public
functions a caller looks up at call time (module attributes) for timing
wrappers. Nothing inside the package changes. Each span keeps its name,
start, end, parent span and the id of the unit of work (member run or
update) it belongs to. Spans stay in memory until :meth:`Tracer.dump`.

Deterministic work counts are read from the calls' own arguments and
results: EM diagnostics come from calling ``fit_gmm_em(..., details=True)``
inside the wrapper and returning only the mixture, nGSF counts from the
returned solution. Counts derived from array sizes are labelled computed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Wrapped function name -> layer it belongs to.
LAYER_OF = {
    "integrate_rk4": "propagation.rk4",
    "propagate_cloud": "propagation.rk4",
    "fit_gmm_em": "propagation.em",
    "gsf_update": "gsf",
    "kalman_gains": "kalman",
    "ngsf_solve": "ngsf",
    "apply_ngsf_solution": "ngsf",
    "sample_mixture": "gaussian.resample",
    "emit_outputs": "harness.emit",
    "run_experiment": "harness",
    "monte_carlo_compare": "harness",
    # The update-sweep loop's own call; its self time is the glue between
    # the GSF and nGSF calls.
    "update": "harness",
}

# Spans that open a new unit id: one per member run or per update.
UNIT_SPANS = ("run_experiment", "update")

# The functions ``wassfilter.harness`` imports and calls by module-global
# name, plus its own entry points; patching them there covers the pipeline.
HARNESS_NAMES = ("propagate_cloud", "integrate_rk4", "fit_gmm_em", "gsf_update",
                 "ngsf_solve", "apply_ngsf_solution", "sample_mixture",
                 "emit_outputs", "run_experiment", "monte_carlo_compare")


class Tracer:
    """In-memory span recorder plus per-layer work counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, unit)
        self.counts: dict = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._unit = 0
        self._next_unit = 0
        self._patched: list[tuple] = []

    # -- span recording -------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name in UNIT_SPANS:
            self._next_unit += 1
            self._unit = self._next_unit
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._unit)

    def patch(self, module, name: str, count=None):
        """Replace ``module.name`` with a spanning wrapper; ``count``, if
        given, is called with ``(args, result)`` after each traced call."""
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if count is not None and self.enabled:
                count(args, result)
            return result

        setattr(module, name, wrapper)
        self._patched.append((module, name, original))

    def unpatch(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- derived numbers ------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_times(self) -> dict:
        """Per layer: calls, busy (outermost spans of that layer), self time."""
        busy: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        own: dict = defaultdict(float)
        self_t = self.self_times()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = LAYER_OF.get(name, name)
            calls[layer] += 1
            own[layer] += self_t[i]
            parent_layer = None
            if parent >= 0:
                parent_layer = LAYER_OF.get(self.spans[parent][0], self.spans[parent][0])
            if parent_layer != layer:
                busy[layer] += end - start
        return {"calls": calls, "busy": busy, "self": own}

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


def install(tracer: Tracer, wf, pipeline: bool) -> None:
    """Patch the package's public functions with spanning wrappers.

    ``pipeline`` patches the names ``wassfilter.harness`` calls; otherwise
    the update functions are patched in their own modules, which is where
    the update-sweep loop looks them up.
    """
    import numpy as np

    counts = tracer.counts

    # The harness passes every argument these hooks read positionally.
    def rk4_cloud(args, result):
        cloud, model, duration = args[:3]
        steps = int(round(duration / model.dt))
        counts["rk4.particle_substeps"] += np.shape(cloud)[0] * steps

    def rk4_truth(args, result):
        x0, _, _, steps = args[:4]
        counts["rk4.particle_substeps"] += (np.size(x0) // 2) * steps

    original_em = wf.harness.fit_gmm_em

    def em_details(cloud, config, rng=None, details=False):
        # Asks for the diagnostics the harness discards; same draws, same fit.
        if not tracer.enabled:
            return original_em(cloud, config, rng, details)
        mixture, diag = original_em(cloud, config, rng, details=True)
        n_points = np.shape(cloud)[0]
        iters = len(diag.log_likelihoods)
        counts["em.fits"] += 1
        counts["em.iterations"] += iters
        counts["em.max_iter_hits"] += iters >= config.max_iters
        counts["em.reseeds"] += diag.reseeds
        counts["em.loglik_per_point_sum"] += diag.final_log_likelihood / n_points
        counts["em.point_component_iters"] += (n_points * config.n_components
                                               * iters * config.restarts)
        return (mixture, diag) if details else mixture

    def ngsf(args, result):
        # The solver stops either converged or at its iteration cap.
        converged = bool(getattr(result, "converged", True))
        counts["ngsf.solves"] += 1
        counts["ngsf.iterations"] += getattr(result, "iterations", 0)
        counts["ngsf.converged"] += converged
        counts["ngsf.max_iter_hits"] += not converged

    def resample(args, result):
        counts["resample.points_drawn"] += int(np.shape(result)[0])

    def emit(args, result):
        counts["emit.files"] += len(result)
        counts["emit.bytes"] += sum(p.stat().st_size for p in result)

    tracer.patch(wf.gsf, "kalman_gains")
    if pipeline:
        h = wf.harness
        hooks = {"propagate_cloud": rk4_cloud, "integrate_rk4": rk4_truth,
                 "ngsf_solve": ngsf, "sample_mixture": resample, "emit_outputs": emit}
        # The details wrapper goes in first so the span wrapper encloses it.
        h.fit_gmm_em = em_details
        tracer._patched.append((h, "fit_gmm_em", original_em))
        for name in HARNESS_NAMES:
            tracer.patch(h, name, hooks.get(name))
    else:
        tracer.patch(wf.gsf, "gsf_update")
        tracer.patch(wf.ngsf, "ngsf_solve", ngsf)
        tracer.patch(wf.ngsf, "apply_ngsf_solution")
