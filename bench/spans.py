"""Span tracer for the benchmark's traced passes.

Wrappers are installed from the benchmark's own files around the public
functions of each layer. The modules bind imported names directly
(``rates`` calls its own ``gamma_prime``, ``cli`` its own ``run_sweep``),
so each wrapper replaces the name in the module that calls it, and
:meth:`Tracer.restore` puts every original back. The one private function
wrapped is ``oracle._triple_sum``, so that ``oracle.grid_points`` counts
the grids the oracle really sums rather than a copy of its grid rule.

A span is ``(name, start, end, parent, amount)``: ``parent`` indexes the
enclosing span (-1 at top level) and ``amount`` is the work count the
span carries (rows, points, cells), 0 where none applies. Spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from triphoton import cli, coherence, oracle, rates, spectra

_now = time.perf_counter


def _transform_path(density, method: str) -> str:
    # the path is decided by the density kind and the method argument; a
    # kind that overrides analytic_transform has a closed form
    has_closed_form = (type(density).analytic_transform
                       is not spectra.SpectralDensity.analytic_transform)
    if method != "quadrature" and has_closed_form:
        return "coherence.transform_1d.closed_form"
    return "coherence.transform_1d.quadrature"


def _gamma_prime_kind(pm, *args, **kwargs) -> str:
    kind = "tabulated2d" if isinstance(pm, spectra.Tabulated2D) else "separable"
    return f"coherence.gamma_prime.{kind}"


def _sum_points(source, delays, cfg) -> int:
    return cfg.n_pump * cfg.n_prime * cfg.n_dprime


def _surface_cells(pm, grid_prime, grid_dprime, *args, **kwargs) -> int:
    return int(np.size(grid_prime) * np.size(grid_dprime))


class Tracer:
    """Records spans for every wrapped call between install() and restore()."""

    def __init__(self):
        self.spans: list = []
        self.transform_keys: set = set()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, label=None, amount_in=None, amount_out=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[index] = (label(*args, **kwargs) if label else name,
                                start, end, parent, 0)
            if amount_in is not None or amount_out is not None:
                amount = (amount_in(*args, **kwargs) if amount_in is not None
                          else amount_out(result))
                spans[index] = spans[index][:4] + (amount,)
            return result

        return traced

    def _patch(self, owner, attr, name, **how):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **how))

    def _transform_label(self, density, delay, method="auto"):
        self.transform_keys.add((id(density), float(delay)))
        return _transform_path(density, method)

    def install(self) -> "Tracer":
        p = self._patch
        p(cli, "parse_config", "cli.parse_config")
        p(cli, "run_sweep_cmd", "cli.run_sweep_cmd")
        p(cli, "run_validate_cmd", "cli.run_validate_cmd")
        p(cli, "run_sweep", "experiments.run_sweep", amount_out=len)
        p(cli, "extract_fringe_metrics", "experiments.extract")
        p(cli, "extract_dip_profile", "experiments.extract")
        p(cli, "factorization_error_sweep", "oracle.factorization_error_sweep")
        p(oracle, "factorization_error_sweep", "oracle.factorization_error_sweep")
        for module in (rates, oracle):
            p(module, "rate_time", "rates.rate_time")
            p(module, "carrier_omegas", "pathgeom.carrier_omegas")
        p(rates, "gamma_prime", None, label=_gamma_prime_kind)
        p(coherence, "transform_1d", None, label=self._transform_label)
        p(coherence, "coherence_surface", "coherence.coherence_surface",
          amount_in=_surface_cells)
        p(oracle, "interference_term_3d", "oracle.interference_term_3d")
        # the grid points are counted from the config each tensor sum receives
        p(oracle, "_triple_sum", "oracle.triple_sum", amount_in=_sum_points)
        for cls in (spectra.Gaussian, spectra.Lorentzian, spectra.SincSquared,
                    spectra.Tabulated, spectra.Tabulated2D):
            p(cls, "evaluate", "spectra.evaluate", amount_out=np.size)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, summed amount.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        for i, (name, start, end, _, amount) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["amount"] += amount
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, amount) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start_s": start - t0, "end_s": end - t0,
                                    "amount": amount}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced pass yields (names as in BENCHMARK.json)."""
    t = tracer.totals()

    def get(name, field):
        return t[name][field] if name in t else 0

    closed = "coherence.transform_1d.closed_form"
    quad = "coherence.transform_1d.quadrature"
    transforms = get(closed, "calls") + get(quad, "calls")
    oracle_s = get("oracle.interference_term_3d", "s")
    grid_points = get("oracle.triple_sum", "amount")
    return {
        "cli.parse_config.s": get("cli.parse_config", "s"),
        "cli.run_sweep_cmd.self_s": get("cli.run_sweep_cmd", "self_s"),
        "cli.run_validate_cmd.self_s": get("cli.run_validate_cmd", "self_s"),
        "experiments.run_sweep.rows": get("experiments.run_sweep", "amount"),
        "experiments.run_sweep.self_s": get("experiments.run_sweep", "self_s"),
        "experiments.extract.s": get("experiments.extract", "s"),
        "rates.rate_time.calls": get("rates.rate_time", "calls"),
        "rates.rate_time.self_s": get("rates.rate_time", "self_s"),
        "pathgeom.carrier_omegas.calls": get("pathgeom.carrier_omegas", "calls"),
        "pathgeom.carrier_omegas.s": get("pathgeom.carrier_omegas", "s"),
        f"{closed}.calls": get(closed, "calls"),
        f"{closed}.s": get(closed, "s"),
        f"{quad}.calls": get(quad, "calls"),
        f"{quad}.s": get(quad, "s"),
        "coherence.transform_1d.distinct_ratio":
            len(tracer.transform_keys) / transforms if transforms else 0.0,
        "spectra.evaluate.calls": get("spectra.evaluate", "calls"),
        "spectra.evaluate.points": get("spectra.evaluate", "amount"),
        "spectra.evaluate.s": get("spectra.evaluate", "s"),
        "coherence.gamma_prime.tabulated2d.calls":
            get("coherence.gamma_prime.tabulated2d", "calls"),
        "coherence.gamma_prime.tabulated2d.s":
            get("coherence.gamma_prime.tabulated2d", "s"),
        "coherence.coherence_surface.cells": get("coherence.coherence_surface", "amount"),
        "coherence.coherence_surface.s": get("coherence.coherence_surface", "s"),
        "oracle.factorization_error_sweep.self_s":
            get("oracle.factorization_error_sweep", "self_s"),
        "oracle.interference_term_3d.calls": get("oracle.interference_term_3d", "calls"),
        "oracle.interference_term_3d.s": oracle_s,
        "oracle.grid_points": grid_points,
        "oracle.points_per_s": grid_points / oracle_s if oracle_s else 0.0,
    }
