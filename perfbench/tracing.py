"""Per-layer spans recorded from outside the package.

`Tracer.installed()` replaces public functions and methods of `fdiab` with
timing wrappers at the name the caller looks up (a function bound by
`from ... import` is replaced in the importing module) and restores them on
exit. Each call records a span (name, start, end, parent); spans stay in
memory and are reduced to self time and call count per name afterwards.
Wrappers only reach the calling process, so a traced sweep runs in-process.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counters = {"link.subcarriers_evaluated": 0, "link.regularized_subcarriers": 0,
                         "channel.svd_core_mb": 0.0}
        self._stack: list[int] = []

    def targets(self):
        """(owner, attribute, span name, hook) per wrapped callee; the name of
        `run_trial` spans carries the experiment."""
        from fdiab import channel, harness, scenario
        access, backhaul = scenario.AccessLinkDesign, scenario.BackhaulLinkDesign
        path = channel.PathChannel
        return [
            (harness, "run_trial", "harness.run_trial", None),
            (harness, "write_csv", "harness.write_csv", None),
            (harness, "draw_realization", "scenario.draw_realization", None),
            (access, "__init__", "scenario.AccessLinkDesign", None),
            (backhaul, "__init__", "scenario.BackhaulLinkDesign", None),
            (access, "evaluate", "scenario.AccessLinkDesign.evaluate", None),
            (backhaul, "evaluate", "scenario.BackhaulLinkDesign.evaluate", None),
            (harness, "full_digital_backhaul_se", "scenario.full_digital_backhaul_se", None),
            (path, "__init__", "channel.PathChannel.init", None),
            (channel, "near_field_los", "channel.near_field_los", None),
            (path, "covariance_factors", "channel.PathChannel.covariance_factors", None),
            (path, "effective", "channel.PathChannel.effective", None),
            (channel.SiChannelParts, "effective", "channel.SiChannelParts.effective", None),
            (path, "subcarrier_singular_values",
             "channel.PathChannel.subcarrier_singular_values", self._count_svd_core),
            (scenario, "top_eigvecs_factored", "transceiver.top_eigvecs_factored", None),
            (scenario, "bb_svd", "transceiver.bb_svd", None),
            (scenario, "zf_bb_precoder", "transceiver.zf_bb_precoder", None),
            (scenario, "mmse_bb_combiner", "transceiver.mmse_bb_combiner", None),
            (scenario, "normalize_power", "transceiver.normalize_power", None),
            (scenario, "se_backhaul", "link.se_backhaul", self._count_se_result),
            (scenario, "se_access", "link.se_access", self._count_se_result),
        ]

    def span_names(self) -> list[str]:
        from fdiab.config import EXPERIMENTS
        names = []
        for _, _, name, _ in self.targets():
            if name == "harness.run_trial":
                names += [f"{name}.{experiment}" for experiment in EXPERIMENTS]
            else:
                names.append(name)
        return names

    def _count_svd_core(self, result, args):
        # the path-space core that subcarrier_singular_values decomposes: K x P x P complex
        path_channel = args[0]
        paths = path_channel.weights.shape[0]
        core_mb = path_channel.num_subcarriers * paths * paths * 16 / 1e6
        self.counters["channel.svd_core_mb"] = max(self.counters["channel.svd_core_mb"],
                                                   core_mb)

    def _count_se_result(self, result, args):
        self.counters["link.subcarriers_evaluated"] += len(result.per_subcarrier)
        self.counters["link.regularized_subcarriers"] += result.regularized_subcarriers

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # run_trial(cfg, scenario, experiment, trial)
            span_name = f"{name}.{args[2]}" if name == "harness.run_trial" else name
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((span_name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(result, args)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self.targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Self time (span minus its child spans) and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(self.span_names(), (0.0, 0))
        for (name, start, end, _), children in zip(self.spans, child_time):
            total, calls = out[name]
            out[name] = (total + (end - start) - children, calls + 1)
        return out

    def trial_time(self) -> float:
        """Summed duration of the run_trial spans."""
        return sum(end - start for name, start, end, _ in self.spans
                   if name.startswith("harness.run_trial."))

    def remainder(self, start: float, end: float) -> float:
        """Time in [start, end] covered by no span, from the gaps between root spans."""
        roots = sorted((s, e) for _, s, e, parent in self.spans if parent is None)
        gap, cursor = 0.0, start
        for root_start, root_end in roots:
            if root_start < cursor:
                raise ValueError(f"root spans overlap at {root_start - start:.6f} s")
            gap += root_start - cursor
            cursor = root_end
        return gap + (end - cursor)
