"""Per-layer tracing of channel-forge from outside the package.

A :class:`Tracer` wraps the public functions the benchmark reports on. A
module that did ``from .linalg import uhlmann_fidelity`` holds its own
reference, so each function is replaced at every channel_forge module
attribute bound to it, not only where it is defined; methods are replaced on
their class. Open spans form a stack: when a span closes, its duration is
added to its parent's child time, so a layer's self time (duration minus the
time of wrapped calls made inside it) and counts of calls nested inside
another layer are exact. Leaving the ``with`` block restores every original
attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (layer name, module, attribute or Class.attribute)
TARGETS = (
    ("tailor.building_block_optimize", "channel_forge.tailor", "building_block_optimize"),
    ("tailor.decode", "channel_forge.tailor", "CPTPParameterization.decode"),
    ("tailor.optimize_block_pair_mixture", "channel_forge.tailor", "optimize_block_pair_mixture"),
    ("linalg.uhlmann_fidelity", "channel_forge.linalg", "uhlmann_fidelity"),
    ("channels.compose", "channel_forge.channels", "compose"),
    ("channels.from_kraus", "channel_forge.channels", "Channel.from_kraus"),
    ("channels.superop", "channel_forge.channels", "Channel.superop"),
    ("circuits.extract_channel", "channel_forge.circuits", "extract_channel"),
    ("noise.apply_noise_model", "channel_forge.noise", "apply_noise_model"),
    ("channels.from_choi", "channel_forge.channels", "Channel.from_choi"),
    ("channels.validate_cptp", "channel_forge.channels", "validate_cptp"),
    ("channels.choi_fidelity", "channel_forge.channels", "choi_fidelity"),
    ("tailor.theta_tailor", "channel_forge.tailor", "theta_tailor"),
    ("tailor.full_circuit_tailor", "channel_forge.tailor", "full_circuit_tailor"),
    ("tailor.blackbox_optimize", "channel_forge.tailor", "blackbox_optimize"),
    ("engine.apply_unitary", "channel_forge.engine", "StateEngine.apply_unitary"),
    ("engine.apply_channel", "channel_forge.engine", "StateEngine.apply_channel"),
    ("engine.measure", "channel_forge.engine", "StateEngine.measure"),
    ("engine.apply_conditional_unitary", "channel_forge.engine",
     "StateEngine.apply_conditional_unitary"),
    ("engine.trace_out", "channel_forge.engine", "StateEngine.trace_out"),
    ("engine.reduced_state", "channel_forge.engine", "StateEngine.reduced_state"),
    ("circuits.circuit_from_dict", "channel_forge.circuits", "circuit_from_dict"),
    ("circuits.simulate_detailed", "channel_forge.circuits", "simulate_detailed"),
    ("netsim.scenario_from_dict", "channel_forge.netsim", "scenario_from_dict"),
    ("netsim.run_scenario", "channel_forge.netsim", "run_scenario"),
    ("figures.fig5a_rows", "channel_forge.figures", "fig5a_rows"),
    ("figures.fig5b_rows", "channel_forge.figures", "fig5b_rows"),
    ("figures.fig6a_rows", "channel_forge.figures", "fig6a_rows"),
    ("figures.fig6b_rows", "channel_forge.figures", "fig6b_rows"),
    ("cli.main", "channel_forge.cli", "main"),
)

# (outer, inner): calls of inner made while outer is open
NESTED = (
    ("tailor.building_block_optimize", "linalg.uhlmann_fidelity"),
    ("tailor.theta_tailor", "circuits.extract_channel"),
)

# Layers each workload must reach; a traced run that records no call to one
# of them fails, so a refactor cannot drop a layer from the benchmark.
WORKLOAD_LAYERS = {
    "tailor-sweep": (
        "figures.fig5a_rows", "figures.fig5b_rows", "tailor.building_block_optimize",
        "tailor.decode", "tailor.optimize_block_pair_mixture", "linalg.uhlmann_fidelity",
        "channels.compose", "channels.from_kraus", "channels.superop", "cli.main"),
    "circuit-tailor": (
        "figures.fig6a_rows", "figures.fig6b_rows", "circuits.extract_channel",
        "noise.apply_noise_model", "channels.from_choi", "channels.validate_cptp",
        "channels.choi_fidelity", "tailor.theta_tailor", "tailor.full_circuit_tailor",
        "tailor.blackbox_optimize", "engine.apply_unitary", "engine.apply_channel", "cli.main"),
    "dense-sim": (
        "engine.apply_unitary", "engine.apply_channel", "circuits.circuit_from_dict",
        "circuits.simulate_detailed", "cli.main"),
    "netsim-repeater": (
        "engine.apply_unitary", "engine.apply_channel", "engine.measure",
        "engine.apply_conditional_unitary", "engine.trace_out", "engine.reduced_state",
        "netsim.scenario_from_dict", "netsim.run_scenario", "cli.main"),
}

_PACKAGE = "channel_forge"


def lookup_sites(module: str, path: str) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, original) through which ``module.path`` is reached.

    A method is reached through its class; the raw class-dict entry is kept
    so a classmethod is restored as a classmethod. A function is reached
    through every loaded channel_forge module that binds it, under any name.
    """
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        return [(cls, attr, cls.__dict__[attr])]
    original = getattr(mod, path)
    sites = []
    for name, m in sorted(sys.modules.items()):
        if m is None or not (name == _PACKAGE or name.startswith(_PACKAGE + ".")):
            continue
        sites.extend((m, key, value) for key, value in vars(m).items() if value is original)
    return sites


class Tracer:
    """Span stack, per-layer totals and the engine/tailor counters."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.totals = {name: [0, 0.0, 0.0] for name in self.names}  # calls, s, self_s
        self.nested = Counter()
        self._inner_of = {}
        for outer, inner in NESTED:
            self._inner_of.setdefault(inner, []).append(outer)
        self._open = Counter()  # open spans per layer
        self._stack = []  # child time of each open span
        self.branches_peak = 0
        self.state_bytes_peak = 0
        self.bbo_results = 0
        self.bbo_search_wins = 0
        self.theta_evals_reported = 0
        self._patches = []
        for name, module, path in TARGETS:
            sites = lookup_sites(module, path)
            raw = sites[0][2]
            after = self._after_hook(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, after))
            else:
                wrapped = self._wrap(name, raw, after)
            self._patches.extend((owner, attr, raw, wrapped) for owner, attr, _ in sites)

    def _after_hook(self, name: str):
        if name.startswith("engine."):
            return self._after_engine
        if name == "tailor.building_block_optimize":
            return self._after_bbo
        if name == "tailor.theta_tailor":
            return self._after_theta
        return None

    def _after_engine(self, args, result) -> None:
        branches = args[0].branches
        self.branches_peak = max(self.branches_peak, len(branches))
        self.state_bytes_peak = max(self.state_bytes_peak, sum(b.rho.nbytes for b in branches))

    def _after_bbo(self, args, result) -> None:
        self.bbo_results += 1
        if not result.details.get("candidate"):
            self.bbo_search_wins += 1

    def _after_theta(self, args, result) -> None:
        self.theta_evals_reported += result.evaluations

    def _wrap(self, name, fn, after):
        totals = self.totals[name]
        stack = self._stack
        open_spans = self._open
        outers = self._inner_of.get(name, ())
        nested = self.nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_spans[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[name] -= 1
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                for outer in outers:
                    if open_spans[outer]:
                        nested[outer, name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)

    def calls(self, name: str) -> int:
        return self.totals[name][0]

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in self.names:
            calls, incl, self_s = self.totals[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (incl, "s")
            # cli.self_s: parsing and serialization, main minus its wrapped children
            out["cli.self_s" if name == "cli.main" else f"{name}.self_s"] = (self_s, "s")
        bbo = self.calls("tailor.building_block_optimize")
        out["tailor.evals_per_call"] = (
            self.nested["tailor.building_block_optimize", "linalg.uhlmann_fidelity"] / bbo
            if bbo else 0.0, "count")
        out["tailor.search_win_ratio"] = (
            self.bbo_search_wins / self.bbo_results if self.bbo_results else 0.0, "ratio")
        out["tailor.theta_tailor.evals_reported"] = (self.theta_evals_reported, "count")
        out["tailor.theta_tailor.evals_counted"] = (
            self.nested["tailor.theta_tailor", "circuits.extract_channel"], "count")
        out["engine.branches_peak"] = (self.branches_peak, "count")
        out["engine.state_bytes_peak"] = (self.state_bytes_peak, "bytes_computed")
        return out
