"""Per-layer timing spans, attached to marketlab from outside.

``Tracer.install`` replaces the layer entry points of ``marketlab`` with
wrappers that open a span around each call; ``Tracer.uninstall`` puts the
originals back.  A module-level function is replaced under every name that
refers to it in any ``marketlab`` module, so callers that imported it by name
(``harness.solve_market``, ``strategic.scale_bid``, ...) see the wrapper too.
Methods are replaced on their class.

Spans are aggregated in memory per layer (calls, self time, total time)
rather than kept one by one: ``scale_bid`` alone opens about two million
spans in one ``wal_sweep`` pass.  Self time is a span's duration minus the
time its child spans cover.  A call into a layer made from inside the same
layer (``prices`` calling ``welfare`` on one oracle, ``check_price_bracket``
calling ``check_price_floor``) belongs to the outer span and is not counted
again.
"""

from __future__ import annotations

import statistics
import sys
import weakref
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter_ns

FAMILIES = ("cobb_douglas", "linear", "ces")

# Every per-layer metric a traced run reports, with its unit and direction.
PER_LAYER = (
    ("valuations.scale_bid.calls", "count", "lower"),
    ("valuations.scale_bid.self_s", "s", "lower"),
    ("strategic.GameContext.stats.calls", "count", "lower"),
    ("strategic.GameContext.stats.misses", "count", "lower"),
    ("strategic.GameContext.stats.hit_ratio", "ratio", "higher"),
    ("strategic.GameContext.stats.self_s", "s", "lower"),
    ("strategic.GameContext.best_response.calls", "count", "lower"),
    ("strategic.GameContext.best_response.ns_per_op", "ns", "lower"),
    ("strategic.GameContext.certify.calls", "count", "lower"),
    ("strategic.GameContext.certify.self_s", "s", "lower"),
    ("strategic.run_learning.rounds", "count", "lower"),
    ("strategic.run_learning.s_per_round", "s", "lower"),
    ("strategic.run_learning.engine_calls", "count", "lower"),
    ("walrasian.WelfareOracle.calls", "count", "lower"),
    ("walrasian.WelfareOracle.self_s", "s", "lower"),
    ("walrasian.query.slots.calls", "count", "lower"),
    ("walrasian.query.slots.self_s", "s", "lower"),
    ("walrasian.query.assignment.calls", "count", "lower"),
    ("walrasian.query.assignment.self_s", "s", "lower"),
    ("walrasian.run_mechanism.calls", "count", "lower"),
    ("walrasian.run_mechanism.self_s", "s", "lower"),
    ("walrasian.validate_outcome.calls", "count", "lower"),
    ("walrasian.validate_outcome.self_s", "s", "lower"),
    ("sensitivity.probe.calls", "count", "lower"),
    ("sensitivity.probe.self_s", "s", "lower"),
    ("strategic.check_lemma.calls", "count", "lower"),
    ("strategic.check_lemma.self_s", "s", "lower"),
    ("harness.audit_assumptions.calls", "count", "lower"),
    ("harness.audit_assumptions.self_s", "s", "lower"),
    ("harness.run_config.self_s", "s", "lower"),
    *(
        (f"fisher.solve_market.{fam}.{stat}", unit, "lower")
        for fam in FAMILIES
        for stat, unit in (
            ("calls", "count"), ("self_s", "s"), ("iters_median", "count"),
            ("iters_max", "count"), ("errors", "count"),
        )
    ),
    ("fisher.strategic_outcome.calls", "count", "lower"),
    ("fisher.strategic_outcome.ns_per_op", "ns", "lower"),
    ("fisher.run_market_learning.rounds", "count", "lower"),
    ("fisher.run_market_learning.s_per_round", "s", "lower"),
    ("setup.import.scipy_stats_s", "s", "lower"),
    ("setup.import.scipy_optimize_s", "s", "lower"),
    ("setup.import.numpy_s", "s", "lower"),
    ("setup.import.marketlab_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


class Tracer:
    """Aggregated spans for one traced pass over a workload."""

    def __init__(self):
        self.stack: list = []  # open spans: [layer, nanoseconds covered by children]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.iterations: dict = defaultdict(list)
        self._seen = weakref.WeakKeyDictionary()  # GameContext -> profiles evaluated
        self._modes = weakref.WeakKeyDictionary()  # WelfareOracle -> query path
        self._patches: list = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, fn, layer, after=None):
        """``fn`` inside a span named ``layer`` (a string, or a function of the
        call's arguments); ``after(args, kwargs, result)`` runs on success."""
        stack, calls, errors = self.stack, self.calls, self.errors
        self_ns, total_ns = self.self_ns, self.total_ns
        fixed = layer if isinstance(layer, str) else None

        @wraps(fn)
        def traced(*args, **kwargs):
            name = fixed or layer(args, kwargs)
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                total_ns[name] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- layer-specific counts ----------------------------------------------------

    def _stats_after(self, args, kwargs, result):
        ctx, profile = args[0], tuple(args[1])
        seen = self._seen.get(ctx)
        if seen is None:
            seen = self._seen[ctx] = set()
        if profile not in seen:
            seen.add(profile)
            self.counts["stats_misses"] += 1

    def _learning_after(self, args, kwargs, result):
        self.counts["learning_rounds"] += result.rounds

    def _market_learning_after(self, args, kwargs, result):
        self.counts["market_learning_rounds"] += result.rounds

    def _mechanism_after(self, args, kwargs, result):
        if any(frame[0] == "strategic.run_learning" for frame in self.stack):
            self.counts["learning_engine_calls"] += 1

    def _solve_after(self, args, kwargs, result):
        self.iterations[self._solve_layer(args, kwargs)].append(result.iterations)

    def _solve_layer(self, args, kwargs) -> str:
        """Span name of a solve_market call: the utility family of the reports."""
        market = args[0] if args else kwargs["market"]
        reports = args[1] if len(args) > 1 else kwargs.get("reports")
        reports = market.utilities if reports is None else reports
        cobb_douglas, linear = self._families
        if all(isinstance(u, cobb_douglas) for u in reports):
            return "fisher.solve_market.cobb_douglas"
        if all(isinstance(u, linear) for u in reports):
            return "fisher.solve_market.linear"
        return "fisher.solve_market.ces"

    def _oracle_mode(self, oracle) -> str:
        """Query path of a WelfareOracle, classified from its bid types."""
        matroid = all(isinstance(b, self._matroid) for b in oracle.bids)
        if matroid and oracle.m == 1:
            return "slots"
        return "assignment" if matroid else "dp"

    def _oracle_after(self, args, kwargs, result):
        self._modes[args[0]] = self._oracle_mode(args[0])

    def _query_layer(self, args, kwargs):
        oracle = args[0]
        mode = self._modes.get(oracle)
        if mode is None:
            mode = self._modes[oracle] = self._oracle_mode(oracle)
        return "walrasian.query." + mode

    # -- patching ---------------------------------------------------------------

    def install(self):
        import marketlab.fisher as fisher
        import marketlab.harness as harness
        import marketlab.sensitivity as sensitivity
        import marketlab.strategic as strategic
        import marketlab.valuations as valuations
        import marketlab.walrasian as walrasian

        self._families = (valuations.CobbDouglas, valuations.Linear)
        self._matroid = (valuations.UnitDemand, valuations.KDemand)
        functions = [
            (valuations.scale_bid, "valuations.scale_bid", None),
            (strategic.run_learning, "strategic.run_learning", self._learning_after),
            (strategic.check_price_floor, "strategic.check_lemma", None),
            (strategic.check_price_bracket, "strategic.check_lemma", None),
            (strategic.check_smooth_bound, "strategic.check_lemma", None),
            (walrasian.run_mechanism, "walrasian.run_mechanism", self._mechanism_after),
            (walrasian.validate_outcome, "walrasian.validate_outcome", None),
            (sensitivity.is_unstable, "sensitivity.probe", None),
            (sensitivity.is_unstable_within, "sensitivity.probe", None),
            (sensitivity.count_unstable_slice, "sensitivity.probe", None),
            (sensitivity.unstable_event_probability, "sensitivity.probe", None),
            (harness.audit_assumptions, "harness.audit_assumptions", None),
            (harness.run_config, "harness.run_config", None),
            (fisher.solve_market, self._solve_layer, self._solve_after),
            (fisher.strategic_outcome, "fisher.strategic_outcome", None),
            (fisher.run_market_learning, "fisher.run_market_learning", self._market_learning_after),
        ]
        ctx, oracle = strategic.GameContext, walrasian.WelfareOracle
        methods = [
            (ctx, "stats", "strategic.GameContext.stats", self._stats_after),
            (ctx, "best_response", "strategic.GameContext.best_response", None),
            (ctx, "certify", "strategic.GameContext.certify", None),
            (oracle, "__init__", "walrasian.WelfareOracle", self._oracle_after),
            *(
                (oracle, name, self._query_layer, None)
                for name in ("welfare", "english", "dutch", "prices", "allocation")
            ),
        ]
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "marketlab" or n.startswith("marketlab.")
        ]
        for fn, layer, after in functions:
            traced = self.wrap(fn, layer, after)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, traced)
        for cls, name, layer, after in methods:
            fn = cls.__dict__[name]
            self._patches.append((cls, name, fn))
            setattr(cls, name, self.wrap(fn, layer, after))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this pass (setup and overhead are added by the caller)."""
        out = {}

        def span(layer):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9

        def per_op(layer):
            calls = self.calls[layer]
            out[f"{layer}.calls"] = calls
            out[f"{layer}.ns_per_op"] = self.self_ns[layer] / calls if calls else 0.0

        span("valuations.scale_bid")
        span("strategic.GameContext.stats")
        calls, misses = self.calls["strategic.GameContext.stats"], self.counts["stats_misses"]
        out["strategic.GameContext.stats.misses"] = misses
        out["strategic.GameContext.stats.hit_ratio"] = 1.0 - misses / calls if calls else 0.0
        per_op("strategic.GameContext.best_response")
        span("strategic.GameContext.certify")
        rounds = self.counts["learning_rounds"]
        out["strategic.run_learning.rounds"] = rounds
        out["strategic.run_learning.s_per_round"] = (
            self.total_ns["strategic.run_learning"] / 1e9 / rounds if rounds else 0.0
        )
        out["strategic.run_learning.engine_calls"] = self.counts["learning_engine_calls"]
        for layer in (
            "walrasian.WelfareOracle", "walrasian.query.slots", "walrasian.query.assignment",
            "walrasian.run_mechanism", "walrasian.validate_outcome", "sensitivity.probe",
            "strategic.check_lemma", "harness.audit_assumptions",
        ):
            span(layer)
        out["harness.run_config.self_s"] = self.self_ns["harness.run_config"] / 1e9
        for fam in FAMILIES:
            layer = f"fisher.solve_market.{fam}"
            span(layer)
            iters = self.iterations[layer]
            out[f"{layer}.iters_median"] = statistics.median(iters) if iters else 0
            out[f"{layer}.iters_max"] = max(iters) if iters else 0
            out[f"{layer}.errors"] = self.errors[layer]
        per_op("fisher.strategic_outcome")
        rounds = self.counts["market_learning_rounds"]
        out["fisher.run_market_learning.rounds"] = rounds
        out["fisher.run_market_learning.s_per_round"] = (
            self.total_ns["fisher.run_market_learning"] / 1e9 / rounds if rounds else 0.0
        )
        return out

