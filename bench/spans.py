"""Spans and counts recorded around the calls into each layer of statehelper.

Tracing is installed from outside the program: `install` replaces each
layer's public names in the module namespace where its caller looks them up
(for example `cli.run_match` or `game_core.linprog`) by a wrapper that
records one span per call.  Untraced rounds never call `install`, so they run
the program's own, unwrapped functions.

A span is (id, parent id, name, start, end).  Spans stay in memory for the
whole round; `Tracer.dump` writes them out once the round has ended.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name).  The module is given relative to the
# statehelper package; a dotted attribute patches a method on a class.
WRAP_POINTS = (
    ("cli", "load_game", "files.load"),
    ("cli", "load_scheme", "files.load"),
    ("files", "load_game", "files.load"),
    ("files", "load_scheme", "files.load"),
    ("cli", "game_value", "game_core.game_value"),
    ("game_core", "linprog", "game_core.linprog"),
    ("game_core", "min_payoff_given_observation", "game_core.min_payoff"),
    ("rate_value", "min_payoff_given_observation", "game_core.min_payoff"),
    ("rate_value", "mutual_information", "info_measures.mi"),
    ("rate_value", "conditional_mutual_information", "info_measures.mi"),
    ("info_measures", "mutual_information", "info_measures.mi"),
    ("info_measures", "minimize", "info_measures.lbfgs"),
    ("cli", "wyner_common_information", "info_measures.common_info"),
    ("rate_value", "scheme_statistics", "rate_value.stats"),
    ("rate_value", "minimize", "rate_value.nelder_mead"),
    ("cli", "optimize_bound", "rate_value.optimize"),
    ("cli", "run_match", "simulator.run_match"),
    ("simulator", "typicality_log_prob", "simulator.typicality"),
    ("simulator", "build_codebook", "simulator.codebook"),
    ("simulator", "encode", "simulator.encode"),
    ("simulator", "decode_actions", "simulator.decode_actions"),
    ("simulator", "solve_matrix_game", "simulator.lp"),
    ("simulator", "ExactDecoderAdversary.act", "simulator.decoder_act"),
    ("simulator", "ExactDecoderAdversary.observe", "simulator.decoder_observe"),
)


class Tracer:
    """In-memory span recorder with per-name totals and self times."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []  # (id, parent, name index, start_ns, end_ns)
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self._stack = []  # [span id, start_ns, ns covered by child spans]
        self.simulated_trials = 0

    def _index(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, fn, name):
        index = self._index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            frame = [span_id, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += duration
                self.spans.append((span_id, parent[0] if parent else -1,
                                   index, frame[1], end))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + duration
                self.self_ns[name] = (self.self_ns.get(name, 0)
                                      + duration - frame[2])

        return traced

    def install(self, package):
        """Wrap every entry of WRAP_POINTS inside the imported package."""
        import importlib
        for module_name, attr, span in WRAP_POINTS:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), span))
        # the trial count is read from each match's configuration
        cli = importlib.import_module(f"{package.__name__}.cli")
        traced_match = cli.run_match

        def counting_match(game, scheme, rate, config):
            self.simulated_trials += config.trials
            return traced_match(game, scheme, rate, config)

        cli.run_match = counting_match

    def seconds(self, name, self_time=False):
        table = self.self_ns if self_time else self.total_ns
        return table.get(name, 0) / 1e9

    def count(self, name):
        return self.calls.get(name, 0)

    def layer_metrics(self):
        """Per-layer figures for one round, keyed by BENCHMARK.json name."""
        typicality = self.count("simulator.typicality")
        # every materialized trial builds exactly one codebook; the rest
        # took the virtual paths
        virtual_trials = self.simulated_trials - self.count("simulator.codebook")
        return {
            "game_core.lp_solves": self.count("game_core.linprog"),
            "game_core.lp_s": self.seconds("game_core.linprog"),
            "game_core.game_value_s": self.seconds("game_core.game_value"),
            "game_core.min_payoff_calls": self.count("game_core.min_payoff"),
            "game_core.min_payoff_s": self.seconds("game_core.min_payoff"),
            "info_measures.mi_calls": self.count("info_measures.mi"),
            "info_measures.mi_s": self.seconds("info_measures.mi"),
            "info_measures.common_info_s":
                self.seconds("info_measures.common_info"),
            "info_measures.lbfgs_runs": self.count("info_measures.lbfgs"),
            "rate_value.stats_calls": self.count("rate_value.stats"),
            "rate_value.stats_s": self.seconds("rate_value.stats"),
            "rate_value.nm_runs": self.count("rate_value.nelder_mead"),
            "rate_value.optimize_s": self.seconds("rate_value.optimize"),
            "simulator.trials": self.simulated_trials,
            "simulator.self_s": self.seconds("simulator.run_match", True),
            "simulator.typicality_calls": typicality,
            "simulator.typicality_s": self.seconds("simulator.typicality"),
            "simulator.first_pass_ratio":
                virtual_trials / typicality if typicality else 0.0,
            "simulator.codebook_s": self.seconds("simulator.codebook"),
            "simulator.encode_s": self.seconds("simulator.encode"),
            "simulator.decoder_steps": self.count("simulator.decoder_act"),
            "simulator.decoder_step_s": (self.seconds("simulator.decoder_act")
                                         + self.seconds("simulator.decoder_observe")),
            "simulator.decode_actions_s":
                self.seconds("simulator.decode_actions"),
            "simulator.lp_solves": self.count("simulator.lp"),
            "files.load_s": self.seconds("files.load"),
        }

    def dump(self, path):
        """Write the names and spans (times in ns from the first span)."""
        spans = sorted(self.spans)  # by id, which is the order of starts
        origin = spans[0][3] if spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": [[i, p, n, s - origin, e - origin]
                                 for i, p, n, s, e in spans]}, fh)
