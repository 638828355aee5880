"""Per-layer timing from outside the program.

The traced run times each training-side layer by wrapping that layer's
public entry points for the duration of a ``with`` block, and each
serving-side layer from the span trees ``POST /query {"trace": true}``
returns.  Nothing under ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from benchutil import mean


class LayerTimer:
    """Accumulates wall seconds and call counts per layer name.

    Return values are kept only for the layers whose metrics are computed
    from them (:data:`RECORDED`).
    """

    RECORDED = frozenset({"blocking.block", "features.extract", "selectors.select"})

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)

    @contextmanager
    def section(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start
            self.calls[name] += 1

    @contextmanager
    def wrapping(self, targets):
        """Patch ``(owner, attribute, layer)`` targets with timed wrappers.

        Only the outermost call of a layer is timed, so a method that calls
        itself (or a wrapped base method) is not counted twice.  Every patch
        is undone on exit, also when the block raises.
        """
        undo = []
        try:
            for owner, attribute, layer in targets:
                undo.append((owner, attribute, owner.__dict__.get(attribute)))
                setattr(owner, attribute, self._timed(getattr(owner, attribute), layer))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                if original is None:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    def _timed(self, function, layer: str):
        depth = [0]

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if depth[0]:
                return function(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self.seconds[layer] += perf_counter() - start
                self.calls[layer] += 1
                depth[0] -= 1
            if layer in self.RECORDED:
                self.results[layer].append(result)
            return result

        return timed


def training_targets():
    """The public calls of the training-side layers, by layer name."""
    import repro.core.loop as loop_module
    from repro.blocking.base import Blocker
    from repro.features import FeatureExtractor
    from repro.learners import RandomForest
    from repro.selectors import TreeQBCSelector

    return [
        (Blocker, "block", "blocking.block"),
        (FeatureExtractor, "extract", "features.extract"),
        (RandomForest, "fit", "learners.fit"),
        (TreeQBCSelector, "select", "selectors.select"),
        (loop_module, "predict_chunked", "core.evaluate"),
        (loop_module, "evaluate_predictions", "core.evaluate"),
        (loop_module.ActiveLearningLoop, "run", "core.run"),
    ]


def training_metrics(timer: LayerTimer) -> dict:
    """Training-side per-layer metrics from a timer that wrapped
    :func:`training_targets` around a pipeline fit."""
    seconds, calls = timer.seconds, timer.calls
    iterations = calls["learners.fit"]
    candidates = sum(len(result.pairs) for result in timer.results["blocking.block"])
    extracted = sum(len(matrix.matrix) for matrix in timer.results["features.extract"])
    selections = timer.results["selectors.select"]

    def per_iteration_ms(layer: str) -> float:
        return seconds[layer] / iterations * 1000.0 if iterations else 0.0

    loop_self = (
        seconds["core.run"]
        - seconds["learners.fit"]
        - seconds["selectors.select"]
        - seconds["core.evaluate"]
    )
    return {
        "blocking.block_s": seconds["blocking.block"],
        "blocking.candidates": candidates,
        "features.extract_s": seconds["features.extract"],
        "features.pairs_per_s": (
            extracted / seconds["features.extract"] if extracted else 0.0
        ),
        "learners.fit_ms": per_iteration_ms("learners.fit"),
        "selectors.select_ms": (
            seconds["selectors.select"] / len(selections) * 1000.0 if selections else 0.0
        ),
        "selectors.committee_ms": mean(
            result.committee_creation_time * 1000.0 for result in selections
        ),
        "selectors.scoring_ms": mean(result.scoring_time * 1000.0 for result in selections),
        "core.evaluate_ms": per_iteration_ms("core.evaluate"),
        "core.loop_self_ms": loop_self / iterations * 1000.0 if iterations else 0.0,
    }


# --------------------------------------------------------------- span trees
def _self_ms(node: dict) -> float:
    return node["wall_ms"] - sum(child["wall_ms"] for child in node.get("children", ()))


def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def span_metrics(traces: list[dict]) -> dict:
    """Serving-side per-layer metrics: mean per-query self times and
    annotations of the ``request`` span trees of traced queries."""
    totals: dict[str, float] = defaultdict(float)
    meta: Counter = Counter()
    for trace in traces:
        for node in _walk(trace):
            totals[node["name"]] += _self_ms(node)
            for key, value in node.get("meta", {}).items():
                meta[f"{node['name']}.{key}"] += value
    queries = len(traces) or 1
    collisions = meta["query.block.collisions"]
    candidates = meta["query.verify.candidates"]
    return {
        "index.block_ms": totals["query.block"] / queries,
        "index.verify_ms": totals["query.verify"] / queries,
        "index.score_ms": totals["query.score"] / queries,
        "index.collisions_per_query": collisions / queries,
        "index.candidates_per_query": candidates / queries,
        "index.verify_keep_ratio": candidates / collisions if collisions else 0.0,
        "scoring.extract_ms": (
            totals["cascade.extract"] + totals["cascade.stage_a"] + totals["cascade.stage_c"]
        ) / queries,
        "scoring.predict_ms": totals["cascade.predict"] / queries,
        "scoring.stage_a_ms": totals["cascade.stage_a"] / queries,
        "scoring.stage_b_ms": totals["cascade.stage_b"] / queries,
        "scoring.stage_c_ms": totals["cascade.stage_c"] / queries,
    }
