"""Run the tclsv CLI with its layers wrapped in spans and counters.

    python3 perfbench/tracer.py SPANS.json run --manifest ... --out ...

Each wrapped public function records one span per call (name, start, end,
parent) and bumps counters measured at the same boundary.  Everything is kept
in memory and written to SPANS.json when the CLI returns; run.py turns it into
per-layer metrics.  Wrapping is done by replacing module attributes, including
the names ``tclsv.pipeline`` imported from ``tclsv.frontend``, so the program
itself is not modified.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time
from pathlib import Path

from tclsv import cli, frontend, gmm, labeling, metrics, network, pca, pipeline, storage

STAGES = ("extract_features", "make_labels", "train_dnn", "extract_bn",
          "train_ubm", "enroll", "score", "evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.ubms: list = []  # kept alive so their ids are not reused
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the main thread is in.
        return self._main_stack[-1] if self._main_stack else -1

    def inside(self, name: str) -> bool:
        i = self._parent(self._stack())
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][3]
        return False

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, after=None, also=(), span=True) -> None:
        """Replace ``module.attr`` (and the same name in each of ``also``).

        Every call bumps ``<name>.calls``; with ``span`` it also records a
        span.  ``after(args, kwargs, result)`` updates counters once the call
        returns.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                tracer.count(f"{name}.calls")
                if after:
                    after(args, kwargs, result)
                return result
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter(), None, tracer._parent(stack)])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer.spans[index][2] = time.perf_counter()
                tracer.count(f"{name}.calls")

        for target in (module, *also):
            setattr(target, attr, wrapper)


def _gemm_macs(params) -> int:
    """Multiply-adds per input row for one pass through every layer and head."""
    arch = params.arch
    dims = [arch.input_dim, *arch.hidden_layers]
    return sum(a * b for a, b in zip(dims[:-1], dims[1:])) + dims[-1] * sum(k for _, k in arch.output_heads)


def install(tracer: Tracer) -> None:
    t = tracer

    def stage_done(stage):
        def after(args, kwargs, result):
            t.counters[f"pipeline.{stage}.rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return after

    for stage in STAGES:
        t.wrap(pipeline, f"run_{stage}", f"pipeline.{stage}", after=stage_done(stage))

    def vad(args, kwargs, result):
        t.count("frontend.frames_in", args[0].num_frames)
        t.count("frontend.frames_out", result.num_frames)

    t.wrap(frontend, "apply_vad", "frontend.apply_vad", after=vad, span=False)
    t.wrap(frontend, "extract_features", "frontend.extract_features", also=(pipeline,))
    t.wrap(frontend, "read_wav", "frontend.read_wav", also=(pipeline,))

    t.wrap(labeling, "label_utterances", "labeling.label_utterances",
           after=lambda a, k, r: t.count("labeling.frames_labeled", len(r.labels)))

    # GEMM flops: forward is one multiply per layer, backward two more
    # (weight gradient and the delta passed down), each 2*m*n*k.
    def forward_flops(args, kwargs, result):
        if t.inside("network.train"):
            rows = result.head_log_posteriors[0].shape[0]
            t.count("network.train.flop", 2 * rows * _gemm_macs(args[0]))

    def backward_flops(args, kwargs, result):
        if t.inside("network.train"):
            t.count("network.train.flop", 4 * len(args[1].inputs) * _gemm_macs(args[0]))

    t.wrap(network, "train", "network.train")
    t.wrap(network, "forward", "network.forward", after=forward_flops)
    t.wrap(network, "backward", "network.backward", after=backward_flops)
    t.wrap(network, "extract_deep_features", "network.extract_deep_features")
    t.wrap(network, "stack_context", "network.stack_context",
           after=lambda a, k, r: t.count("network.stack_context.bytes", r.nbytes))

    t.wrap(pca, "fit_pca", "pca.fit_pca")
    t.wrap(pca, "project", "pca.project")

    def ubm_evals(args, kwargs, result):
        if any(args[0] is ubm for ubm in t.ubms):
            t.count("gmm.ubm_evals")

    t.wrap(gmm, "init_gmm", "gmm.init_gmm")
    t.wrap(gmm, "em_step", "gmm.em_step")
    t.wrap(gmm, "map_adapt", "gmm.map_adapt")
    t.wrap(gmm, "score_llr", "gmm.score_llr")
    t.wrap(gmm, "log_likelihoods", "gmm.log_likelihoods", after=ubm_evals, span=False)
    t.count("gmm.ubm_evals", 0)

    t.wrap(metrics, "evaluate", "metrics.evaluate")
    t.wrap(metrics, "write_scores", "metrics.write_scores")

    def read_bytes(args, kwargs, result):
        t.count("storage.bytes_read", Path(args[0]).stat().st_size)

    def read_feature(args, kwargs, result):
        read_bytes(args, kwargs, result)
        t.count("storage.feature_reads")

    def read_gmm(args, kwargs, result):
        read_bytes(args, kwargs, result)
        if Path(args[0]).name == "ubm.tclg":
            t.ubms.append(result)

    t.wrap(storage, "read_feature_archive", "storage.read", after=read_feature)
    t.wrap(storage, "read_gmm", "storage.read", after=read_gmm)
    t.wrap(storage, "read_network", "storage.read", after=read_bytes)
    t.wrap(storage, "read_pca", "storage.read", after=read_bytes)
    for attr in ("write_feature_archive", "write_gmm", "write_network", "write_pca"):
        t.wrap(storage, attr, "storage.write")
    t.wrap(storage, "atomic_write_bytes", "storage.write",
           after=lambda a, k, r: t.count("storage.bytes_written", len(a[1])))


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
