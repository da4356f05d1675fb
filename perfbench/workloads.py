"""The benchmark's workloads and the correctness gates on their outputs.

Every workload is a closed loop driven by one caller in one process: the
next operation starts only when the previous one has returned. Inputs come
from `mqar.generate` seeded with the run's seed; basedlab sees only token
arrays and configs. Only public entry points are called: `model.build`,
`model.train_mqar`, `HybridModel.forward`, `HybridModel.start_decode` /
`DecodeState.step`, `mqar.generate` and the `analysis` formulas.
"""

from __future__ import annotations

import math
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from basedlab import BasedLabError, analysis
from basedlab import baseconv as bc
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab import mqar as mq
from basedlab import sliding_window as sw
from basedlab import tensor as T

import tracing

D_MODEL = 64
D_PRIME = 16
SETUP_BEFORE = SETUP_AFTER = 2  # set-up samples taken before and after measuring
SETUP_EVERY_S = 1.5  # and, between train segments and decode rounds, one at most this often
PROBE_REPEATS = 5
MATCH_TOL = 1e-7  # criterion 10: decode logits equal prefill logits

# Criterion 06 recipe: MQAR with 32 keys and values, N = 64, 8 pairs, batch 8.
TRAIN_TASK = dict(num_keys=32, num_values=32, seq_len=64, kv_pairs=8)
TRAIN_BATCH = 8
TRAIN_LR = 2e-3
TRAIN_WINDOW = 8
SEGMENT_STEPS = 20  # one train_mqar call; training runs in segments until time is up
FD_STEP = 1e-5
FD_TOL = 1e-4  # criterion 08: directional finite difference vs backward

CLCS_WINDOW = 64  # the prefill and decode models
PREFILL_TASK = dict(num_keys=256, num_values=256, seq_len=4096, kv_pairs=256)
STATE_CHECK_TOKENS = 128

DECODE_STREAMS = 64
DECODE_TASK = dict(num_keys=32, num_values=32, seq_len=64, kv_pairs=16)
DECODE_PROMPT = 48  # the 16 key-value pairs, then the 16 queries
DECODE_NEW = 25  # prompt + new - 1 = 72 steps per stream, so the 64-slot window wraps
DECODE_WALL_FACTOR = 3  # decode measuring ends by this many times --seconds of wall time


# -- gates ------------------------------------------------------------------------
# Each returns None when the output is right and a one-line reason when not.


def check_fd(analytic: float, numeric: float) -> str | None:
    rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-10)
    return None if rel < FD_TOL else f"finite-difference probe: backward {analytic!r} vs numeric {numeric!r} (rel {rel:.3g})"


def check_close(what: str, got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"{what}: shapes {got.shape} and {want.shape} differ"
    diff = float(np.abs(got - want).max())
    return None if diff < MATCH_TOL else f"{what}: max abs diff {diff:.3g} >= {MATCH_TOL}"


def check_equal(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: measured {got} != closed form {want}"


# -- bookkeeping ------------------------------------------------------------------


class Run:
    """Operation counts and gate failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        """Call one operation; a BasedLabError makes it a failed op, not a crash."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except BasedLabError as err:
            self.fail(f"{type(err).__name__}: {err}")
            return False, None

    def check(self, message: str | None, ops: int = 1) -> bool:
        if message is not None:
            self.fail(message, ops)
        return message is None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)


@dataclass
class Samples:
    """Per-op latencies of one measured phase (seconds) and the tokens they covered."""

    op_s: list[float] = field(default_factory=list)
    tokens: int = 0
    busy_s: float = 0.0
    ttft_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def draw(task: mq.MqarConfig, batch: int, rng: np.random.Generator, tracer) -> mq.MqarBatch:
    if tracer is None:
        return mq.generate(task, batch, rng=rng)
    span = tracer.open("mqar.generate")
    try:
        return mq.generate(task, batch, rng=rng)
    finally:
        tracer.close(span)


def _loss(model: md.HybridModel, batch: mq.MqarBatch):
    return T.cross_entropy_masked(model.forward(batch.tokens), batch.targets, batch.query_mask)


def _zero_grads(model: md.HybridModel) -> None:
    for p in model.parameters():
        p.grad = None


def fd_probe(model: md.HybridModel, batch: mq.MqarBatch, rng: np.random.Generator) -> tuple[float, float]:
    """Loss derivative along one random unit direction: (backward, central difference)."""
    params = model.parameters()
    _zero_grads(model)
    _loss(model, batch).backward()
    dirs = [rng.normal(size=p.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, dirs) if p.grad is not None) / norm
    saved = [p.data for p in params]

    def loss_at(h):
        for p, base, d in zip(params, saved, dirs):
            p.data = base + (h / norm) * d
        return _loss(model, batch).item()

    plus, minus = loss_at(FD_STEP), loss_at(-FD_STEP)
    for p, base in zip(params, saved):
        p.data = base
    _zero_grads(model)
    return analytic, (plus - minus) / (2.0 * FD_STEP)


def tiled_check(run: Run, model: md.HybridModel, n: int, rng: np.random.Generator) -> int:
    """Number of L layers whose tiled-run transfer counters equal the closed form."""
    matched = 0
    for i, layer in enumerate(model.layers):
        if layer.kind == "L":
            ref = analysis.tiled_reference_run(layer.mixer, rng.normal(size=(n, model.config.d_model)))
            matched += run.check(check_equal(f"layer {i} tiled_reference_run counters", ref["counters"], ref["closed_form"]))
    return matched


def state_check(run: Run, model: md.HybridModel, tokens: np.ndarray) -> int:
    """1 if DecodeState.scalar_count() equals model_state_size after every step."""
    state = model.start_decode()
    for t, tok in enumerate(tokens):
        state.step(int(tok))
        want = analysis.model_state_size(model.config, t + 1)
        if not run.check(check_equal(f"decode scalar count after {t + 1} tokens", state.scalar_count(), want)):
            return 0
    return 1


def hbm_elems(model: md.HybridModel, batch: int, n: int) -> tuple[int, int]:
    """io_cost_prefill HBM element totals (baseline, ours) at this L-layer shape; 0 without one."""
    if "L" not in model.config.layer_pattern:
        return 0, 0
    cfg = model.config
    shape = dict(b=batch, h=cfg.heads, n=n, d=cfg.head_dim, d_prime=cfg.d_prime)
    return (analysis.io_cost_prefill("baseline", **shape).hbm_total, analysis.io_cost_prefill("ours", **shape).hbm_total)


def backward_probe(model: md.HybridModel, shape: tuple[int, ...], rng: np.random.Generator) -> dict[str, float]:
    """Median seconds of backward() on the sum of each mixer kind's forward at `shape`."""
    forwards = {"L": la.parallel_forward, "S": sw.swa_forward, "C": bc.forward_gated}
    out = {}
    for layer in model.layers:
        if layer.kind in out:
            continue
        times = []
        for _ in range(PROBE_REPEATS):
            total = T.sum_all(forwards[layer.kind](layer.mixer, T.Tensor(rng.normal(size=shape), requires_grad=True)))
            start = time.perf_counter()
            total.backward()
            times.append(time.perf_counter() - start)
        out[layer.kind] = float(np.median(times))
    _zero_grads(model)
    return out


# -- workloads ----------------------------------------------------------------------


class _Batches:
    """The iterator handed to train_mqar: each pull ends one step and starts the next."""

    def __init__(self, task: mq.MqarConfig, rng: np.random.Generator, times: list[float], tracer):
        self.task, self.rng, self.times, self.tracer = task, rng, times, tracer
        self.pulled = 0
        self.started = None
        self.span = -1

    def __iter__(self):
        return self

    def __next__(self) -> mq.MqarBatch:
        self.end_step()
        self.pulled += 1
        self.started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = len(self.times)
            self.span = self.tracer.open("model.train_step")
        return draw(self.task, TRAIN_BATCH, self.rng, self.tracer)

    def end_step(self) -> None:
        if self.started is None:
            return
        elapsed = time.perf_counter() - self.started
        if self.tracer is not None:
            self.tracer.close(self.span)
        self.times.append(elapsed)
        self.started = None


class Train:
    """Adam on MQAR from a fresh model, criterion 06's recipe; one op is one step."""

    op_name, op_scale, op_unit = "train_step_ms", 1e3, "ms"
    has_backward = True

    def __init__(self, pattern: str):
        self.pattern = pattern

    def setup(self, seed: int) -> None:
        self.task = mq.MqarConfig(seed=seed, **TRAIN_TASK)
        self.model = md.build(md.ModelConfig(
            vocab=self.task.vocab_size, d_model=D_MODEL, heads=1, d_prime=D_PRIME,
            window=TRAIN_WINDOW, layer_pattern=self.pattern, seed=seed,
        ))
        self.rng = np.random.default_rng(seed)
        self.probe = mq.generate(self.task, TRAIN_BATCH, rng=np.random.default_rng(seed + 1))
        _loss(self.model, self.probe).backward()  # warm-up; the model is left unchanged
        _zero_grads(self.model)

    def measure(self, run: Run, seconds: float, tracer, idle: Callable[[], None]) -> Samples:
        tcfg = md.TrainConfig(steps=SEGMENT_STEPS, batch_size=TRAIN_BATCH, lr=TRAIN_LR)
        samples = Samples()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            batches = _Batches(self.task, self.rng, samples.op_s, tracer)
            ok, _ = run.attempt(md.train_mqar, self.model, batches, tcfg)  # a non-finite loss raises TrainingDiverged
            batches.end_step()
            run.attempted += batches.pulled - 1
            if not ok:
                break
            idle()
        samples.tokens = len(samples.op_s) * TRAIN_BATCH * self.task.seq_len
        samples.busy_s = sum(samples.op_s)
        samples.peak_rss_mb = peak_rss_mb()
        return samples

    def finish(self, run: Run, rng: np.random.Generator) -> dict[str, float]:
        run.check(check_fd(*fd_probe(self.model, self.probe, rng)))
        base, ours = hbm_elems(self.model, TRAIN_BATCH, self.task.seq_len)
        return {
            "analysis.tiled_counters_match": tiled_check(run, self.model, self.task.seq_len, rng),
            "analysis.state_scalars_match": state_check(run, self.model, self.probe.tokens[0]),
            "analysis.hbm_elems.baseline": base,
            "analysis.hbm_elems.ours": ours,
        }

    def probe_shape(self) -> tuple[int, int, int]:
        return (TRAIN_BATCH, self.task.seq_len, D_MODEL)


class Prefill:
    """Inference forward of a CLCS hybrid over one N = 4096 MQAR sequence per op."""

    op_name, op_scale, op_unit = "prefill_ms", 1e3, "ms"
    has_backward = False

    def setup(self, seed: int) -> None:
        self.task = mq.MqarConfig(seed=seed, **PREFILL_TASK)
        self.model = md.build(md.ModelConfig(
            vocab=self.task.vocab_size, d_model=D_MODEL, heads=1, d_prime=D_PRIME,
            window=CLCS_WINDOW, layer_pattern="CLCS", seed=seed,
        ))
        self.rng = np.random.default_rng(seed)
        self.pending = mq.generate(self.task, 1, rng=self.rng).tokens
        self.model.forward(self.pending)  # warm-up: the first full-size forward runs ~30% slow
        self.checked = None

    def measure(self, run: Run, seconds: float, tracer, idle: Callable[[], None]) -> Samples:
        # A set-up runs a full forward, as long as an op, so `idle` is not
        # called: set-up samples here would halve the ops.
        samples = Samples()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            tokens = self.pending if self.pending is not None else draw(self.task, 1, self.rng, tracer).tokens
            self.pending = None
            if tracer is not None:
                tracer.op = len(samples.op_s)
                span = tracer.open("model.prefill")
            start = time.perf_counter()
            ok, logits = run.attempt(self.model.forward, tokens)
            if ok:
                int(np.argmax(logits.data[0, -1]))  # the next token, as a caller would take it
                if self.checked is None:
                    self.checked = (tokens[0], logits.data[0])
                del logits  # releases the recorded graph inside the timed region
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span)
            if ok:
                samples.op_s.append(elapsed)
        samples.tokens = len(samples.op_s) * self.task.seq_len
        samples.busy_s = sum(samples.op_s)
        samples.peak_rss_mb = peak_rss_mb()
        return samples

    def finish(self, run: Run, rng: np.random.Generator) -> dict[str, float]:
        if self.checked is not None:
            tokens, logits = self.checked
            run.check(check_close("forward vs decode_logits", logits, self.model.decode_logits(tokens)))
        base, ours = hbm_elems(self.model, 1, self.task.seq_len)
        return {
            "analysis.tiled_counters_match": tiled_check(run, self.model, self.task.seq_len, rng),
            "analysis.state_scalars_match": state_check(run, self.model, mq.generate(self.task, 1, rng=rng).tokens[0, :STATE_CHECK_TOKENS]),
            "analysis.hbm_elems.baseline": base,
            "analysis.hbm_elems.ours": ours,
        }


class Decode:
    """64 streams stepped round-robin through DecodeState.step; one op is one token step."""

    op_name, op_scale, op_unit = "decode_token_us", 1e6, "us"
    has_backward = False

    def setup(self, seed: int) -> None:
        self.task = mq.MqarConfig(seed=seed, **DECODE_TASK)
        self.model = md.build(md.ModelConfig(
            vocab=self.task.vocab_size, d_model=D_MODEL, heads=1, d_prime=D_PRIME,
            window=CLCS_WINDOW, layer_pattern="CLCS", seed=seed,
        ))
        self.rng = np.random.default_rng(seed)
        self.steps = DECODE_PROMPT + DECODE_NEW - 1
        self.expected = [analysis.model_state_size(self.model.config, t + 1) for t in range(self.steps)]
        self.pending = mq.generate(self.task, DECODE_STREAMS, rng=self.rng).tokens[:, :DECODE_PROMPT]
        warm = self.model.start_decode()
        for tok in self.pending[0]:  # warm-up
            warm.step(int(tok))
        self.streams = 0
        self.state_ok = 1

    def measure(self, run: Run, seconds: float, tracer, idle: Callable[[], None]) -> Samples:
        samples = Samples()
        # The clock counts stepping time only: the per-round gate takes about a
        # third as long again, and counting it would cut the samples by a quarter.
        # Failed steps add no stepping time, so the wall clock and a round with
        # no successful step also end the loop.
        deadline = time.perf_counter() + DECODE_WALL_FACTOR * seconds
        while samples.busy_s < seconds and time.perf_counter() < deadline:
            if self.pending is None:
                self.pending = draw(self.task, DECODE_STREAMS, self.rng, tracer).tokens[:, :DECODE_PROMPT]
            prompts, self.pending = self.pending, None
            fed, logits, done, bad = self._round(run, prompts, samples, tracer)
            if not samples.peak_rss_mb:
                # Decode memory is flat by design, so the high-water mark after the
                # first round is the path's own; the gate's forwards come after it.
                samples.peak_rss_mb = peak_rss_mb()
            if tracer is not None:
                tracer.paused = True
            for s in np.nonzero(done == self.steps)[0]:
                want = self.model.forward(fed[s]).data
                message = check_close(f"stream {self.streams + s} decode vs forward", logits[s], want)
                if message is not None:
                    bad.setdefault(s, message)
            if tracer is not None:
                tracer.paused = False
            # A wrong stream fails each of its successful steps once; a step
            # that raised was counted failed when it was attempted.
            for s, message in bad.items():
                run.fail(message, ops=int(done[s]))
            self.streams += len(prompts)
            if not done.any():
                break
            idle()
        return samples

    def _round(self, run: Run, prompts: np.ndarray, samples: Samples, tracer):
        count = len(prompts)
        states = [self.model.start_decode() for _ in range(count)]
        if tracer is not None:
            for state in states:
                tracing.wrap_caches(tracer, state)
        fed = np.empty((count, self.steps), dtype=np.int64)
        logits = np.empty((count, self.steps, self.model.config.vocab))
        first = [0.0] * count
        alive = np.ones(count, dtype=bool)
        done = np.zeros(count, dtype=np.int64)  # successful steps per stream
        bad = {}  # stream -> its first gate failure
        for t in range(self.steps):
            for s in range(count):
                if not alive[s]:
                    continue
                tok = int(prompts[s, t]) if t < DECODE_PROMPT else int(np.argmax(logits[s, t - 1]))
                fed[s, t] = tok
                if tracer is not None:
                    tracer.op = self.streams + s
                    span = tracer.open("model.decode_step")
                start = time.perf_counter()
                ok, out = run.attempt(states[s].step, tok)
                end = time.perf_counter()
                if tracer is not None:
                    tracer.close(span)
                if not ok:
                    alive[s] = False
                    continue
                logits[s, t] = out
                done[s] += 1
                samples.busy_s += end - start
                if t == 0:
                    first[s] = start
                if t == DECODE_PROMPT - 1:
                    samples.ttft_s.append(end - first[s])
                    samples.tokens += 1
                elif t >= DECODE_PROMPT:
                    samples.op_s.append(end - start)
                    samples.tokens += 1
                message = check_equal(f"stream {self.streams + s} decode scalar count at step {t + 1}", states[s].scalar_count(), self.expected[t])
                if message is not None:
                    self.state_ok = 0
                    bad.setdefault(s, message)
        return fed, logits, done, bad

    def finish(self, run: Run, rng: np.random.Generator) -> dict[str, float]:
        return {
            "analysis.tiled_counters_match": tiled_check(run, self.model, self.steps, rng),
            "analysis.state_scalars_match": self.state_ok,
            "analysis.hbm_elems.baseline": 0,
            "analysis.hbm_elems.ours": 0,
        }


WORKLOADS = {
    "train_cl": lambda: Train("CL"),
    "train_cs": lambda: Train("CS"),
    "prefill_long": Prefill,
    "decode_streams": Decode,
}


# -- one run --------------------------------------------------------------------------


@dataclass
class Result:
    workload: object
    run: Run
    import_s: list[float]
    setup_s: list[float]  # import plus set-up, one per set-up
    samples: Samples  # untraced, the source of every end-to-end number
    counts: dict[str, float]
    layers: dict[str, tuple[float, str, int]] | None = None
    tracer: tracing.Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.run.failures


def run(name: str, seed: int, seconds: float, trace: bool, import_s: Callable[[], float]) -> Result:
    """Set up, measure and gate the outputs, timing set-up samples throughout.

    `import_s` times one fresh `import basedlab`; each set-up sample is one
    import plus one set-up. The speed of a shared machine's core changes
    within seconds, so the samples are spread over the run: before
    measuring, between ops every SETUP_EVERY_S while measuring untraced (on
    spare instances), and after measuring. Their upper quartile moves far
    less from run to run than any statistic of samples taken back to back.

    With `trace`, the first half of the time is measured untraced and the
    second half traced, so that the difference is the tracing overhead.
    """
    imports, setup_s = [], []

    def set_up(workload) -> None:
        imports.append(import_s())
        start = time.perf_counter()
        workload.setup(seed)
        setup_s.append(imports[-1] + time.perf_counter() - start)

    def idle() -> None:
        nonlocal last
        if time.perf_counter() - last >= SETUP_EVERY_S:
            set_up(WORKLOADS[name]())
            last = time.perf_counter()

    workload = WORKLOADS[name]()
    for _ in range(SETUP_BEFORE):
        set_up(workload)
    last = time.perf_counter()
    outcome = Run()
    rng = np.random.default_rng([seed, 1])
    if not trace:
        samples = workload.measure(outcome, seconds, None, idle)
        counts = workload.finish(outcome, rng)
        for _ in range(SETUP_AFTER):
            set_up(WORKLOADS[name]())
        return Result(workload, outcome, imports, setup_s, samples, counts)
    samples = workload.measure(outcome, seconds / 2.0, None, idle)
    tracer = tracing.Tracer(track_memory=not isinstance(workload, Decode))
    restore = tracing.install(tracer)
    try:
        traced = workload.measure(outcome, seconds / 2.0, tracer, lambda: None)
    finally:
        restore()
    counts = workload.finish(outcome, rng)
    layers = tracing.span_metrics(tracer)
    probes = backward_probe(workload.model, workload.probe_shape(), rng) if workload.has_backward else {}
    for kind, metric in (("L", "linear_attention"), ("S", "sliding_window"), ("C", "baseconv")):
        layers[f"{metric}.backward_ms"] = (probes.get(kind, 0.0) * 1e3, "ms", PROBE_REPEATS if kind in probes else 0)
    p50, traced_p50 = percentile(samples.op_s, 50) * 1e3, percentile(traced.op_s, 50) * 1e3
    layers["trace.overhead_ms"] = (traced_p50 - p50, "ms", len(traced.op_s))
    layers["trace.overhead_pct"] = (100.0 * (traced_p50 / p50 - 1.0) if p50 else 0.0, "%", len(traced.op_s))
    for metric, value in counts.items():
        layers[metric] = (float(value), "count", 1)
    for _ in range(SETUP_AFTER):
        set_up(WORKLOADS[name]())
    return Result(workload, outcome, imports, setup_s, samples, counts, layers, tracer)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(result: Result) -> tuple[dict[str, tuple[float, str]], list[tuple]]:
    """The gated metrics, and report rows (name, value, unit, samples, note) under the workload's names.

    Only the steadiest numbers are gated: on a small shared box a core runs
    in a fast and a slow mode, each lasting seconds, so a median jumps
    between the two from run to run. The slow mode comes in nearly every
    run, so the 90th percentile of the op times holds, as does the memory
    high-water mark. Of the dozen or so set-up samples the upper quartile
    holds best: it falls in the slow mode too, and unlike the 90th
    percentile it is not set by the first, cold set-up or one outlier.
    """
    s, w, run = result.samples, result.workload, result.run
    setup = percentile(result.setup_s, 75)
    p50, p90, p99 = (percentile(s.op_s, q) for q in (50, 90, 99))
    tokens_per_s = s.tokens / s.busy_s if s.busy_s else 0.0
    gated = {"setup_s": (setup, "s"), "op_ms.p90": (p90 * 1e3, "ms"), "peak_rss_mb": (s.peak_rss_mb, "MB")}
    stem = w.op_name.split("_")[0]
    rows = [
        ("setup_s", setup, "s", len(result.setup_s), "upper quartile of import + set-up, timed throughout the run"),
        (f"{w.op_name}.p50", p50 * w.op_scale, w.op_unit, len(s.op_s), ""),
        (f"{w.op_name}.p90", p90 * w.op_scale, w.op_unit, len(s.op_s), "gated as op_ms.p90"),
    ]
    if isinstance(w, Decode):
        rows.append((f"{w.op_name}.p99", p99 * w.op_scale, w.op_unit, len(s.op_s), ""))
        rows.append(("ttft_ms.p50", percentile(s.ttft_s, 50) * 1e3, "ms", len(s.ttft_s), "first prompt step to first generated token"))
    rows.append((f"{stem}_tokens_per_s", tokens_per_s, "tokens/s", s.tokens, "tokens over stepping seconds"))
    rows.append(("peak_rss_mb", s.peak_rss_mb, "MB", 1, "process high-water mark"))
    rows.append(("failed_frac", run.failed / max(run.attempted, 1), "ratio", run.attempted, f"{run.failed} failed"))
    return gated, rows
