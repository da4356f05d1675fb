"""Show that each correctness gate of the benchmark fires on a corrupted output.

    python3 perfbench/check_gates.py

Every case takes a real basedlab output, passes it through the gate the
workloads use, then corrupts it and passes it again. The clean output must
pass and the corrupted one must be rejected. The decode cases run a short
decode_streams measure with `DecodeState` patched to raise or to lie; they
must end, and count no more failed ops than they attempted. Exit code 0 when
every gate behaves so, 1 otherwise.
"""

from __future__ import annotations

import sys

import run as bench


def main() -> int:
    bench.load_package()
    import numpy as np

    import workloads as wl
    from basedlab import BasedLabError, analysis
    from basedlab import model as md
    from basedlab import mqar as mq

    task = mq.MqarConfig(num_keys=8, num_values=8, seq_len=24, kv_pairs=4, seed=0)
    cfg = md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, window=8, layer_pattern="CLCS", seed=0)
    model = md.build(cfg)
    batch = mq.generate(task, 2)
    tokens = batch.tokens[0]
    rng = np.random.default_rng(0)

    tcfg = md.TrainConfig(steps=3, batch_size=2, lr=1e-3)
    md.train_mqar(model, mq.stream(task, 2), tcfg)
    analytic, numeric = wl.fd_probe(model, batch, rng)
    forward = model.forward(tokens).data
    stepped = model.decode_logits(tokens)
    state = model.start_decode()
    for tok in tokens:
        state.step(int(tok))
    count, closed = state.scalar_count(), analysis.model_state_size(cfg, len(tokens))
    ref = analysis.tiled_reference_run(model.layers[1].mixer, rng.normal(size=(len(tokens), cfg.d_model)))

    def bumped(a):
        a = a.copy()
        a[len(a) // 2, 1] += 1e-6
        return a

    def op_failures(bad_tokens):
        run = wl.Run()
        run.attempt(model.forward, bad_tokens)
        return run.failures[0] if run.failed else None

    def train_failures(poison):
        """train_mqar on a fresh model, its last parameter set to NaN when `poison`."""
        fresh = md.build(cfg)
        if poison:
            fresh.parameters()[-1].data[...] = np.nan
        run = wl.Run()
        run.attempt(md.train_mqar, fresh, mq.stream(task, 2), tcfg)
        return run.failures[0] if run.failed else None

    def decode_failures(**patch):
        """First failure of a 0.01 s decode_streams measure with DecodeState methods replaced.

        A count of failed ops above the count attempted is a failure too.
        """
        workload = wl.Decode()
        workload.setup(0)
        saved = {name: getattr(md.DecodeState, name) for name in patch}
        for name, method in patch.items():
            setattr(md.DecodeState, name, method)
        run = wl.Run()
        try:
            workload.measure(run, 0.01, None, lambda: None)
        finally:
            for name, method in saved.items():
                setattr(md.DecodeState, name, method)
        if run.failed > run.attempted:
            return f"{run.failed} failed ops of {run.attempted} attempted"
        return f"{run.failed}/{run.attempted} ops failed, first: {run.failures[0]}" if run.failures else None

    def step_raises(self, token):
        raise BasedLabError("step refused")

    def step_off(self, token, step=md.DecodeState.step):
        return step(self, token) + 1e-6

    def count_off(self, count=md.DecodeState.scalar_count):
        return count(self) + 1

    clean_decode = decode_failures()

    cases = [
        ("train: TrainingDiverged is a failed op", train_failures(False), train_failures(True)),
        ("train: finite-difference probe", wl.check_fd(analytic, numeric), wl.check_fd(analytic * (1 + 1e-3), numeric)),
        ("prefill: forward = decode_logits", wl.check_close("prefill", forward, stepped), wl.check_close("prefill", bumped(forward), stepped)),
        ("decode: stream = forward", wl.check_close("stream", stepped, forward), wl.check_close("stream", bumped(stepped), forward)),
        ("decode: scalar count = model_state_size", wl.check_equal("state", count, closed), wl.check_equal("state", count + 1, closed)),
        ("all: tiled counters = closed form", wl.check_equal("tiled", ref["counters"], ref["closed_form"]),
         wl.check_equal("tiled", {**ref["counters"], "q_read": ref["counters"]["q_read"] + 1}, ref["closed_form"])),
        ("all: BasedLabError is a failed op", op_failures(tokens), op_failures(np.array([cfg.vocab]))),
        ("decode: every step raising ends the run", clean_decode, decode_failures(step=step_raises)),
        ("decode: a wrong stream fails its steps once", clean_decode, decode_failures(step=step_off, scalar_count=count_off)),
    ]
    ok = True
    for name, clean, corrupted in cases:
        good = clean is None and corrupted is not None
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: clean -> {clean or 'pass'}; corrupted -> {corrupted or 'pass'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
