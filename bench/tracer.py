"""Span tracer for the traced benchmark run.

The program's layers call each other as `module.function` (`de.context`,
`ro.decode_batch`, `dc.backward`, ...), and same-module calls go through the
module's globals, so replacing a module attribute with a timing wrapper
sees every call. Nothing in the program changes; the timing runs never
install the wrappers.

A span is (id, name, start, end, parent id, operation id, self seconds).
Spans stay in memory and are written out once, at the end of the run.
"""

import time

from minmaxvrp import cli, decoder, diffcore, encoder, problems, rollout, training

# (module, attribute, span name)
LAYERS = (
    (diffcore, "backward", "diffcore.backward"),
    (diffcore, "clip_grad_norm", "diffcore.clip_grad_norm"),
    (diffcore, "adam_step", "diffcore.adam_step"),
    (training, "aps_loss", "training.aps_loss"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (encoder, "encode", "encoder.encode"),
    (decoder, "context", "decoder.context"),
    (decoder, "scalar_features", "decoder.scalar_features"),
    (decoder, "glimpse_kv", "decoder.glimpse_kv"),
    (decoder, "glimpse", "decoder.glimpse"),
    (decoder, "logits", "decoder.logits"),
    (decoder, "dist_exp_row", "decoder.dist_exp_row"),
    (decoder, "feasibility_mask", "decoder.feasibility_mask"),
    (rollout, "decode_batch", "rollout.decode_batch"),
    (rollout, "step", "rollout.step"),
    (rollout, "infer", "rollout.infer"),
    (problems, "gen_uniform", "problems.gen_uniform"),
    (problems, "augment8", "problems.augment8"),
    (problems, "validate", "problems.validate"),
    (problems, "minmax_objective", "problems.minmax_objective"),
    (problems, "read_instances", "problems.read_instances"),
    (cli, "cmd_solve", "cli.solve"),
)


def graph_nodes(loss):
    """Tensors reachable from the loss through recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records spans of the LAYERS functions between install and uninstall.

    new_op_on names the span whose start opens a new operation (numbered
    0, 1, ...); without it the caller sets .op itself.
    """

    def __init__(self, new_op_on=None):
        self.spans = []
        self.graph_nodes = 0
        self.op = None  # operation id stamped on new spans
        self.new_op_on = new_op_on
        self._ops_opened = 0
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self._saved = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if name == "diffcore.backward":
                self.graph_nodes += graph_nodes(args[0])
            elif name == self.new_op_on:
                self.op = self._ops_opened
                self._ops_opened += 1
            op, sid = self.op, self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, name, start, end, parent, op,
                                   end - start - frame[1]))
        return traced

    def install(self):
        for module, attr, name in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def write(self, path):
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("id,name,start_us,end_us,parent,op,self_us\n")
            for sid, name, start, end, parent, op, self_s in sorted(self.spans):
                f.write(f"{sid},{name},{(start - origin) * 1e6:.1f},"
                        f"{(end - origin) * 1e6:.1f},{parent},"
                        f"{'' if op is None else op},{self_s * 1e6:.1f}\n")

    def totals(self, keep):
        """name -> (self seconds, calls) over spans whose op passes keep."""
        out = {}
        for _sid, name, _start, _end, _parent, op, self_s in self.spans:
            if keep(op):
                secs, calls = out.get(name, (0.0, 0))
                out[name] = (secs + self_s, calls + 1)
        return out

    def durations(self, name):
        return [end - start for _sid, n, start, end, *_ in self.spans if n == name]
