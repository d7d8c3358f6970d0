"""End-to-end and per-layer benchmark of the min-max routing solver.

Run from the repository root:

    python3 bench/run.py --workload train-mtsp20 --seed 1 --seconds 30 --trace 0

Workloads: train-mtsp20, solve-mdvrp50-aug, solve-mpdp40-single (see
bench/README.md). The seed makes the workload's inputs; the program only
receives them. A run builds the inputs and runs one whole round of the same
operations, repeating both until --seconds have passed. A round is a row of
timed units (one training batch, or one `solve` call on a slice of the
dataset). A fixed reference kernel and one more input build are timed
between every two units, and the reported times are scaled to the
kernel's speed (bench/README.md, "Reference speed"). It checks every
output with bench/checker.py and prints one JSON object as its last line:
the end-to-end metrics with --trace 0, the per-layer metrics from wrapped
layer functions with --trace 1. Outputs of the last run of each workload
stay in bench/out/<workload>/.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import checker

HERE = os.path.dirname(os.path.abspath(__file__))
REF_S = 0.018  # reference kernel seconds that times are scaled to


def _quiet(fn, *args):
    """Run fn with the program's progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _gen(cli, argv):
    if _quiet(cli.main, ["gen"] + argv) != 0:
        raise RuntimeError(f"minmaxvrp gen {' '.join(argv)} failed")


class _Point:
    def __init__(self, i, x, y):
        self.i, self.x, self.y = i, x, y

    def dist(self, other):
        return math.sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2)


_REF_INPUTS = {}


def _reference_kernel():
    """A fixed decode-like loop that shares no code with the program: a
    nearest-neighbour tour over Python objects, with a small numpy softmax
    per step and a JSON record per tour. Its time tracks how fast the
    machine runs this kind of work right now."""
    import numpy as np
    if not _REF_INPUTS:
        rng = np.random.default_rng(0)
        _REF_INPUTS["pts"] = rng.random((60, 2)).tolist()
        _REF_INPUTS["h"] = rng.random((8, 60, 128))
        _REF_INPUTS["w"] = rng.random((128, 128)) / 128.0
    h, w = _REF_INPUTS["h"], _REF_INPUTS["w"]
    points = [_Point(i, x, y) for i, (x, y) in enumerate(_REF_INPUTS["pts"])]
    acc = 0.0
    for _ in range(6):
        visited = np.zeros(len(points), dtype=bool)
        visited[0] = True
        here = points[0]
        for step in range(len(points) - 1):
            q = h[:, step] @ w
            e = np.exp(q - q.max(axis=-1, keepdims=True))
            acc += float((e / e.sum(axis=-1, keepdims=True))[0, 0])
            best, best_d = None, math.inf
            for p in points:
                if not visited[p.i]:
                    d = here.dist(p)
                    if d < best_d:
                        best, best_d = p, d
            visited[best.i] = True
            here = best
            acc += best_d
        acc += len(json.dumps({"tour": np.flatnonzero(visited).tolist(),
                               "length": acc}))
    return acc


def _probe():
    """Seconds of one reference kernel."""
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


class Run:
    """What one run of a workload measured and found."""

    def __init__(self, seed, seconds, out_dir, trace):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.trace = trace
        self.tracer = None
        self.attempted = 0
        self.failed_ops = set()
        self.problems = []
        self.rounds = 0
        self.setups = []  # (seconds, reference seconds) of every timed build
        self.units = []  # (seconds, reference seconds) of every timed unit
        self.inst_per_unit = None
        self.mean_obj = None
        self.peak_rss_mb = None

    def measure(self, make_inputs, run_round):
        """Build the inputs, then run one round, until the time is up.

        make_inputs(directory) writes the workload's input files there.
        Every round runs whole, at least one does, and returns (seconds,
        reference seconds) of its timed units, calling gap() before each
        unit and after the last. Returns the last build.
        """
        self.make_inputs = make_inputs
        _probe()  # the first call builds the kernel's inputs
        deadline = time.perf_counter() + self.seconds
        while not self.rounds or time.perf_counter() < deadline:
            self.set_op("setup")
            made = make_inputs(self.out_dir)
            self.units.extend(run_round(made))
            self.rounds += 1
            if self.peak_rss_mb is None:
                # one round is what one user process does; later rounds
                # only grow the peak while the allocator reuses freed memory
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return made

    def gap(self):
        """Between two timed units: time the reference kernel, then build
        the inputs once more (same seed, same files) in a side directory
        and time that build. The builds thus sample the whole run, as the
        units do. Returns the kernel's seconds."""
        op = self.tracer.op if self.tracer is not None else None
        self.set_op("setup")
        ref = _probe()
        start = time.perf_counter()
        self.make_inputs(os.path.join(self.out_dir, "setup"))
        self.setups.append((time.perf_counter() - start, ref))
        self.set_op(op)
        return ref

    def start_tracing(self, **kwargs):
        if self.trace:
            import tracer
            self.tracer = tracer.Tracer(**kwargs)
            self.tracer.install()

    def stop_tracing(self):
        if self.tracer is not None:
            self.tracer.uninstall()

    def set_op(self, op):
        if self.tracer is not None:
            self.tracer.op = op

    def fail(self, op, why):
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"operation {op}: {why}")

    def setup_s(self):
        """Median scaled seconds of one input build. A build takes a few
        milliseconds, so a moment of contention can double one."""
        return statistics.median(REF_S * b / r for b, r in self.setups)

    def inst_per_s(self):
        """Instances per second of all timed units, their summed seconds
        scaled by REF_S over the mean kernel time around them."""
        mean_ref = statistics.fmean(r for _, r in self.units)
        scaled_s = REF_S / mean_ref * sum(u for u, _ in self.units)
        return self.inst_per_unit * len(self.units) / scaled_s


# ---------------------------------------------------------------------------
# train-mtsp20: an operation is one training batch
# ---------------------------------------------------------------------------

TRAIN_N, TRAIN_M, TRAIN_K = 20, (2, 4), 8
TRAIN_BATCH, TRAIN_BATCHES = 8, 8
HELDOUT_COUNT = 128


def run_train(run):
    from minmaxvrp import cli, encoder, problems, rollout, training

    heldout = os.path.join(run.out_dir, "heldout.jsonl")

    def make_inputs(where):
        os.makedirs(where, exist_ok=True)
        _gen(cli, ["--kind", "MTSP", "--n", str(TRAIN_N),
                   "--m-min", str(TRAIN_M[0]), "--m-max", str(TRAIN_M[1]),
                   "--count", str(HELDOUT_COUNT),
                   "--seed", str(run.seed + 1_000_003),
                   "--out", os.path.join(where, "heldout.jsonl")])
        # epoch_size == batch_size: each on_epoch call closes one batch
        return training.TrainConfig(
            kind="MTSP", N=TRAIN_N, m_min=TRAIN_M[0], m_max=TRAIN_M[1],
            batch_size=TRAIN_BATCH, epoch_size=TRAIN_BATCH,
            epochs=TRAIN_BATCHES, K=TRAIN_K, seed=run.seed,
            model=encoder.ModelConfig(kind="MTSP"))

    run.inst_per_unit = TRAIN_BATCH
    trained = {}

    def one_round(tc):
        first = run.attempted
        run.attempted += TRAIN_BATCHES
        batch_s, refs = [], [run.gap()]
        mark = [0.0]

        def on_epoch(epoch, row, _params, _opt):
            batch_s.append(time.perf_counter() - mark[0])
            refs.append(run.gap())
            err = checker.check_metrics_row(row)
            if err is not None:
                run.fail(first + epoch, err)
            run.set_op(first + epoch + 1)
            mark[0] = time.perf_counter()  # gap and check are not the batch

        run.set_op(first)
        mark[0] = time.perf_counter()
        trained["params"], _opt, _rows = training.train(tc, on_epoch=on_epoch)
        return [(b, (refs[k] + refs[k + 1]) / 2) for k, b in enumerate(batch_s)]

    run.start_tracing()
    tc = run.measure(make_inputs, one_round)

    # every round trains the same model from the same seed, so the held-out
    # set is decoded once, with the last round's parameters
    run.set_op("heldout")
    records = checker.read_jsonl(heldout)
    objs = []
    for i, ins in enumerate(problems.read_instances(heldout)):
        res = rollout.infer(ins, tc.model, trained["params"], n_per=1)
        sol = problems.solution_to_record(res.solution, res.objective,
                                          res.permutation, res.aug_index)
        err = checker.check_solution(records[i], sol)
        if err is not None:
            for op in range(run.attempted):
                run.fail(op, f"held-out instance {i}: {err}")
        objs.append(sol["objective"])
    run.stop_tracing()
    run.mean_obj = statistics.fmean(objs)


# ---------------------------------------------------------------------------
# solve workloads: an operation is one solved instance
# ---------------------------------------------------------------------------

SOLVES = {
    "solve-mdvrp50-aug": dict(kind="MDVRP", N=50, D=3, M=5, count=10,
                              per_call=1, per=8, aug8=True, ckpt="mdvrp"),
    "solve-mpdp40-single": dict(kind="MPDP", N=40, D=1, M=3, count=48,
                                per_call=8, per=1, aug8=False, ckpt="mpdp"),
}


def run_solve(run, spec):
    from minmaxvrp import cli, problems, rollout, training

    ckpt = os.path.join(HERE, "checkpoints", spec["ckpt"], "checkpoint.ckpt")
    dataset = os.path.join(run.out_dir, "dataset.jsonl")
    n_calls = spec["count"] // spec["per_call"]
    slices = [os.path.join(run.out_dir, f"dataset-{k}.jsonl")
              for k in range(n_calls)]
    solutions = [os.path.join(run.out_dir, f"solutions-{k}.jsonl")
                 for k in range(n_calls)]

    def make_inputs(where):
        os.makedirs(where, exist_ok=True)
        full = os.path.join(where, "dataset.jsonl")
        _gen(cli, ["--kind", spec["kind"], "--n", str(spec["N"]),
                   "--d", str(spec["D"]), "--m-min", str(spec["M"]),
                   "--count", str(spec["count"]),
                   "--seed", str(run.seed), "--out", full])
        with open(full) as f:
            lines = f.readlines()
        for k in range(n_calls):
            with open(os.path.join(where, f"dataset-{k}.jsonl"), "w") as f:
                f.writelines(lines[k * spec["per_call"]:
                                   (k + 1) * spec["per_call"]])

    run.inst_per_unit = spec["per_call"]
    argvs = [["solve", "--checkpoint", ckpt, "--dataset", path, "--out", out,
              "--per", str(spec["per"]), "--seed", str(run.seed)]
             + (["--aug8"] if spec["aug8"] else [])
             for path, out in zip(slices, solutions)]
    rounds = []  # (operation ids, stored objectives or None) per round

    def one_round(_inputs):
        ops = range(run.attempted, run.attempted + spec["count"])
        run.attempted += spec["count"]
        units, sols = [], []
        before = run.gap()
        for argv, out in zip(argvs, solutions):
            # checkpoint load and dataset read belong to no instance
            run.set_op(None)
            start = time.perf_counter()
            code = _quiet(cli.main, argv)
            elapsed = time.perf_counter() - start
            after = run.gap()
            units.append((elapsed, (before + after) / 2))
            before = after
            got = checker.read_jsonl(out) if code == 0 else []
            if len(got) != spec["per_call"]:
                for op in ops:
                    run.fail(op, f"solve exited {code} with {len(got)} "
                                 f"solutions for {spec['per_call']} instances")
                rounds.append((ops, None))
                return units
            sols.extend(got)
        for op, ins, sol in zip(ops, checker.read_jsonl(dataset), sols):
            err = checker.check_solution(ins, sol)
            if err is not None:
                run.fail(op, err)
        rounds.append((ops, [sol["objective"] for sol in sols]))
        return units

    run.start_tracing(new_op_on="rollout.infer")
    run.measure(make_inputs, one_round)
    run.stop_tracing()

    # rollout.infer promises that more permutations and the 8 symmetries can
    # only improve on the identity permutation of the plain instance
    cfg, params, _opt = training.load_checkpoint(ckpt)
    instances = checker.read_jsonl(dataset)
    for i, ins in enumerate(problems.read_instances(dataset)):
        plain = rollout.infer(cli.normalized_for_model(ins), cfg, params,
                              n_per=1, use_aug8=False, seed=run.seed)
        plain_obj = checker.objective(instances[i], {
            "routes": plain.solution.routes,
            "start_depots": plain.solution.start_depots,
            "end_depots": plain.solution.end_depots})
        for ops, objs in rounds:
            if objs and not objs[i] <= plain_obj * (1 + checker.OBJ_RTOL):
                run.fail(ops[i], f"objective {objs[i]!r} is worse than the "
                                 f"identity greedy {plain_obj!r}")
    objs = rounds[-1][1]
    run.mean_obj = statistics.fmean(objs) if objs else float("nan")


WORKLOADS = {"train-mtsp20": run_train}
WORKLOADS.update({name: functools.partial(run_solve, spec=spec)
                  for name, spec in SOLVES.items()})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(run):
    return {
        "setup_s": (run.setup_s(), "s"),
        "inst_per_s": (run.inst_per_s(), "instances/s"),
        "mean_obj": (run.mean_obj, "length"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


CALLS = ("encoder.encode", "decoder.context", "decoder.feasibility_mask",
         "rollout.step")
# spans that enclose other layers report their own share under this name
SELF_ONLY = ("rollout.decode_batch", "cli.solve")


def per_layer_metrics(run):
    """Self time and calls per operation over the rounds. Input builds and
    the train workload's held-out decode are not operations."""
    import tracer

    t = run.tracer
    ops = run.attempted
    totals = t.totals(lambda op: op not in ("setup", "heldout"))

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    out = {}
    for _module, _attr, name in tracer.LAYERS:
        if name != "rollout.infer":  # reported as a latency below
            metric = name + (".self_ms" if name in SELF_ONLY else ".ms")
            out[metric] = (1e3 * totals.get(name, (0.0, 0))[0] / ops, "ms/op")
    for name in CALLS:
        out[name + ".calls"] = (calls(name) / ops, "calls/op")
    steps = calls("decoder.logits")
    out["rollout.decode_steps"] = (steps / ops, "steps/op")
    out["decoder.context.calls_per_step"] = (
        calls("decoder.context") / steps if steps else 0.0, "calls/step")
    out["decoder.feasibility_mask.calls_per_state"] = (
        calls("decoder.feasibility_mask") / calls("rollout.step")
        if calls("rollout.step") else 0.0, "calls/state")
    out["diffcore.graph_nodes"] = (t.graph_nodes / ops, "nodes/op")
    infer = t.durations("rollout.infer")
    out["rollout.infer.ms_p50"] = (
        1e3 * statistics.median(infer) if infer else 0.0, "ms")
    out["trace.inst_per_s"] = (run.inst_per_s(), "instances/s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "minmaxvrp", "__init__.py")):
        print("error: src/minmaxvrp not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.environ.pop("MINMAXVRP_THREADS", None)  # the default: one thread

    import selftest
    broken = selftest.run()
    if broken:
        print("error: the output checker failed its self-test: "
              + "; ".join(broken), file=sys.stderr)
        return 3

    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = Run(args.seed, args.seconds, out_dir, bool(args.trace))
    WORKLOADS[args.workload](run)

    if run.tracer is not None:
        run.tracer.write(os.path.join(out_dir, "trace.csv"))
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run)
    for line in run.problems:
        print("FAILED", line, file=sys.stderr)
    result = {
        "correct": not run.failed_ops,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    with open(os.path.join(out_dir, "units.json"), "w") as f:
        json.dump({"inst_per_unit": run.inst_per_unit, "units": run.units,
                   "setups": run.setups}, f)
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{run.attempted} operations attempted, {len(run.failed_ops)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
