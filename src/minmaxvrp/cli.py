"""Command-line surface: dataset generation, training, solving, evaluation,
TSPLIB parsing, and plot-data export.

Every command exits 0 on success and nonzero with a one-line diagnostic on
stderr otherwise. Output files are written atomically.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import encoder as en
from . import oracle as oc
from . import problems as pb
from . import rollout as ro
from . import training as tr

def normalized_for_model(instance):
    """Shift/scale all coordinates into the unit square, aspect preserved.

    Returns the instance unchanged when it already fits. A single scale
    factor is used on both axes, so route rankings transfer back to the
    native-unit instance unchanged.
    """
    pts = np.concatenate([instance.coords, instance.depot_coords])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if (lo >= 0.0).all() and (hi <= 1.0).all():
        return instance
    span = float((hi - lo).max())
    if span <= 0.0:
        span = 1.0
    return pb.Instance(kind=instance.kind,
                       coords=(instance.coords - lo) / span,
                       depot_coords=(instance.depot_coords - lo) / span,
                       M=instance.M, uid=instance.uid)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args):
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    if args.m_max is None:
        args.m_max = args.m_min
    if not 2 <= args.m_min <= args.m_max:
        raise ValueError(f"need 2 <= m-min <= m-max, "
                         f"got [{args.m_min}, {args.m_max}]")
    pb.check_instance_shape(args.kind, args.n, args.d, args.m_max)  # every M, not just those drawn
    rng = np.random.default_rng(args.seed)
    instances = [pb.draw_instance(args.kind, args.n, (args.m_min, args.m_max),
                                  (args.d, args.d), rng) for _ in range(args.count)]
    pb.write_instances(args.out, instances)
    print(f"wrote {len(instances)} {args.kind} instances to {args.out}")
    return 0


def _load_train_config(args, stored_model=None):
    default = {} if stored_model is None else {"model": stored_model.to_dict()}
    tc = pb.read_json_file(args.config, "config",
                           lambda rec: tr.TrainConfig.from_dict({**default, **rec}))
    overrides = {}
    if getattr(args, "pe", None):
        overrides["pe"] = args.pe
    if getattr(args, "no_navigation_part", False):
        overrides["use_nav"] = False
    if overrides:
        tc = replace(tc, model=replace(tc.model, **overrides))
    return tc


def cmd_train(args, config_lr=False):
    """train, and train --resume; with config_lr, a resume at the config's
    lr (finetune)."""
    if args.resume is None:
        tc, params, opt = _load_train_config(args), None, None
    else:
        tc, params, opt = tr.resume(
            args.resume, lambda stored: _load_train_config(args, stored),
            config_lr=config_lr)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.ckpt")
    metrics_path = os.path.join(args.out_dir, "metrics.jsonl")
    rows = []

    def on_epoch(epoch, row, params, opt):
        rows.append(row)
        tr.save_checkpoint(ckpt_path, tc.model, params, opt)
        pb.atomic_write_text(metrics_path, tr.metrics_to_text(rows))
        print(tr.metrics_to_text([row]), end="")

    params, opt, metrics = tr.train(tc, params=params, opt=opt, on_epoch=on_epoch)
    if not metrics:  # no epoch ran, so on_epoch has saved nothing
        tr.save_checkpoint(ckpt_path, tc.model, params, opt)
        pb.atomic_write_text(metrics_path, "")
    print(f"finished {len(metrics)} epochs; checkpoint at {ckpt_path}")
    return 0


def cmd_finetune(args):
    return cmd_train(args, config_lr=True)


# Rows (instances x symmetries x permutations) of one decode_batch in solve.
# On 2 cores, MPDP N=40 greedy and MDVRP N=50 --per 8 --aug8 gain little
# beyond 256 rows per call, while peak memory keeps growing with the rows
# (measurements in CHANGES.md).
SOLVE_ROWS = 256


def cmd_solve(args):
    """Solve a dataset; the summary line splits the wallclock into load
    (checkpoint and dataset), decode (normalizing and rollout.infer) and
    validate+write (feasibility check, objective, output file)."""
    if args.per < 1:
        raise ValueError("--per must be >= 1")
    start = time.perf_counter()
    cfg, params = tr.load_model(args.checkpoint)
    instances = pb.read_instances(args.dataset)
    if not instances:
        raise ValueError(f"{args.dataset} holds no instances")
    for ins in instances:
        if ins.kind != cfg.kind:
            raise ValueError(f"dataset kind {ins.kind} does not match "
                             f"checkpoint kind {cfg.kind}")
    load_s = time.perf_counter() - start
    decode_s = 0.0
    per_call = max(1, SOLVE_ROWS // (args.per * (8 if args.aug8 else 1)))
    records = [None] * len(instances)
    for group in ro.size_groups(instances):
        for s in range(0, len(group), per_call):
            part = group[s:s + per_call]
            decode_start = time.perf_counter()
            results = ro.infer([normalized_for_model(instances[i]) for i in part],
                               cfg, params, n_per=args.per, use_aug8=args.aug8,
                               seed=args.seed)
            decode_s += time.perf_counter() - decode_start
            for i, res in zip(part, results):
                err = pb.validate(res.solution, instances[i])
                if err is not None:
                    raise RuntimeError(f"solver produced an infeasible solution: {err}")
                obj = pb.minmax_objective(res.solution, instances[i])
                records[i] = pb.solution_to_record(res.solution, obj, res.permutation,
                                                   res.aug_index)
    pb.atomic_write_text(args.out, "".join(json.dumps(r) + "\n"
                                           for r in records))
    wall = time.perf_counter() - start
    mean_obj = float(np.mean([r["objective"] for r in records]))
    print(f"solved {len(records)} instances: mean objective {mean_obj:.4f}, "
          f"wallclock {wall:.1f}s (load {load_s:.3f}s, decode {decode_s:.3f}s, "
          f"validate+write {wall - load_s - decode_s:.3f}s)")
    return 0


def cmd_eval(args):
    solutions = pb.read_jsonl(args.solutions, pb.solution_from_record)
    instances = pb.read_instances(args.dataset)
    if len(solutions) != len(instances):
        raise ValueError(f"{len(solutions)} solutions vs "
                         f"{len(instances)} instances")
    if args.ref == "oracle":
        refs = [oc.brute_force(ins).objective for ins in instances]
    else:
        ref_solutions = pb.read_jsonl(args.ref, pb.solution_from_record)
        if len(ref_solutions) != len(instances):
            raise ValueError(f"{len(ref_solutions)} reference solutions vs "
                             f"{len(instances)} instances")
        refs = []
        for (sol, _obj, _perm, _aug), ins in zip(ref_solutions, instances):
            err = pb.validate(sol, ins)
            if err is not None:
                raise ValueError(f"reference solution infeasible: {err}")
            refs.append(pb.minmax_objective(sol, ins))
    objs = []
    gaps = []
    for i, ((sol, stored_obj, _perm, _aug), ins, ref) in enumerate(
            zip(solutions, instances, refs)):
        err = pb.validate(sol, ins)
        if err is not None:
            raise ValueError(f"solution {i} infeasible: {err}")
        obj = pb.minmax_objective(sol, ins)
        if abs(obj - stored_obj) > 1e-6 * max(1.0, abs(obj)):
            raise ValueError(f"solution {i} objective {stored_obj} does not "
                             f"match its routes ({obj:.6f}); wrong dataset?")
        g = oc.gap(obj, ref)
        objs.append(obj)
        gaps.append(g)
        print(f"{i}\t{obj:.4f}\t{ref:.4f}\t{g:.4f}%")
    print(f"mean objective {np.mean(objs):.4f}, mean gap {np.mean(gaps):.4f}%")
    return 0


def parse_tsplib(path, m):
    """Read a TSPLIB node-coordinate file as an MTSP instance.

    Only EUC_2D is supported. The first listed node is the depot;
    coordinates stay in native units.
    """
    headers = {}
    coords = []
    in_section = False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line == "EOF":
                continue
            if in_section:
                parts = line.split()
                if parts and parts[0].lstrip("+-").isdigit():
                    ok = len(parts) == 3
                    if ok:
                        try:
                            coords.append((float(parts[1]), float(parts[2])))
                        except ValueError:
                            ok = False
                    if not ok:
                        raise ValueError(
                            f"malformed node line {line!r} in {path}")
                    continue
                in_section = False  # a non-index line ends the section
            if line == "NODE_COORD_SECTION":
                in_section = True
            elif ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip()] = value.strip()
    ew = headers.get("EDGE_WEIGHT_TYPE")
    if ew != "EUC_2D":
        raise ValueError(f"unsupported edge weight type {ew!r} in {path}: "
                         f"only EUC_2D is handled")
    if not coords:
        raise ValueError(f"no NODE_COORD_SECTION in {path}")
    dim = headers.get("DIMENSION", str(len(coords)))
    if not dim.isdigit() or int(dim) != len(coords):
        raise ValueError(f"{path} lists {len(coords)} nodes but declares "
                         f"DIMENSION {dim!r}")
    arr = np.array(coords)
    return pb.Instance(kind="MTSP", coords=arr[1:], depot_coords=arr[:1], M=m)


def cmd_parse_tsplib(args):
    ins = parse_tsplib(args.infile, args.m)
    pb.write_instances(args.out, [ins])
    print(f"parsed {ins.N + 1} nodes (1 depot, {ins.N} customers), "
          f"M={ins.M} -> {args.out}")
    return 0


def _series_labels(paths):
    """Basename stems, falling back to full paths when stems collide
    (every run directory tends to hold a metrics.jsonl)."""
    stems = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    if len(set(stems)) == len(stems):
        return stems
    return [os.path.splitext(p)[0] for p in paths]


def cmd_plot_data(args):
    lines = []
    labels = _series_labels(args.metrics)
    for path, label in zip(args.metrics, labels):
        rows = pb.read_jsonl(
            path, lambda row: f"{label}\t{row['epoch']}\t{row['mean_obj']}\n")
        if not rows:
            raise ValueError(f"{path} holds no metrics rows")
        lines.extend(rows)
    pb.atomic_write_text(args.out, "".join(lines))
    print(f"wrote {len(lines)} points from {len(args.metrics)} runs "
          f"to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def _arg(*flags, **kw):
    return flags, kw


# One row per subcommand: (name, help, arguments, handler). The handler is
# named, and looked up when the parser is built, so a replaced module
# attribute (a profiler's timing wrapper) is the one called.
COMMANDS = (
    ("gen", "generate a dataset of random instances", (
        _arg("--kind", required=True, choices=pb.KINDS),
        _arg("--n", type=int, required=True, help="customers per instance"),
        _arg("--d", type=int, default=1, help="depots per instance"),
        _arg("--m-min", type=int, default=2),
        _arg("--m-max", type=int, default=None, help="defaults to --m-min"),
        _arg("--count", type=int, required=True),
        _arg("--seed", type=int, default=0),
        _arg("--out", required=True)), "cmd_gen"),
    ("train", "train a model from a JSON config", (
        _arg("--config", required=True),
        _arg("--out-dir", required=True),
        _arg("--resume", default=None, help="checkpoint to continue from"),
        _arg("--pe", choices=en.PE_KINDS, default=None,
             help="override the positional-encoding family"),
        _arg("--no-navigation-part", action="store_true",
             help="drop the within-route self-attention blocks")), "cmd_train"),
    ("finetune", "resume a checkpoint at the config's lr", (
        _arg("--checkpoint", dest="resume", metavar="CHECKPOINT", required=True),
        _arg("--config", required=True),
        _arg("--out-dir", required=True)), "cmd_finetune"),
    ("solve", "solve a dataset with a checkpoint", (
        _arg("--checkpoint", required=True),
        _arg("--dataset", required=True),
        _arg("--out", required=True),
        _arg("--per", type=int, default=1, help="agent permutations per instance"),
        _arg("--aug8", action="store_true", help="also search the 8 square symmetries"),
        _arg("--seed", type=int, default=0)), "cmd_solve"),
    ("eval", "gap of a solutions file vs a reference", (
        _arg("--solutions", required=True),
        _arg("--dataset", required=True),
        _arg("--ref", default="oracle",
             help='"oracle" for exact brute force, or a solutions file')), "cmd_eval"),
    ("parse-tsplib", "convert a TSPLIB file to a one-instance dataset", (
        _arg("--in", dest="infile", required=True),
        _arg("--m", type=int, required=True, help="number of routes"),
        _arg("--out", required=True)), "cmd_parse_tsplib"),
    ("plot-data", "export (epoch, objective) series from metrics", (
        _arg("--metrics", nargs="+", required=True),
        _arg("--out", required=True)), "cmd_plot_data"),
)


def build_parser(command=None):
    """The argument parser of every command, or, given the name of one, of
    that command alone. Its usage line still lists every command, so what
    it parses and prints for that command is what the full parser does."""
    only = [row for row in COMMANDS if row[0] == command]
    p = argparse.ArgumentParser(
        prog="minmaxvrp",
        description="Train and run the min-max routing solver.")
    # without a metavar argparse shows the choices it has; with one it also
    # names the action by it in errors, which a known command never meets
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(row[0] for row in COMMANDS) if only else None)
    for name, help_text, arguments, handler in only or COMMANDS:
        s = sub.add_parser(name, help=help_text)
        for flags, kw in arguments:
            s.add_argument(*flags, **kw)
        s.set_defaults(func=globals()[handler])
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
