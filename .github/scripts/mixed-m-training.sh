#!/usr/bin/env bash
# One tiny epoch of each kind with M drawn from 2..4 (D from 1..3 for the
# multi-depot kinds), so every batch decodes padded agent slots. -W turns a
# NaN from an all-masked softmax row or a 0/0 masked mean into a failure.
# Each kind trains twice from the same seed, and the two checkpoints must be
# byte-identical (seed determinism). Then each kind solves a tiny dataset with
# the checkpoint and with a copy whose optimizer member is cut off halfway,
# and the two solution files must be byte-identical (solve never reads the
# Adam moments). Run from the repository root; it writes mixed-m-* configs,
# datasets and run directories there.
set -euo pipefail
cli() {
  PYTHONPATH=src python -W error::RuntimeWarning -c 'import sys; from minmaxvrp import cli; sys.exit(cli.main(sys.argv[1:]))' "$@"
}
for kind in MTSP MPDP MDVRP FMDVRP; do
  d_max=1; case $kind in MDVRP|FMDVRP) d_max=3;; esac
  printf '{"kind": "%s", "N": 10, "m_min": 2, "m_max": 4, "d_max": %s, "batch_size": 4, "epoch_size": 8, "epochs": 1, "K": 4, "model": {"kind": "%s", "n_layers": 1, "d_model": 16, "n_heads": 2}}\n' "$kind" "$d_max" "$kind" > "mixed-m-$kind.json"
  for run in 1 2; do
    cli train --config "mixed-m-$kind.json" --out-dir "mixed-m-$kind-$run"
  done
  ckpt="mixed-m-$kind-1/checkpoint.ckpt"
  cmp "$ckpt" "mixed-m-$kind-2/checkpoint.ckpt"
  at=$(grep -bo '"optimizer"' "$ckpt" | cut -d: -f1)
  size=$(wc -c < "$ckpt")
  head -c $((at + (size - at) / 2)) "$ckpt" > "mixed-m-$kind-cut.ckpt"
  cli gen --kind "$kind" --n 10 --d "$d_max" --m-min 2 --m-max 4 --count 3 --seed 1 --out "mixed-m-$kind-data.jsonl"
  for ck in "$ckpt" "mixed-m-$kind-cut.ckpt"; do
    cli solve --checkpoint "$ck" --dataset "mixed-m-$kind-data.jsonl" --per 2 --aug8 --out "${ck%.ckpt}-solutions.jsonl"
  done
  cmp "mixed-m-$kind-1/checkpoint-solutions.jsonl" "mixed-m-$kind-cut-solutions.jsonl"
done
