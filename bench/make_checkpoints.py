"""Train the two checkpoints that the solve workloads load.

Run from the repository root:

    python3 bench/make_checkpoints.py

Each checkpoint is trained by `minmaxvrp train` from a fixed seed with the
default ModelConfig of its kind, and lands in bench/checkpoints/<name>/
(checkpoint.ckpt, metrics.jsonl and the config.json it was trained from).
Training is bitwise deterministic per config, so the command remakes the
committed files exactly. Keeping the checkpoints fixed means that a change
to the training code does not move the solve workloads' numbers.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CONFIGS = {
    "mdvrp": {"kind": "MDVRP", "N": 20, "m_min": 3, "m_max": 5,
              "d_min": 2, "d_max": 3, "batch_size": 16, "epoch_size": 64,
              "epochs": 6, "K": 8, "lr": 1e-3, "seed": 20240527},
    "mpdp": {"kind": "MPDP", "N": 20, "m_min": 2, "m_max": 3,
             "batch_size": 16, "epoch_size": 64, "epochs": 6, "K": 8,
             "lr": 1e-3, "seed": 20240527},
}


def main():
    if not os.path.isdir(os.path.join("src", "minmaxvrp")):
        print("error: run from the repository root (src/minmaxvrp not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from minmaxvrp import cli

    for name, config in CONFIGS.items():
        out_dir = os.path.join(HERE, "checkpoints", name)
        os.makedirs(out_dir, exist_ok=True)
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w") as f:
            json.dump(config, f, indent=1)
            f.write("\n")
        code = cli.main(["train", "--config", config_path, "--out-dir", out_dir])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
