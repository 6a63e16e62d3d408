"""Set-up probe: everything a tabuq run does before its first model trains.

Imports the package, validates the config, then loads (CSV) or generates
(toy) the first seed's data, splits it and scales it. The benchmark times
this process from the outside as setup_s.

    python3 perfbench/setup_probe.py config.json
"""

import json
import sys
from pathlib import Path

from tabuq import (SeededRng, ToyConfig, apply_scaler, fit_scaler, generate_toy,
                   load_csv, split)
from tabuq.cli import parse_config


def main(config_path: str) -> None:
    cfg = parse_config(json.loads(Path(config_path).read_text(encoding="utf-8")))
    rng = SeededRng(cfg.seeds[0])
    if cfg.is_toy:
        toy = ToyConfig(mode=cfg.dataset[len("toy-"):], n_train=cfg.toy_n_train)
        parts = [generate_toy(toy, rng.split(p)) for p in ("train", "val", "test")]
    else:
        data = load_csv(cfg.csv_path, cfg.label_column)
        parts = split(data, cfg.split_fractions, rng.split("split"))
    if cfg.settings.standardize:
        scaler = fit_scaler(parts[0])
        parts = [apply_scaler(scaler, d) for d in parts]


if __name__ == "__main__":
    main(sys.argv[1])
