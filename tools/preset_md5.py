"""Byte-identity listing of the preset outputs at reduced scale.

Usage, from anywhere:

    python tools/preset_md5.py OUTDIR

runs the CLI of the checkout this file sits in on the run list below, once
with ``--workers 1`` and once with ``--workers 2``, plus the two simulation
audits, ``list-experiments`` and ``print-defaults``.  The ``--workers 1`` runs
and the listing commands run under ``OPENBLAS_NUM_THREADS=1``, the
``--workers 2`` runs and the audits under ``OPENBLAS_NUM_THREADS=2``.  The
audits pass ``--workers 2`` for ``verify_seed7_20x25000`` and ``--workers 1``
for ``verify_default_6x5000``.  So one listing covers both worker counts and
both BLAS thread counts.  Every output
lands under OUTDIR, and one ``md5  file`` line per output goes to stdout,
sorted by file.  A refactor that must keep the output bytes passes when
``diff`` finds no difference between the listings of two checkouts.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, run arguments): each writes results.csv, aggregates.json and curves.csv.
RUNS = (
    ("two_bridge_linucb", ["--set", "experiment=TwoBridgeLinUCB", "--set", "replicates=8",
                           "--set", "horizons=2000,4000,8000",
                           "--set", "policies=linucb,linucb_full,uniform_random,batch_freq_greedy,oracle"]),
    ("two_bridge_impossibility", ["--set", "experiment=TwoBridgeImpossibility", "--set", "replicates=8",
                                  "--set", "horizons=2000,4000"]),
    ("greedy_vs_linucb", ["--set", "experiment=GreedyVsLinUCB", "--set", "replicates=4",
                          "--set", "horizons=4000"]),
    ("scaling_fit", ["--set", "experiment=ScalingFit", "--set", "replicates=4",
                     "--set", "horizons=1000,2000,4000"]),
    ("externality", ["--set", "experiment=ExternalityVanishing", "--set", "replicates=4",
                     "--set", "horizons=4000"]),
    ("externality_coin", ["--set", "experiment=ExternalityVanishing", "--set", "replicates=4",
                          "--set", "horizons=4000", "--set", "restriction=coin",
                          "--set", "restriction_p=0.25"]),
    ("eig_growth", ["--set", "experiment=EigGrowth", "--set", "replicates=4", "--set", "horizons=4000"]),
    ("two_bridge_coin_minority_bernoulli",
     ["--set", "experiment=TwoBridgeLinUCB", "--set", "replicates=8",
      "--set", "horizons=2000,4000,8000",
      "--set", "policies=linucb,linucb_full,uniform_random,batch_freq_greedy,oracle",
      "--set", "restriction=coin", "--set", "population=minority", "--set", "noise=bernoulli"]),
)

# (name, --workers, verify-simulation arguments)
AUDITS = (
    ("verify_seed7_20x25000", 2, ["--set", "master_seed=7", "--set", "n_targets=20", "--set", "sim_draws=25000"]),
    ("verify_default_6x5000", 1, ["--set", "n_targets=6", "--set", "sim_draws=5000"]),
)

EXPERIMENTS = ("TwoBridgeLinUCB", "TwoBridgeImpossibility", "GreedyVsLinUCB", "ScalingFit",
               "ExternalityVanishing", "SimulationVerify", "EigGrowth")


def banditsim(args: list, threads: int = 1, stdout=subprocess.DEVNULL) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "banditsim.cli", *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)
    # The audit exits 4 when too many KS tests reject; its report is still an output.
    if proc.returncode not in (0, 4):
        sys.exit(f"banditsim {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")


def main(argv: list) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0]).resolve()
    for workers in (1, 2):
        for name, args in RUNS:
            run_dir = out / f"{name}.w{workers}"
            run_dir.mkdir(parents=True, exist_ok=True)
            banditsim(["run", *args, "--workers", str(workers), "--out", str(run_dir / "results.csv"),
                       "--aggregates", str(run_dir / "aggregates.json"),
                       "--curves", str(run_dir / "curves.csv")], threads=workers)
    for name, workers, args in AUDITS:
        banditsim(["verify-simulation", *args, "--workers", str(workers), "--out", str(out / f"{name}.json")],
                  threads=2)
    with open(out / "list-experiments.txt", "w", encoding="utf-8") as fh:
        banditsim(["list-experiments"], stdout=fh)
    with open(out / "print-defaults.json", "w", encoding="utf-8") as fh:
        banditsim(["print-defaults"], stdout=fh)
    for name in EXPERIMENTS:
        with open(out / f"print-defaults.{name}.txt", "w", encoding="utf-8") as fh:
            banditsim(["print-defaults", "--experiment", name], stdout=fh)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.md5(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
