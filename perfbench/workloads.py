"""The benchmark's four workloads: what each runs and which layer it loads.

Each workload is one ``banditsim`` command on a config file that the
benchmark writes from its seed.  The seed becomes the program's
``master_seed``; every other key is fixed here, so the same seed always gives
the same inputs.  The catalog keeps the program's default ``catalog_seed``:
reseeding varies the noise, not the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN, VERIFY = "run", "verify-simulation"
# With a correct simulator each of the 20 KS tests rejects with probability
# 0.01, so 3 or more rejections happen on about 1 seed in 1000 and 4 or more
# on about 4 in 100 000.  A broken simulator rejects nearly every target.
MAX_REJECTIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # RUN or VERIFY
    config: tuple         # (key, value) pairs written to the config file
    workers: int = 1
    curves: bool = False

    def value(self, key: str):
        return dict(self.config)[key]

    @property
    def experiment(self) -> str:
        return self.value("experiment")

    @property
    def horizons(self) -> tuple:
        return tuple(int(t) for t in str(self.value("horizons")).split(","))

    @property
    def policies(self) -> tuple:
        return tuple(p.strip() for p in str(self.value("policies")).split(","))

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.config]
        lines.append(f"master_seed = {seed}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list:
        """Program arguments, as a user would type them after ``banditsim``."""
        if self.command == VERIFY:
            return [VERIFY, config_path, "--max-rejections", str(MAX_REJECTIONS),
                    "--out", f"{out_dir}/report.json"]
        argv = [RUN, config_path, "--workers", str(self.workers),
                "--out", f"{out_dir}/results.csv", "--aggregates", f"{out_dir}/aggregates.json"]
        if self.curves:
            argv += ["--curves", f"{out_dir}/curves.csv"]
        return argv

    def comparator_horizon(self, horizon: int) -> int:
        """T/Y horizon of the unbatched LinUCB comparator (one round per batch)."""
        return max(2, horizon // int(self.value("batch")))

    def jobs(self) -> list:
        """Expected (policy, T, replicate) rows of a ``run`` workload, in CSV order."""
        jobs = []
        for policy in sorted(self.policies):
            horizons = self.horizons
            if self.experiment == "GreedyVsLinUCB" and policy == "linucb":
                horizons = tuple(self.comparator_horizon(t) for t in horizons)
            for t in sorted(horizons):
                for rep in range(int(self.value("replicates"))):
                    jobs.append((policy, t, rep))
        return jobs

    def operations(self) -> list:
        """One operation per expected CSV row, or per KS target of the audit."""
        if self.command == VERIFY:
            return list(range(int(self.value("n_targets"))))
        return self.jobs()

    def work(self) -> int:
        """Simulated bandit rounds (sum of T over rows), or simulated reward draws."""
        if self.command == VERIFY:
            return int(self.value("n_targets")) * int(self.value("sim_draws"))
        return sum(t for _, t, _ in self.jobs())


WORKLOADS = {
    w.name: w
    for w in (
        # Per-round perturbed LinUCB dominates; two replicates so that a
        # replicate-lockstep engine has replicates to advance together.
        Workload(
            "scaling-linucb", RUN,
            (("experiment", "ScalingFit"),
             ("horizons", "2000, 8000, 32000"),
             ("policies", "linucb, batch_bayes_greedy, batch_freq_greedy"),
             ("batch", 200),
             ("replicates", 2)),
        ),
        # Thousands of short two-bridge jobs through the process pool; the
        # only workload with more than one worker.
        Workload(
            "two-bridge-floor", RUN,
            (("experiment", "TwoBridgeImpossibility"),
             ("horizons", "10000, 40000"),
             ("policies", "linucb_full, linucb_minority, uniform_random, batch_freq_greedy"),
             ("noise", "bernoulli"),
             ("batch", 200),
             ("replicates", 200)),
            workers=2,
        ),
        # Batched greedy dominates; the only workload on the curve path.
        Workload(
            "greedy-vs-linucb", RUN,
            (("experiment", "GreedyVsLinUCB"),
             ("horizons", "20000"),
             ("policies", "batch_bayes_greedy, batch_freq_greedy, linucb"),
             ("batch", 200),
             ("replicates", 40)),
            curves=True,
        ),
        # The reward-simulation audit at a quarter of the program's default
        # 100 000 draws per target, so that a run holds several commands.
        Workload(
            "sim-audit", VERIFY,
            (("experiment", "SimulationVerify"),
             ("horizons", "1200"),
             ("policies", "batch_freq_greedy"),
             ("batch", 300),
             ("n_targets", 20),
             ("sim_draws", 25000)),
        ),
    )
}
