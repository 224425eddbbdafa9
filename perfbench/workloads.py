"""The four benchmark workloads and the config files they run on.

Every workload uses n_t = n_r = P = Q = 16, three paths and the SNR list
0, 10, 20 dB. A workload is one ``tsdce`` subcommand on one config; the
benchmark repeats it as a closed loop (the next sweep starts when the
previous one has returned). See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

ARRAY = 16
PATHS = 3
SNR_DB = (0.0, 10.0, 20.0)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # tsdce subcommand and its fixed flags
    trials: int          # trials per SNR in one sweep
    estimator: str       # method (or bound kind) whose accuracy is reported
    methods: tuple = ()  # estimators a `run` sweep scores
    rounds: int = 1      # SIC rounds K of tsdce
    # Accuracy figures a trace-0 run prints: nmse_db where the estimator
    # is under test, p_detect where it reports angles.
    reports: tuple = ("nmse_db", "p_detect")

    @property
    def trials_per_sweep(self) -> int:
        return self.trials * len(SNR_DB)

    def config_text(self, seed: int, trials: int | None = None) -> str:
        """Config file for one sweep; the seed is the benchmark's --seed."""
        lines = [
            f"n_t = {ARRAY}",
            f"n_r = {ARRAY}",
            f"p_count = {ARRAY}",
            f"q_count = {ARRAY}",
            f"paths = {PATHS}",
            f"rounds = {self.rounds}",
            "snr_db_list = " + ", ".join(f"{s:g}" for s in SNR_DB),
            f"trials = {self.trials if trials is None else trials}",
            f"seed = {seed}",
            # any failed trial fails the sweep instead of being dropped
            "max_failure_rate = 0",
        ]
        if self.methods:
            lines.append("methods = " + ", ".join(self.methods))
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_tsdce", ("run",), 40, "tsdce", ("tsdce", "ls"), rounds=3),
        Workload("sweep_ls", ("run",), 100, "ls", ("ls",), reports=("nmse_db",)),
        Workload("sweep_dft_peak", ("run",), 8, "dft_peak", ("dft_peak",)),
        Workload("bound_crlb", ("bound", "--kind", "crlb"), 20, "crlb", reports=()),
    )
}

# The package's modules, which the traced pass treats as its layers.
LAYERS = ("numkit", "channel", "observation", "algorithm", "analysis", "bench", "cli")
