"""Run configuration for distributed training experiments."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["TrainConfig"]


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of one training run (one data point of a figure).

    Mirrors the paper's experimental knobs: network, dataset, global
    batch size, iteration count, strong/weak scaling (the ``-scal``
    command-line option of the public S-Caffe), the data backend
    (LMDB vs. ImageDataLayer-on-Lustre), the S-Caffe co-design variant,
    and the reduction design.
    """

    network: str = "googlenet"
    dataset: str = "imagenet"
    #: Global batch size (strong scaling divides this by the GPU count).
    batch_size: int = 1024
    iterations: int = 100
    #: "strong": global batch fixed, divided across solvers.
    #: "weak":   per-solver batch fixed at ``batch_size``.
    scal: str = "strong"
    #: "lustre" (ImageDataLayer) or "lmdb".
    data_backend: str = "lustre"
    #: S-Caffe co-design level: "SC-B" | "SC-OB" | "SC-OB-naive" | "SC-OBR".
    variant: str = "SC-OBR"
    #: Gradient-reduction design: "flat" (profile default binomial),
    #: "tuned" (HR tuned selection), "chain", or an explicit HR label
    #: ("CB-8", ...).
    reduce_design: str = "tuned"
    #: Iterations actually simulated; total time extrapolates linearly to
    #: ``iterations`` (discrete-event runs are deterministic, so a short
    #: measured window is exact after the one-iteration warmup).
    measure_iterations: int = 4
    #: Random seed for synthetic workload generation.
    seed: int = 0
    #: Run Caffe's Testing phase on the root solver every N training
    #: iterations (0 disables testing).  Section 6.2: "Caffe reports
    #: accuracy during the Testing phase only."
    test_interval: int = 0
    #: Samples per Testing pass.
    test_batch: int = 64
    #: Snapshot solver state every K iterations (0 disables, like
    #: Caffe's ``snapshot`` solver parameter).  Required for restart
    #: after a rank crash; without it recovery recomputes from scratch.
    checkpoint_interval: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.scal not in ("strong", "weak"):
            raise ValueError(f"scal must be strong|weak, got {self.scal!r}")
        if self.data_backend not in ("lustre", "lmdb", "imagedata"):
            raise ValueError(f"bad data_backend {self.data_backend!r}")
        if self.variant not in ("SC-B", "SC-OB", "SC-OB-naive", "SC-OBR"):
            raise ValueError(f"bad variant {self.variant!r}")
        if not 1 <= self.measure_iterations <= self.iterations:
            raise ValueError("need 1 <= measure_iterations <= iterations")
        if self.test_interval < 0 or self.test_batch < 1:
            raise ValueError("bad testing configuration")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        from ..mpi.collectives import check_design
        check_design(self.reduce_design)

    def local_batch(self, n_gpus: int) -> int:
        """Per-solver batch size under the configured scaling mode.

        Strong scaling: batch/P (e.g. batch 1,024 on 32 GPUs -> 32 per
        solver, Section 6.2).  Weak scaling: the full batch per solver.
        """
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.scal == "weak":
            return self.batch_size
        if self.batch_size < n_gpus:
            raise ValueError(
                f"strong scaling needs batch_size >= n_gpus "
                f"({self.batch_size} < {n_gpus})")
        return self.batch_size // n_gpus

    def global_batch(self, n_gpus: int) -> int:
        return (self.batch_size * n_gpus if self.scal == "weak"
                else self.local_batch(n_gpus) * n_gpus)

    def derive(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)
