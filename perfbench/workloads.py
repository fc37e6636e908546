"""The benchmark's three training workloads and the six ways each is run.

Every workload trains one model with SGD on synthetic inputs drawn from
the ``--seed``.  Model weights start from a fixed seed, so the
``--seed`` changes the data and not the arithmetic's shape or scale.
Each workload runs its training step on all six execution paths:

* ``eager``, ``lazy``, ``codegen`` -- one device of that kind, the whole
  global batch per step, through :func:`repro.training.loop.train_step`;
* ``serial``, ``thread``, ``process`` -- a 2-replica
  :class:`~repro.runtime.parallel.ParallelDataParallelTrainer` on lazy
  devices with that replica backend, half the global batch per replica.

Each path is a group member whose losses must match the group's
reference bit for bit at every step (eager for the single-device group,
serial for the pod group): these are the repository's own
eager = lazy = codegen and serial = thread = process contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import MLP, LeNet, resnet_cifar_small, softmax_cross_entropy
from repro.optim import SGD
from repro.optim.optimizers import LearningRateSchedule
from repro.runtime.parallel import ParallelDataParallelTrainer
from repro.tensor import Tensor, eager_device, lazy_device
from repro.training.loop import train_step

#: Paths in the order they are set up and rotated through.
SINGLE_PATHS = ("eager", "lazy", "codegen")
POD_PATHS = ("serial", "thread", "process")
PATHS = SINGLE_PATHS + POD_PATHS
REPLICAS = 2
#: Distinct batches per path; steps cycle through them.
BATCH_POOL = 4


def loss_fn(model, x, y):
    """Module level: lowered to SIL, and shipped by reference to workers."""
    return softmax_cross_entropy(model(x), y)


class ScheduledSGD(SGD):
    """SGD whose learning rate follows a schedule of its own update count.

    Each replica counts its own updates, so the schedule holds in forked
    workers too, where the main process cannot reach the optimizer.
    """

    def __init__(self, schedule: LearningRateSchedule) -> None:
        super().__init__(learning_rate=schedule(0))
        self.schedule = schedule
        self.updates = 0

    def update(self, model, gradient) -> None:
        self.learning_rate = self.schedule(self.updates)
        self.updates += 1
        super().update(model, gradient)


@dataclass(frozen=True)
class Workload:
    name: str
    build_model: Callable  # device -> model
    input_shape: Tuple[int, ...]
    classes: int
    global_batch: int
    make_optimizer: Callable[[], SGD]


def _fixed_lr() -> SGD:
    return SGD(learning_rate=0.01)


def _decaying_lr() -> SGD:
    return ScheduledSGD(LearningRateSchedule(0.05, decay_steps=1, decay_rate=0.995))


WORKLOADS = {
    w.name: w
    for w in (
        # The largest trace per step, small kernels: warm lazy steps hit.
        Workload(
            "resnet_hit",
            lambda device: resnet_cifar_small(device=device, seed=0),
            (32, 32, 3),
            10,
            8,
            _fixed_lr,
        ),
        # The decaying learning rate enters each trace as a new constant,
        # so every lazy and codegen step misses the compile cache.
        Workload(
            "lenet_retrace",
            lambda device: LeNet.create(device=device, seed=0),
            (28, 28, 1),
            10,
            32,
            _decaying_lr,
        ),
        # Matmul kernels, BLAS threading and gradient exchange dominate.
        Workload(
            "pod_mlp",
            lambda device: MLP.create(256, [512, 512], 10, device=device, seed=0),
            (256,),
            10,
            1024,
            _fixed_lr,
        ),
    )
}


def make_batches(workload: Workload, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``BATCH_POOL`` global batches of inputs and one-hot labels."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(BATCH_POOL):
        x = rng.standard_normal((workload.global_batch,) + workload.input_shape)
        labels = rng.integers(0, workload.classes, workload.global_batch)
        y = np.eye(workload.classes, dtype=np.float32)[labels]
        batches.append((x.astype(np.float32), y))
    return batches


class SinglePath:
    """One device of one kind training on the whole global batch."""

    group = "single"

    def __init__(self, name: str, workload: Workload, batches) -> None:
        make_device = {
            "eager": eager_device,
            "lazy": lazy_device,
            "codegen": lambda: lazy_device(codegen=True),
        }[name]
        self.name = name
        self.device = make_device()
        self.model = workload.build_model(self.device)
        self.optimizer = workload.make_optimizer()
        self.batches = [(Tensor(x, self.device), Tensor(y, self.device)) for x, y in batches]

    def step(self, i: int) -> Tuple[float, ...]:
        x, y = self.batches[i % len(self.batches)]
        loss = train_step(self.model, self.optimizer, loss_fn, x, y, self.device)
        return (float(loss),)

    def ops_traced(self) -> int:
        return self.device.trace_stats().get("ops_traced", 0)

    def close(self) -> None:
        pass


class PodPath:
    """A 2-replica data-parallel trainer with one replica backend."""

    group = "pod"

    def __init__(self, name: str, workload: Workload, batches) -> None:
        self.name = name
        self.trainer = ParallelDataParallelTrainer(
            workload.build_model,
            workload.make_optimizer,
            REPLICAS,
            backend=name,
        )
        try:
            self.shards = [self.trainer.place_shards(_split(x, y)) for x, y in batches]
        except BaseException:
            self.trainer.shutdown()
            raise
        self.gradient_bytes: Optional[int] = None

    def step(self, i: int) -> Tuple[float, ...]:
        stats = self.trainer.step(loss_fn, self.shards[i % len(self.shards)])
        self.gradient_bytes = stats.gradient_bytes
        return tuple(stats.losses)

    def ops_traced(self) -> int:
        # Process replicas trace in their workers, out of this process's view.
        return sum(d.trace_stats().get("ops_traced", 0) for d in self.trainer.devices)

    def close(self) -> None:
        self.trainer.shutdown()


def _split(x: np.ndarray, y: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    half = len(x) // REPLICAS
    return [(x[i * half : (i + 1) * half], y[i * half : (i + 1) * half]) for i in range(REPLICAS)]


def build_paths(workload: Workload, batches) -> List:
    """Every path of ``workload``, in :data:`PATHS` order.

    The process trainer is built first, so its workers fork from a process
    whose caches the caller has just cleared and which runs no replica
    threads yet.
    """
    built = {}
    try:
        built["process"] = PodPath("process", workload, batches)
        for name in SINGLE_PATHS:
            built[name] = SinglePath(name, workload, batches)
        for name in ("serial", "thread"):
            built[name] = PodPath(name, workload, batches)
    except BaseException:
        close_paths(built.values())
        raise
    return [built[name] for name in PATHS]


def close_paths(paths: Sequence) -> None:
    """Close every path, then raise the first error any close raised."""
    errors = []
    for path in paths:
        try:
            path.close()
        except Exception as exc:  # the other paths must still be closed
            errors.append(exc)
    if errors:
        raise errors[0]
