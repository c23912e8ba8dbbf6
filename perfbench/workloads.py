"""The three workloads: their inputs, set-up, closed-loop cycle and checks.

Every workload drives the ``fdda`` command line in-process, one command after
the other (a closed loop with a single client). A cycle is the user's session
after set-up:

* ``pretrain`` (only on ``pretrain-analyze``; the quantize workloads pretrain
  during set-up),
* ``analyze-bns`` on the float archive,
* ``quantize``, writing ``report.json`` and the quantized archive,
* ``eval`` of the quantized archive, then of the float archive.

Every end-to-end metric exists on every workload, so ``pretrain-analyze``
ends its cycle with post-training quantization (``quantize`` with no
epochs) and the quantize workloads analyze 20 images per class.

Times are medians of wall times scaled by a reference kernel timed around
each command (see ``reference.py``); the wall times go to the run
information. Commands keep the program's own dataset size and steps per
epoch; only epoch counts are cut, so each phase's share of a command stays
close to that of a full-length run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from fdda import archive, cli, data, trainer
from fdda.config import TrainConfig

from .instrument import CYCLE, SETUP, Instrumentation
from .reference import Reference


@dataclass(frozen=True)
class Workload:
    name: str
    pretrain_in_setup: bool
    synthetic: bool
    fine_tune: bool
    bits: int
    analyze_per_class: int


WORKLOADS = {
    w.name: w for w in (
        Workload("full-arm", pretrain_in_setup=True, synthetic=True, fine_tune=True,
                 bits=3, analyze_per_class=20),
        Workload("calib-arm", pretrain_in_setup=True, synthetic=False, fine_tune=True,
                 bits=3, analyze_per_class=20),
        # W4A4 here: plain post-training quantization at W3A3 spreads too much
        # across seeds for a bounded accuracy metric
        Workload("pretrain-analyze", pretrain_in_setup=False, synthetic=False,
                 fine_tune=False, bits=4, analyze_per_class=40),
    )
}


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one cycle do. ``None`` keeps the
    program's default (100 samples per class, 25 steps per epoch)."""

    pretrain_epochs: int = 6
    samples_per_class: int | None = None
    steps: int | None = None
    # the reference run quantizes with 2 warm-up and 6 training epochs; the
    # full arm keeps its 1:3 ratio of generator-only to alternating epochs
    # at a third of the length, the calibration arm runs half its length
    warmup: int = 1
    full_epochs: int = 2
    calib_epochs: int = 3
    # set up at least this often and for at least this long: a set-up with
    # no pretraining takes ~0.3 s, mostly the fresh interpreter's imports
    setup_reps: int = 3
    setup_seconds: float = 4.0


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports the command line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fdda.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _pretrain_steps_per_epoch() -> int:
    return inspect.signature(trainer.pretrain_classifier).parameters["steps_per_epoch"].default


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class CheckFailed(Exception):
    """A command's output failed a correctness check."""


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes, workdir: Path):
        self.w, self.sizes, self.dir = workload, sizes, workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        dataset = {"seed": seed}
        if sizes.samples_per_class is not None:
            dataset["samples_per_class"] = sizes.samples_per_class
        self.spec = data.ToyDatasetSpec(**dataset)
        self.chance = 1.0 / self.spec.num_classes
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps({"dataset": dataset, "train": {"seed": seed}}))
        # wall and reference-scaled seconds of each set-up and timed command
        self.wall: dict[str, list[float]] = {
            "setup": [], "pretrain_s": [], "analyze_s": [], "quantize_s": [],
        }
        self.scaled: dict[str, list[float]] = {k: [] for k in self.wall}
        self.ref = Reference()
        self.cycle_s: dict[bool, list[float]] = {False: [], True: []}  # scaled, by traced
        self._setup_parts: list[float] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.report_sha: list[str] = []
        self.archive_sha: list[str] = []
        self.report: dict = {}
        self.acc_last: float | None = None
        self.float_acc: float | None = None
        self._float_expected: float | None = None
        self.float_model = self.dir / "float.fdda"

    # -- commands -----------------------------------------------------------

    def _cli(self, argv: list[str]) -> list[dict]:
        """Run one command; its JSON output lines (other lines as text)."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited with {code}")
        out = []
        for line in buf.getvalue().splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                out.append(line)
        return out

    def step(self, units: int, fn, *args) -> bool:
        """Count ``units`` attempted; all of them fail if ``fn`` raises."""
        self.attempted += units
        try:
            fn(*args)
            return True
        except CheckFailed as exc:
            self.problems.append(str(exc))
        except Exception as exc:  # a crash in the program is a failed operation
            self.problems.append(f"{type(exc).__name__}: {exc}")
        self.failed += units
        return False

    def _record(self, metric: str, wall: float, ref_before: float) -> None:
        self.wall[metric].append(wall)
        self.scaled[metric].append(self.ref.scale(wall, ref_before))

    def _timed(self, metric: str, argv: list[str]) -> list[dict]:
        """Run one command and record its wall and scaled times under
        ``metric``; during set-up, its wall time is also a set-up part."""
        gc.collect()
        before = self.ref.seconds()
        t0 = time.perf_counter()
        out = self._cli(argv)
        wall = time.perf_counter() - t0
        self._record(metric, wall, before)
        if self._setup_parts is not None:
            self._setup_parts.append(wall)
        return out

    def _pretrain(self, out: Path) -> None:
        lines = self._timed("pretrain_s", [
            "pretrain", "--config", str(self.config), "--out", str(out),
            "--epochs", str(self.sizes.pretrain_epochs)])
        report = next(l for l in lines if isinstance(l, dict))
        if not report["test_acc"] > self.chance:
            raise CheckFailed(f"float test accuracy {report['test_acc']} is not above chance")
        sha = _sha256(out)
        if self.archive_sha and sha != self.archive_sha[0]:
            raise CheckFailed("pretrained archive differs between repetitions of one seed")
        self.archive_sha.append(sha)
        self._float_expected = report["test_acc"]

    def _round_trip(self) -> None:
        copy = self.dir / "round_trip.fdda"
        t0 = time.perf_counter()
        archive.save_model(copy, archive.load_model(self.float_model))
        self._setup_parts.append(time.perf_counter() - t0)
        if copy.read_bytes() != self.float_model.read_bytes():
            raise CheckFailed("archive load/save round trip is not byte-identical")

    def _analyze(self) -> None:
        lines = self._timed("analyze_s", [
            "analyze-bns", "--config", str(self.config), "--model", str(self.float_model),
            "--samples-per-class", str(self.w.analyze_per_class)])
        rows = [row for row in (l.split() for l in lines if isinstance(l, str))
                if row and row[0].isdigit()]
        if not rows:
            raise CheckFailed("analyze-bns printed no silhouette rows")
        for row in rows:
            for v in map(float, row[1:]):
                if not (math.isfinite(v) and -1.0 <= v <= 1.0):
                    raise CheckFailed(f"silhouette {v} is not finite in [-1, 1]")

    def _epochs(self) -> tuple[int, int]:
        """Warm-up and training epochs of one quantize command."""
        s = self.sizes
        if not self.w.fine_tune:
            return 0, 0
        return (s.warmup, s.full_epochs) if self.w.synthetic else (0, s.calib_epochs)

    def _quantize_args(self) -> list[str]:
        warmup, epochs = self._epochs()
        args = ["--wbits", str(self.w.bits), "--abits", str(self.w.bits),
                "--warmup", str(warmup), "--epochs", str(epochs)]
        if self.sizes.steps is not None:
            args += ["--steps", str(self.sizes.steps)]
        if not self.w.synthetic:
            args.append("--no-synthetic")
        return args

    def quantize_units(self) -> int:
        """Training steps one quantize command attempts (at least 1)."""
        warmup, epochs = self._epochs()
        steps = self.sizes.steps or TrainConfig.steps_per_epoch
        generator_steps = warmup + epochs if self.w.synthetic else 0
        return max(1, (generator_steps + epochs) * steps)

    def _quantize(self) -> None:
        qdir = self.dir / "quantized"
        self._timed("quantize_s", [
            "quantize", "--config", str(self.config), "--model", str(self.float_model),
            "--out", str(qdir)] + self._quantize_args())
        report_path = qdir / "report.json"
        report = json.loads(report_path.read_text())
        losses = [report["warmup_loss_first"], report["warmup_loss_last"]]
        for epoch in report["per_epoch"]:
            losses += [epoch["lossG"], epoch["lossQ"]]
        if not all(math.isfinite(v) for v in losses if v is not None):
            raise CheckFailed("report.json holds a non-finite loss")
        sha = _sha256(report_path)
        if self.report_sha and sha != self.report_sha[0]:
            raise CheckFailed("report.json differs between repetitions of one seed")
        self.report_sha.append(sha)
        acc = report["per_epoch"][-1]["acc"] if report["per_epoch"] else report["final_acc"]
        if not acc > self.chance:
            raise CheckFailed(f"last-epoch accuracy {acc} is not above chance")
        self.acc_last = acc
        self.report = report

    def _eval(self, model: Path, expected: float, what: str) -> float:
        lines = self._cli(["eval", "--config", str(self.config), "--model", str(model)])
        acc = next(l for l in lines if isinstance(l, dict))["accuracy"]
        if acc != expected:
            raise CheckFailed(f"eval of the {what} archive gives {acc}, expected {expected}")
        return acc

    def _eval_float(self) -> None:
        acc = self._eval(self.float_model, self._float_expected, "float")
        if acc != self.report["float_test_acc"]:
            raise CheckFailed("report float_test_acc disagrees with eval of the float archive")
        self.float_acc = acc

    # -- phases -------------------------------------------------------------

    def setup_once(self) -> None:
        """Import, make the dataset and (quantize workloads) pretrain and
        round-trip the archive. Set-up time adds up the times of these
        parts only, not the checks around them."""
        before = self.ref.seconds()
        self._setup_parts = parts = [_fresh_import_s()]
        t0 = time.perf_counter()
        data.make_toy_dataset(self.spec)
        parts.append(time.perf_counter() - t0)
        if self.w.pretrain_in_setup:
            units = self.sizes.pretrain_epochs * _pretrain_steps_per_epoch()
            if self.step(units, self._pretrain, self.float_model):
                self.step(1, self._round_trip)
        self._setup_parts = None
        self._record("setup", sum(parts), before)

    def cycle(self) -> None:
        if not self.w.pretrain_in_setup:
            units = self.sizes.pretrain_epochs * _pretrain_steps_per_epoch()
            if not self.step(units, self._pretrain, self.float_model):
                self._skip(1 + self.quantize_units() + 2)
                return
        self.step(1, self._analyze)
        if not self.step(self.quantize_units(), self._quantize):
            self._skip(2)
            return
        self.step(1, self._eval, self.dir / "quantized" / "quantized.fdda",
                   self.report["final_acc"], "quantized")
        self.step(1, self._eval_float)

    def _warm_up(self) -> None:
        """One minimal, untimed run of each timed command, so that costs the
        first call in a process pays stay out of the samples."""
        model, qdir = self.dir / "warm_up.fdda", self.dir / "warm_up"
        self._cli(["pretrain", "--config", str(self.config), "--out", str(model),
                   "--epochs", "1"])
        self._cli(["analyze-bns", "--config", str(self.config), "--model", str(model),
                   "--samples-per-class", "2"])
        self._cli(["quantize", "--config", str(self.config), "--model", str(model),
                   "--out", str(qdir)] + self._quantize_args() + ["--steps", "1"])

    def _skip(self, units: int) -> None:
        """Units of commands that cannot run because an earlier one failed."""
        self.attempted += units
        self.failed += units

    def measure(self, seconds: float, inst: Instrumentation | None) -> None:
        """Set up, warm up, then run cycles while the next one, as long as
        the last, ends within ``seconds``. With instrumentation, set-ups and
        every other cycle are traced; the untraced cycles time the same code
        with every wrapper removed."""
        end = time.perf_counter() + self.sizes.setup_seconds
        n = 0
        while n < self.sizes.setup_reps or time.perf_counter() < end:
            with _traced(inst, SETUP):
                self.setup_once()
            n += 1
        if self.w.pretrain_in_setup and self._float_expected is None:
            return
        if not self.step(1, self._warm_up):
            return
        min_cycles = 2 if inst is not None else 1
        deadline = time.perf_counter() + seconds
        n, wall = 0, 0.0
        while n < min_cycles or time.perf_counter() + wall < deadline:
            traced = inst is not None and n % 2 == 0
            before = self.ref.seconds()
            t0 = time.perf_counter()
            with _traced(inst if traced else None, CYCLE):
                self.cycle()
            wall = time.perf_counter() - t0
            self.cycle_s[traced].append(self.ref.scale(wall, before))
            n += 1

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Median scaled times, peak memory and the last accuracies."""
        return {
            "setup_s": _median(self.scaled["setup"]),
            "quantize_s": _median(self.scaled["quantize_s"]),
            "pretrain_s": _median(self.scaled["pretrain_s"]),
            "analyze_s": _median(self.scaled["analyze_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc_last": self.acc_last if self.acc_last is not None else 0.0,
            "float_acc": self.float_acc if self.float_acc is not None else 0.0,
        }

    def overhead_frac(self) -> float:
        plain, traced = self.cycle_s[False], self.cycle_s[True]
        if not plain or not traced:
            return 0.0
        return _median(traced) / _median(plain) - 1.0

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


@contextlib.contextmanager
def _traced(inst: Instrumentation | None, unit: str):
    if inst is None:
        yield
        return
    with inst:
        with inst.tracer.span(unit):
            yield
