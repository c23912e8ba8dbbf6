"""Fingerprint the program's seeded outputs, to check that a change keeps
them byte-identical.

    python tests/seeded_outputs.py OUT_DIR > outputs.json

At dataset and train seeds 0 and 1, it pretrains a classifier for 3
epochs, runs ``analyze-bns`` on it, quantizes it in five arms (full,
``--no-cbns --no-dbns``, ``--classes 0``, ``--no-synthetic`` and
``--epochs 0 --warmup 0``) at W3A3 and at W2A2, each with ``--warmup 1
--epochs 2 --steps 5`` unless the arm overrides them, and evaluates each
quantized archive. It prints one JSON object of 64 sha256 digests: the
pretrained archive and the ``analyze-bns`` stdout of each seed, and each
run's archive, ``report.json`` and ``eval`` stdout. The stdout of
``pretrain`` and ``quantize`` names output paths, so it is left out.

Run it from a checkout of each revision into its own OUT_DIR, and diff the
two JSON files. The commands run in this process, on the ``src`` tree next
to this file, with one BLAS thread. Pytest does not collect this file."""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import contextlib
import hashlib
import io
import json
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fdda import cli  # noqa: E402

SEEDS = (0, 1)
BITS = (3, 2)
ARMS = {
    "full": [],
    "no-centroids": ["--no-cbns", "--no-dbns"],
    "classes-0": ["--classes", "0"],
    "no-synthetic": ["--no-synthetic"],
    "untrained": ["--epochs", "0", "--warmup", "0"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    """The stdout of one command, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return buf.getvalue().encode()


def seeded_outputs(out_dir: Path) -> dict[str, str]:
    digests = {}
    for seed in SEEDS:
        root = out_dir / f"seed{seed}"
        root.mkdir(parents=True, exist_ok=True)
        config = root / "config.json"
        config.write_text(json.dumps({"dataset": {"seed": seed}, "train": {"seed": seed}}))
        common = ["--config", str(config)]
        model = root / "float.fdda"
        _run(["pretrain", *common, "--out", str(model), "--epochs", "3"])
        digests[f"seed{seed}/float.fdda"] = _sha256(model.read_bytes())
        stdout = _run(["analyze-bns", *common, "--model", str(model)])
        digests[f"seed{seed}/analyze-bns.stdout"] = _sha256(stdout)
        for bits in BITS:
            for arm, flags in ARMS.items():
                name = f"seed{seed}/w{bits}a{bits}-{arm}"
                run = out_dir / name
                _run(["quantize", *common, "--model", str(model), "--out", str(run),
                      "--wbits", str(bits), "--abits", str(bits),
                      "--warmup", "1", "--epochs", "2", "--steps", "5", *flags])
                quantized = run / "quantized.fdda"
                digests[f"{name}/quantized.fdda"] = _sha256(quantized.read_bytes())
                digests[f"{name}/report.json"] = _sha256((run / "report.json").read_bytes())
                stdout = _run(["eval", *common, "--model", str(quantized)])
                digests[f"{name}/eval.stdout"] = _sha256(stdout)
    return digests


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} OUT_DIR", file=sys.stderr)
        return 2
    print(json.dumps(seeded_outputs(Path(sys.argv[1])), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
