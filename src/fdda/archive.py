"""Single-file model archive: a JSON manifest followed by little-endian
float32 blobs. It holds what evaluating the model reads: the layer specs,
parameters and BN running buffers and, for a quantized model, its
quantization policy and activation quantizer bounds. All round-trip
bitwise."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .network import (
    Network,
    layer_from_dict,
    layer_state_shapes,
    layer_to_dict,
    quant_point_count,
)
from .quantizer import FakeQuantRuntime, QuantParams, QuantPolicy

MAGIC = b"FDA1"
FORMAT_VERSION = 4


class ArchiveError(Exception):
    """Base error for unreadable archives."""


class ArchiveCorruptError(ArchiveError):
    """Bad magic, unparsable manifest, or truncated payload."""


class ArchiveVersionError(ArchiveError):
    """Readable manifest written by an incompatible format version."""


@dataclass
class ModelArchive:
    """A network and, for a quantized model, the quantizers it runs with."""

    network: Network
    quant: FakeQuantRuntime | None = None


def _emit(arrays: list, payload: list, name: str, arr: np.ndarray, offset: int) -> int:
    data = np.ascontiguousarray(arr, dtype="<f4")
    raw = data.tobytes()
    arrays.append({
        "name": name,
        "shape": list(data.shape),
        "offset": offset,
        "nbytes": len(raw),
    })
    payload.append(raw)
    return offset + len(raw)


def save_model(path, archive: ModelArchive | Network) -> None:
    """Write an archive (a bare Network is wrapped with no extras)."""
    if isinstance(archive, Network):
        archive = ModelArchive(archive)
    net = archive.network
    arrays: list[dict] = []
    payload: list[bytes] = []
    offset = 0
    for name, p in net.params.items():
        offset = _emit(arrays, payload, f"param:{name}", p.data, offset)
    for name, b in net.buffers.items():
        offset = _emit(arrays, payload, f"buffer:{name}", b, offset)

    manifest: dict = {
        "version": FORMAT_VERSION,
        "layers": [layer_to_dict(l) for l in net.layers],
        "meta": net.meta,
    }

    if archive.quant is not None:
        p = archive.quant.policy
        manifest["policy"] = {
            "default_bits": p.default_bits,
            "act_bits": p.act_bits,
            "first_layer_bits": p.first_layer_bits,
            "last_layer_bits": p.last_layer_bits,
        }
        manifest["act_quant"] = [
            {"bits": q.bits, "lower": float(q.lower), "upper": float(q.upper)}
            for q in archive.quant.act_params
        ]

    manifest["arrays"] = arrays
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for raw in payload:
            fh.write(raw)


def _is_array_entry(entry) -> bool:
    """A string name, a list of integer extents, and a non-negative integer
    offset and size in bytes."""
    return (isinstance(entry, dict) and {"name", "shape", "offset", "nbytes"} <= entry.keys()
            and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
            and all(type(n) is int for n in entry["shape"])
            and all(type(entry[k]) is int and entry[k] >= 0 for k in ("offset", "nbytes")))


def _check_state(path, values: dict[str, np.ndarray], layers) -> None:
    """Every parameter and buffer the layer specs read is present, with its shape."""
    for layer in layers:
        params, buffers = layer_state_shapes(layer)
        need = {f"param:{k}": v for k, v in params.items()}
        need.update({f"buffer:{k}": v for k, v in buffers.items()})
        for name, shape in need.items():
            if name not in values:
                raise ArchiveCorruptError(f"{path}: missing array {name}")
            if values[name].shape != shape:
                raise ArchiveCorruptError(
                    f"{path}: array {name} has shape {values[name].shape}, expected {shape}"
                )


def _load_quant(manifest: dict, net: Network) -> FakeQuantRuntime | None:
    """The quantizers of a quantized model: a policy and one activation
    quantizer per quantization point of ``net``, both or neither, each
    quantizer at the bit-width the policy gives its point. Raises KeyError,
    TypeError or ValueError if malformed."""
    missing = [key for key in ("policy", "act_quant") if key not in manifest]
    if len(missing) == 2:
        return None
    if missing:
        raise ValueError(f"no {missing[0]!r} key")
    policy = QuantPolicy(**manifest["policy"])
    act_quant = [QuantParams(q["bits"], q["lower"], q["upper"]) for q in manifest["act_quant"]]
    n = quant_point_count(net)
    if len(act_quant) != n:
        raise ValueError(f"{len(act_quant)} quantizers for {n} quantization points")
    for point, q in enumerate(act_quant):
        if q.bits != policy.activation_bits(point, n):
            raise ValueError(f"activation quantizer {point} has {q.bits} bits, "
                             f"the policy gives {policy.activation_bits(point, n)}")
    return FakeQuantRuntime(policy, act_quant)


def load_model(path) -> ModelArchive:
    """Read an archive back; raises ArchiveCorruptError / ArchiveVersionError
    on malformed input instead of crashing."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise ArchiveCorruptError(f"{path}: not a model archive")
    (mlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + mlen:
        raise ArchiveCorruptError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8 : 8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveCorruptError(f"{path}: unparsable manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ArchiveCorruptError(f"{path}: manifest is not a JSON object")
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise ArchiveVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    for section in ("arrays", "layers"):
        if not isinstance(manifest.get(section), list):
            raise ArchiveCorruptError(f"{path}: manifest has no {section!r} list")

    payload = raw[8 + mlen :]
    values: dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        if not _is_array_entry(entry):
            raise ArchiveCorruptError(f"{path}: bad array entry {entry!r}")
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if hi > len(payload):
            raise ArchiveCorruptError(f"{path}: truncated payload at {entry['name']}")
        try:
            arr = np.frombuffer(payload[lo:hi], dtype="<f4").reshape(entry["shape"])
        except ValueError as exc:
            raise ArchiveCorruptError(f"{path}: bad blob for {entry['name']} ({exc})") from exc
        values[entry["name"]] = arr.copy()

    try:
        layers = [layer_from_dict(d) for d in manifest["layers"]]
    except ValueError as exc:
        raise ArchiveCorruptError(f"{path}: {exc}") from exc
    _check_state(path, values, layers)
    params = {name[len("param:"):]: Tensor(arr, requires_grad=True)
              for name, arr in values.items() if name.startswith("param:")}
    buffers = {name[len("buffer:"):]: arr
               for name, arr in values.items() if name.startswith("buffer:")}
    net = Network(layers, params, buffers, manifest.get("meta", {}))

    try:
        quant = _load_quant(manifest, net)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveCorruptError(f"{path}: bad quantizers ({exc})") from exc
    return ModelArchive(net, quant)
