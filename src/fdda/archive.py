"""Single-file model archive: a JSON manifest followed by little-endian
float32 blobs. It holds what evaluating the model reads: the classifier's
``meta`` (its class count and input shape, from which
:func:`fdda.models.toy_classifier_layers` rebuilds the layer graph),
parameters and BN running buffers and, for a quantized model, its
quantization policy and activation quantizer bounds. The policy is the only
record of every bit-width. All round-trip bitwise."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .data import ToyDatasetSpec
from .models import toy_classifier_layers, toy_classifier_meta
from .network import Network, layer_state_shapes, quant_point_count
from .quantizer import FakeQuantRuntime, QuantParams, QuantPolicy

MAGIC = b"FDA1"
FORMAT_VERSION = 6


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

    manifest: dict = {"version": FORMAT_VERSION, "meta": net.meta}

    if archive.quant is not None:
        policy, acts = archive.quant.policy, archive.quant.act_params
        n = quant_point_count(net)
        if [q.bits for q in acts] != [policy.activation_bits(i, n) for i in range(n)]:
            raise ValueError(f"cannot archive {len(acts)} activation quantizers at bit-widths "
                             f"{[q.bits for q in acts]}: loading gives the {n} quantization points "
                             f"the policy's, {[policy.activation_bits(i, n) for i in range(n)]}")
        manifest["policy"] = asdict(policy)
        manifest["act_quant"] = [{"lower": float(q.lower), "upper": float(q.upper)} for q in acts]

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
    """The quantizers of a quantized model: a policy and the bounds of one
    activation quantizer per quantization point of ``net``, both or neither.
    Each quantizer runs at the bit-width the policy gives its point. Raises
    KeyError, TypeError or ValueError if malformed."""
    missing = [key for key in ("policy", "act_quant") if key not in manifest]
    if len(missing) == 2:
        return None
    if missing:
        raise ValueError(f"no {missing[0]!r} key")
    policy = QuantPolicy(**manifest["policy"])
    bounds = manifest["act_quant"]
    n = quant_point_count(net)
    if len(bounds) != n:
        raise ValueError(f"{len(bounds)} quantizers for {n} quantization points")
    act_quant = []
    for point, q in enumerate(bounds):
        if not isinstance(q, dict) or q.keys() != {"lower", "upper"}:
            raise ValueError(f"activation quantizer {point} is {q!r}, "
                             f"expected exactly 'lower' and 'upper'")
        act_quant.append(QuantParams(policy.activation_bits(point, n), q["lower"], q["upper"]))
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
    if not isinstance(manifest.get("arrays"), list):
        raise ArchiveCorruptError(f"{path}: manifest has no 'arrays' list")
    meta = manifest.get("meta")
    n, shape = (meta.get(k) if isinstance(meta, dict) else None
                for k in ("num_classes", "input_shape"))
    try:  # JSON integers, in the ranges a dataset config accepts
        if (type(n) is not int or not isinstance(shape, list)
                or any(type(s) is not int for s in shape)):
            raise ValueError("not an integer and a list of integers")
        ToyDatasetSpec(num_classes=n, image_size=tuple(shape), samples_per_class=2)
    except ValueError as exc:
        raise ArchiveCorruptError(
            f"{path}: bad meta: num_classes {n!r}, input_shape {shape!r} ({exc})") from exc

    # views into the file's bytes: nothing is copied before every shape is checked
    payload = memoryview(raw)[8 + mlen :]
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
        values[entry["name"]] = arr

    layers = toy_classifier_layers(n, shape)
    _check_state(path, values, layers)
    state = [layer_state_shapes(layer) for layer in layers]
    params = {k: Tensor(values.pop(f"param:{k}").copy(), requires_grad=True)
              for shapes, _ in state for k in shapes}
    buffers = {k: values.pop(f"buffer:{k}").copy() for _, shapes in state for k in shapes}
    if values:
        raise ArchiveCorruptError(f"{path}: unexpected array {min(values)}")
    net = Network(layers, params, buffers, toy_classifier_meta(n, shape))

    try:
        quant = _load_quant(manifest, net)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveCorruptError(f"{path}: bad quantizers ({exc})") from exc
    return ModelArchive(net, quant)
