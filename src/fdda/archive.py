"""Single-file model archive: a JSON manifest followed by little-endian
float32 blobs. Parameters, BN running buffers, class centroids, and
activation quantizer bounds all round-trip bitwise."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .bns import ClassCentroids
from .network import (
    Network,
    layer_from_dict,
    layer_state_shapes,
    layer_to_dict,
    quant_point_count,
)
from .quantizer import QuantParams, QuantPolicy

MAGIC = b"FDA1"
FORMAT_VERSION = 1


class ArchiveError(Exception):
    """Base error for unreadable archives."""


class ArchiveCorruptError(ArchiveError):
    """Bad magic, unparsable manifest, or truncated payload."""


class ArchiveVersionError(ArchiveError):
    """Readable manifest written by an incompatible format version."""


@dataclass
class ModelArchive:
    network: Network
    centroids: ClassCentroids | None = None
    act_quant: list[QuantParams] | None = None
    policy: QuantPolicy | None = None


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
        "bn_layer_count": net.bn_layer_count,
    }

    if archive.centroids is not None:
        cen = archive.centroids
        for c in sorted(cen.per_class):
            for l in cen.deep_layers():
                m, v = cen.per_class[c][l]
                offset = _emit(arrays, payload, f"centroid:{c}:{l}:mean", m, offset)
                offset = _emit(arrays, payload, f"centroid:{c}:{l}:var", v, offset)
        manifest["centroids"] = {
            "deep_start": cen.deep_start,
            "layer_count": cen.layer_count,
            "classes": sorted(cen.per_class),
        }

    if archive.act_quant is not None:
        manifest["act_quant"] = [
            {"bits": q.bits, "lower": q.lower, "upper": q.upper}
            for q in archive.act_quant
        ]
    if archive.policy is not None:
        p = archive.policy
        manifest["policy"] = {
            "default_bits": p.default_bits,
            "act_bits": p.act_bits,
            "first_layer_bits": p.first_layer_bits,
            "last_layer_bits": p.last_layer_bits,
        }

    manifest["arrays"] = arrays
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for raw in payload:
            fh.write(raw)


_ARRAY_KEYS = {"name", "shape", "offset", "nbytes"}


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


def _load_centroids(info, values: dict[str, np.ndarray], net: Network) -> ClassCentroids:
    """The centroid section: a (mean, variance) pair per class and deep layer,
    each shaped like its BN layer's channels. Raises ValueError if malformed."""
    deep_start, layer_count = int(info["deep_start"]), int(info["layer_count"])
    if not 1 <= deep_start <= layer_count == net.bn_layer_count:
        raise ValueError(f"layers {deep_start}..{layer_count} do not fit "
                         f"{net.bn_layer_count} BN layers")
    channels = [l.channels for l in net.bn_layers()]

    def array(name: str, l: int) -> np.ndarray:
        if name not in values:
            raise ValueError(f"missing array {name}")
        if values[name].shape != (channels[l - 1],):
            raise ValueError(f"array {name} has shape {values[name].shape}, "
                             f"expected ({channels[l - 1]},)")
        return values[name]

    per_class = {
        int(c): {l: (array(f"centroid:{c}:{l}:mean", l), array(f"centroid:{c}:{l}:var", l))
                 for l in range(deep_start, layer_count + 1)}
        for c in info["classes"]
    }
    return ClassCentroids(deep_start, layer_count, per_class)


def _load_act_quant(entries, values, net: Network) -> list[QuantParams]:
    """One activation quantizer per quantization point of ``net``."""
    act_quant = [QuantParams(q["bits"], q["lower"], q["upper"]) for q in entries]
    if not np.isfinite([(q.lower, q.upper) for q in act_quant]).all():
        raise ValueError("non-finite activation bounds")
    if len(act_quant) != quant_point_count(net):
        raise ValueError(f"{len(act_quant)} quantizers for "
                         f"{quant_point_count(net)} quantization points")
    return act_quant


# optional manifest sections; each loader raises KeyError, TypeError or
# ValueError on a malformed section
_SECTIONS = {
    "centroids": _load_centroids,
    "act_quant": _load_act_quant,
    "policy": lambda fields, values, net: QuantPolicy(**fields),
}


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
        if not isinstance(entry, dict) or not _ARRAY_KEYS <= entry.keys():
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

    sections = {}
    for name, load in _SECTIONS.items():
        if name not in manifest:
            continue
        try:
            sections[name] = load(manifest[name], values, net)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveCorruptError(f"{path}: bad {name} section ({exc})") from exc
    return ModelArchive(net, **sections)
