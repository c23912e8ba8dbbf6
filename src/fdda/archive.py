"""Single-file model archive: a JSON manifest followed by a little-endian
float32 payload. It holds what evaluating the model reads. The manifest has
the classifier's ``meta`` (its class count and input shape, from which
:func:`fdda.models.toy_classifier_layers` rebuilds the layer graph) and, for
a quantized model, its quantization policy and activation quantizer bounds.
The policy is the only record of every bit-width. The payload is every
parameter, then every BN running buffer, in the order
:func:`fdda.network.state_shapes` walks that graph, so the graph fixes
each array's name, shape and place. All round-trip bitwise."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .data import ToyDatasetSpec
from .models import toy_classifier_layers, toy_classifier_meta
from .network import Network, quant_point_count, state_shapes
from .quantizer import FakeQuantRuntime, QuantPolicy

MAGIC = b"FDA1"
FORMAT_VERSION = 7


class ArchiveError(Exception):
    """Base error for unreadable archives."""


class ArchiveCorruptError(ArchiveError):
    """Bad magic, unparsable manifest, an unknown manifest key, bad meta or
    quantizers, or a payload of the wrong length."""


class ArchiveVersionError(ArchiveError):
    """Readable manifest written by an incompatible format version."""


@dataclass
class ModelArchive:
    """A network and, for a quantized model, the quantizers it runs with."""

    network: Network
    quant: FakeQuantRuntime | None = None


def save_model(path, archive: ModelArchive | Network) -> None:
    """Write an archive (a bare Network is wrapped with no extras). Only a toy
    classifier whose layers, parameters and buffers are the ones its ``meta``
    describes can be written, since that is what loading rebuilds."""
    if isinstance(archive, Network):
        archive = ModelArchive(archive)
    net = archive.network
    meta = net.meta
    params, buffers = state_shapes(net.layers)
    if (meta.get("kind") != "classifier"
            or net.layers != tuple(toy_classifier_layers(meta["num_classes"], meta["input_shape"]))
            or {k: p.shape for k, p in net.params.items()} != params
            or {k: b.shape for k, b in net.buffers.items()} != buffers):
        raise ValueError(f"cannot archive a {meta.get('kind')} network that is not the toy "
                         f"classifier of its meta {meta}: loading rebuilds only that")
    manifest: dict = {"version": FORMAT_VERSION, "meta": meta}

    if archive.quant is not None:
        acts, n = archive.quant.act_params, quant_point_count(net)
        if len(acts) != n:
            raise ValueError(f"cannot archive {len(acts)} activation quantizers: loading gives "
                             f"one to each of the network's {n} quantization points")
        manifest["policy"] = asdict(archive.quant.policy)
        manifest["act_quant"] = [{"lower": float(q.lower), "upper": float(q.upper)} for q in acts]

    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in [net.params[k].data for k in params] + [net.buffers[k] for k in buffers]:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _load_quant(manifest: dict, net: Network) -> FakeQuantRuntime | None:
    """The quantizers of a quantized model: a policy and the bounds of one
    activation quantizer per quantization point of ``net``, both or neither.
    Raises KeyError, TypeError or ValueError if malformed."""
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
    for point, q in enumerate(bounds):
        if not isinstance(q, dict) or q.keys() != {"lower", "upper"}:
            raise ValueError(f"activation quantizer {point} is {q!r}, "
                             f"expected exactly 'lower' and 'upper'")
    return FakeQuantRuntime(policy, [(q["lower"], q["upper"]) for q in bounds])


def load_model(path) -> ModelArchive:
    """Read an archive back; raises ArchiveCorruptError / ArchiveVersionError
    on malformed input instead of crashing. The manifest must hold exactly
    the keys ``save_model`` writes, and ``meta`` exactly the classifier meta
    of its class count and input shape."""
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
    unknown = manifest.keys() - {"version", "meta", "policy", "act_quant"}
    if unknown:
        raise ArchiveCorruptError(f"{path}: unknown manifest key(s) {sorted(unknown)}")
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
    expected = toy_classifier_meta(n, shape)
    if meta != expected:
        raise ArchiveCorruptError(f"{path}: bad meta: keys {sorted(meta)}, kind "
                                  f"{meta.get('kind')!r}; expected keys {sorted(expected)}, "
                                  f"kind 'classifier'")

    layers = toy_classifier_layers(n, shape)
    params, buffers = state_shapes(layers)
    size = sum(math.prod(s) for s in (*params.values(), *buffers.values()))
    payload = memoryview(raw)[8 + mlen :]  # a view: nothing is copied before its length is checked
    if len(payload) != 4 * size:
        raise ArchiveCorruptError(f"{path}: payload of {len(payload)} bytes, expected "
                                  f"{4 * size} for the classifier of its meta")
    flat = np.frombuffer(payload, dtype="<f4")
    values, at = {}, 0
    for name, s in (*params.items(), *buffers.items()):
        values[name] = flat[at : at + math.prod(s)].reshape(s).copy()
        at += values[name].size
    net = Network(layers, {k: Tensor(values[k], requires_grad=True) for k in params},
                  {k: values[k] for k in buffers}, expected)

    try:
        quant = _load_quant(manifest, net)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveCorruptError(f"{path}: bad quantizers ({exc})") from exc
    return ModelArchive(net, quant)
