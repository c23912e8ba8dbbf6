"""Toy dataset determinism, calibration extraction, the archive round trip,
and config validation."""

import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdda.archive import (
    FORMAT_VERSION,
    ArchiveCorruptError,
    ArchiveError,
    ArchiveVersionError,
    ModelArchive,
    load_model,
    save_model,
)
from fdda.autodiff import Tensor
from fdda.config import ConfigError, RunSettings, load_settings, settings_from_dict
from fdda.data import (
    ToyDatasetSpec,
    class_pattern,
    extract_calibration,
    make_toy_dataset,
)
from fdda.models import build_generator, build_toy_classifier, toy_classifier_layers
from fdda.network import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    ReLU,
    quant_point_count,
    state_shapes,
)
from fdda.quantizer import FakeQuantRuntime, QuantPolicy

from helpers import class_centroids, state_equal


# ---------------------------------------------------------------------------
# toy dataset
# ---------------------------------------------------------------------------

def test_split_arithmetic():
    train, test = make_toy_dataset(ToyDatasetSpec(num_classes=8, samples_per_class=100))
    assert len(train) == 640 and len(test) == 160
    assert set(train.labels.tolist()) == set(range(8))


def test_same_seed_identical_bytes():
    spec = ToyDatasetSpec(seed=5)
    a_train, a_test = make_toy_dataset(spec)
    b_train, b_test = make_toy_dataset(spec)
    assert a_train.images.tobytes() == b_train.images.tobytes()
    assert a_test.images.tobytes() == b_test.images.tobytes()


def test_zero_noise_gives_identical_samples():
    train, _ = make_toy_dataset(ToyDatasetSpec(noise_std=0.0))
    for c in range(8):
        imgs = train.images[train.labels == c]
        assert np.all(imgs == imgs[0])


def test_class_patterns_pairwise_distinct_and_zeroish_mean():
    pats = [class_pattern(c, (1, 16, 16)) for c in range(8)]
    for i in range(8):
        assert abs(float(pats[i].mean())) < 0.05
        for j in range(i + 1, 8):
            assert np.abs(pats[i] - pats[j]).max() > 0.1


def test_images_are_float32():
    train, test = make_toy_dataset(ToyDatasetSpec(samples_per_class=4))
    assert train.images.dtype == test.images.dtype == np.float32


def test_images_within_unit_range():
    train, test = make_toy_dataset(ToyDatasetSpec(noise_std=0.5))
    for arr in (train.images, test.images):
        assert arr.min() >= -1.0 and arr.max() <= 1.0


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        ToyDatasetSpec(num_classes=1)
    with pytest.raises(ValueError):
        ToyDatasetSpec(noise_std=-0.5)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_full_and_subset():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8)
    assert len(calib) == 8
    assert set(calib.labels) == set(range(8))

    sub = extract_calibration(train, 8, classes=[0, 1, 2, 3, 4, 5])
    assert len(sub) == 6
    assert set(sub.labels) == set(range(6))


def test_calibration_empty_subset():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8, classes=[])
    assert len(calib) == 0
    assert set(calib.labels) == set()


def test_calibration_takes_first_indexed_sample():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8, classes=[3])
    first_idx = np.nonzero(train.labels == 3)[0][0]
    assert np.array_equal(calib.images[0], train.images[first_idx])


def test_calibration_missing_class_errors():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    with pytest.raises(ValueError):
        extract_calibration(train, 8, classes=[11])


def test_centroids_reject_a_calibration_request_out_of_class_order():
    # the request is the set that is used, so it is not sorted or deduplicated;
    # centroid rows are in calibration order, so that order must be class order
    train, _ = make_toy_dataset(ToyDatasetSpec())
    net = build_toy_classifier(seed=0)
    for classes in [(5, 0, 2), (0, 5, 5)]:
        calib = extract_calibration(train, 8, classes=classes)
        assert calib.labels.tolist() == list(classes)
        with pytest.raises(ValueError, match="not sorted and unique"):
            class_centroids(net, calib, deep_start=1)


@pytest.mark.parametrize("classes", [(2, 0, 0), (0, 0, 2), (2, 0)])
def test_settings_reject_classes_out_of_class_order(classes):
    with pytest.raises(ConfigError, match=r"classes must be strictly increasing, got \["):
        RunSettings(classes=classes)


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------

def test_archive_roundtrip_bitwise(tmp_path):
    net = build_toy_classifier(seed=3)
    path = tmp_path / "f.fdda"
    save_model(path, net)
    loaded = load_model(path).network
    assert state_equal(loaded, net)
    assert [type(l) for l in loaded.layers] == [type(l) for l in net.layers]
    assert loaded.meta == net.meta
    assert loaded.bn_layer_count == net.bn_layer_count


def test_archive_roundtrip_with_sections(tmp_path):
    net = build_toy_classifier(seed=4)
    # one activation quantizer per quantization point, as load_model requires
    # at the bit-width the policy gives its point
    points = quant_point_count(net)
    act = [(-1.0, 1.0)] + [(0.0, 2.5)] * (points - 1)
    policy = QuantPolicy(default_bits=4, first_layer_bits=8)
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, FakeQuantRuntime(policy, act)))
    back = load_model(path)
    assert [q.bits for q in back.quant.act_params] == [8] + [4] * (points - 1)
    assert back.quant.act_params[1].upper == 2.5
    assert back.quant.policy == policy
    save_model(tmp_path / "f.fdda", net)
    assert load_model(tmp_path / "f.fdda").quant is None


def test_archive_truncated_file_errors(tmp_path):
    net = build_toy_classifier(seed=5)
    path = tmp_path / "f.fdda"
    save_model(path, net)
    raw = path.read_bytes()
    (tmp_path / "cut.fdda").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ArchiveCorruptError):
        load_model(tmp_path / "cut.fdda")


def test_archive_bad_magic_errors(tmp_path):
    path = tmp_path / "junk.fdda"
    path.write_bytes(b"this is not an archive at all")
    with pytest.raises(ArchiveCorruptError):
        load_model(path)


def test_archive_version_mismatch(tmp_path):
    import struct

    manifest = json.dumps({"version": 99, "arrays": [], "meta": {}}).encode()
    path = tmp_path / "vers.fdda"
    path.write_bytes(b"FDA1" + struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(ArchiveVersionError):
        load_model(path)


def _as_version_1(m):
    m["version"] = 1
    return m


def _as_version_2(m):
    """A format-2 manifest: a bn_layer_count key."""
    m["version"] = 2
    m["bn_layer_count"] = 6
    return m


def _as_version_3(m):
    """A format-3 manifest: a centroids section (its centroid:{l}:mean|var
    arrays are left out; the version check comes first)."""
    m["version"] = 3
    m["centroids"] = {"deep_start": 1, "layer_count": 6, "classes": [0, 1]}
    return m


def _as_version_4(m):
    """A format-4 manifest: each activation quantizer also stores its
    bit-width, which format 5 takes from the policy."""
    m["version"] = 4
    for point, q in enumerate(m.get("act_quant", [])):
        q["bits"] = QuantPolicy(**m["policy"]).activation_bits(point, len(m["act_quant"]))
    return m


def _as_version_5(m):
    """A format-5 manifest: the layer specs as a ``layers`` list (all but the
    first left out; the version check comes first)."""
    m["version"] = 5
    m["layers"] = [{"kind": "conv2d", "name": "conv1", "in_channels": 1, "out_channels": 8,
                    "kernel": 3, "pad": 1}]
    return m


def _as_version_6(m):
    """A format-6 manifest: an ``arrays`` list of each array's name, shape
    and place (all but the first left out; the version check comes first)."""
    m["version"] = 6
    m["arrays"] = [{"name": "param:conv1.w", "shape": [8, 1, 3, 3], "offset": 0, "nbytes": 288}]
    return m


EARLIER_VERSIONS = {1: _as_version_1, 2: _as_version_2, 3: _as_version_3, 4: _as_version_4,
                    5: _as_version_5, 6: _as_version_6}


@pytest.mark.parametrize("archive", ["saved_classifier", "saved_quantized"])
@pytest.mark.parametrize("version", sorted(EARLIER_VERSIONS))
def test_earlier_version_archive_is_rejected(request, tmp_path, version, archive):
    old = rewrite_manifest(request.getfixturevalue(archive), tmp_path / f"v{version}.fdda",
                           EARLIER_VERSIONS[version])
    with pytest.raises(ArchiveVersionError, match=f"format version {version}, expected 7"):
        load_model(old)


@pytest.mark.parametrize("archive", ["saved_classifier", "saved_quantized"])
@pytest.mark.parametrize("edit,match", [
    (lambda m: {**m, "arrays": [{"name": "param:conv1.w", "shape": [8, 1, 3, 3],
                                 "offset": 0, "nbytes": 288}]},
     r"unknown manifest key\(s\) \['arrays'\]"),
    (lambda m: {**m, "layers": []}, r"unknown manifest key\(s\) \['layers'\]"),
    (lambda m: {**m, "meta": {**m["meta"], "kind": "generator"}},
     "bad meta: .* kind 'generator'"),
    (lambda m: {**m, "meta": {**m["meta"], "note": "x"}},
     r"bad meta: keys \['input_shape', 'kind', 'note', 'num_classes'\]"),
], ids=["stray-arrays", "stray-layers", "generator-kind", "extra-meta-key"])
def test_manifest_key_that_save_model_never_writes_is_rejected(request, tmp_path, archive,
                                                                edit, match):
    bad = rewrite_manifest(request.getfixturevalue(archive), tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


def test_manifest_has_no_bn_layer_count(saved_classifier):
    assert "bn_layer_count" not in _manifest(saved_classifier)


def test_float_manifest_holds_meta_only(saved_classifier):
    assert set(_manifest(saved_classifier)) == {"version", "meta"}


def test_payload_is_every_parameter_then_every_buffer_in_graph_order(tmp_path):
    net = build_toy_classifier(16, (3, 32, 24), seed=1)
    save_model(tmp_path / "f.fdda", net)
    raw = (tmp_path / "f.fdda").read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    layers = toy_classifier_layers(16, (3, 32, 24))
    params, buffers = state_shapes(layers)
    # two parameters per conv, dense and BN layer, two buffers per BN layer, in graph order
    assert [k.split(".")[0] for k in params] == [l.name for l in layers if hasattr(l, "name")
                                                 for _ in range(2)]
    assert [k.split(".")[0] for k in buffers] == [l.name for l in layers
                                                  if isinstance(l, BatchNorm) for _ in range(2)]
    arrays = [net.params[k].data for k in params] + [net.buffers[k] for k in buffers]
    assert len(arrays) == len(net.params) + len(net.buffers)
    assert raw[8 + mlen :] == b"".join(a.astype("<f4").tobytes() for a in arrays)


def _changed(net, meta=(), params=()):
    net.meta.update(meta)
    net.params.update(params)
    return net


@pytest.mark.parametrize("make", [
    lambda: build_generator(),
    lambda: _changed(build_toy_classifier(), meta={"num_classes": 9}),
    lambda: _changed(build_toy_classifier(), params={"fc2.b": Tensor(np.zeros(9, np.float32))}),
], ids=["generator", "meta-of-another-class-count", "parameter-of-another-shape"])
def test_save_refuses_a_network_that_load_cannot_rebuild(tmp_path, make):
    path = tmp_path / "x.fdda"
    with pytest.raises(ValueError, match="cannot archive a .* network that is not the toy "
                                         "classifier of its meta"):
        save_model(path, make())
    assert not path.exists()


def test_loaded_classifier_is_the_one_its_meta_describes(tmp_path):
    net = build_toy_classifier(16, (3, 32, 24), seed=1)
    save_model(tmp_path / "f.fdda", net)
    loaded = load_model(tmp_path / "f.fdda").network
    assert loaded.meta == net.meta == {"kind": "classifier", "input_shape": [3, 32, 24],
                                       "num_classes": 16}
    assert loaded.layers == net.layers == tuple(toy_classifier_layers(16, (3, 32, 24)))
    assert list(loaded.params) == list(net.params) and list(loaded.buffers) == list(net.buffers)
    assert state_equal(loaded, net)


def test_classifier_graph_is_pinned():
    assert toy_classifier_layers(8, (1, 16, 16)) == [
        Conv2d("conv1", 1, 8, 3, pad=1), BatchNorm("bn1", 8), ReLU(), AvgPool2d(2),
        Conv2d("conv2", 8, 16, 3, pad=1), BatchNorm("bn2", 16), ReLU(),
        Conv2d("conv3", 16, 16, 3, pad=1), BatchNorm("bn3", 16), ReLU(), AvgPool2d(2),
        Conv2d("conv4", 16, 24, 3, pad=1), BatchNorm("bn4", 24), ReLU(),
        Conv2d("conv5", 24, 32, 3, pad=1), BatchNorm("bn5", 32), ReLU(),
        Conv2d("conv6", 32, 32, 3, pad=1), BatchNorm("bn6", 32), ReLU(), AvgPool2d(2),
        Flatten(), Dense("fc1", 128, 64), ReLU(), Dense("fc2", 64, 8),
    ], ("archives store no layer graph: a changed graph loads old archives as another model. "
        "Bump archive.FORMAT_VERSION with any change to it, then update this list.")


def _state_digest(net):
    h = hashlib.sha256()
    for kind, arrays in (("param", {k: v.data for k, v in net.params.items()}),
                         ("buffer", net.buffers)):
        for name, arr in arrays.items():
            h.update(f"{kind}:{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed,classifier,generator", [
    (0, "747b1f5043eaf102b188721b15470d5c9ef9f6a0d91229e0b98927c208699fdd",
     "b4988b1098c09767ba979cadbfafe518368727a5809591e4723b7f6e377f2181"),
    (1, "a3e9fceef77595a664f1e698db610d3f12a46559add06d9d2498ff00821f8e60",
     "a056738244a7d10ec0c06da11d2100686c76a5094376f73ff623c9a234d63d5c"),
    (2, "d94e39e60975458413b136b18e243ae692f05a696d5f68fefe8e5733f39ec74c",
     "c5a5b9b0da05a987db050391ae5fa270baacdebca8fe7d383caa3abd4ac1c649"),
], ids=["seed-0", "seed-1", "seed-2"])
def test_initial_state_is_pinned(seed, classifier, generator):
    # names, order, shapes and bytes of every parameter and buffer: the
    # initializer draws the weights in this order, the generator's embedding first
    assert _state_digest(build_toy_classifier(seed=seed)) == classifier
    assert _state_digest(build_generator(seed=seed)) == generator


def test_readme_states_the_archive_format_version():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [int(v) for v in re.findall(r"format version (\d+)", readme)] == [FORMAT_VERSION]
    assert [int(v) for v in re.findall(r"versions 1–(\d+) fail", readme)] == [FORMAT_VERSION - 1]


def test_archive_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.fdda")


def _manifest(path):
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + mlen])


def rewrite_manifest(src, dst, edit):
    """Copy archive ``src`` to ``dst`` with its manifest replaced by
    ``edit(manifest)``; the blobs follow unchanged."""
    raw = src.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = edit(json.loads(raw[8 : 8 + mlen]))
    blob = json.dumps(manifest).encode()
    dst.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen :])
    return dst


@pytest.fixture
def saved_classifier(tmp_path):
    path = tmp_path / "f.fdda"
    save_model(path, build_toy_classifier(seed=6))
    return path


def _edit_meta(**fields):
    def edit(m):
        m["meta"].update(fields)
        return m
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda m: [m], "not a JSON object"),
    (lambda m: {k: v for k, v in m.items() if k != "meta"},
     "bad meta: num_classes None, input_shape None"),
    (lambda m: {**m, "meta": None}, "bad meta: num_classes None, input_shape None"),
    (_edit_meta(num_classes=8.0), "bad meta: num_classes 8.0, input_shape"),
    (_edit_meta(num_classes=True), "bad meta: num_classes True, input_shape"),
    (_edit_meta(input_shape=[16, 16]), r"input_shape \[16, 16\] \(bad image size \(16, 16\)\)"),
    (_edit_meta(input_shape=[1, 16, 16.0]), r"input_shape \[1, 16, 16.0\] \(not an integer"),
    (_edit_meta(num_classes=1), "bad meta: .*need at least two classes"),
    (_edit_meta(num_classes=10**9), "exceeds the limit"),
    (_edit_meta(input_shape=[1, 16, 24]),
     "bad.fdda: payload of 130112 bytes, expected 146496 for the classifier of its meta"),
    (_edit_meta(num_classes=9), "bad.fdda: payload of 130112 bytes, expected 130372 "),
], ids=["list-manifest", "no-meta", "null-meta",
        "float-num-classes", "bool-num-classes", "two-extent-shape", "float-extent", "one-class",
        "huge-num-classes", "other-input-shape", "other-num-classes"])
def test_archive_malformed_manifest_is_corrupt(saved_classifier, tmp_path, edit, match):
    bad = rewrite_manifest(saved_classifier, tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


def test_meta_of_a_classifier_larger_than_the_payload_allocates_no_more_than_the_file(
        saved_classifier, tmp_path):
    # 32 * 512 * 512 features: fc1.w alone would be 2 GiB of float32
    bad = rewrite_manifest(saved_classifier, tmp_path / "big.fdda",
                           _edit_meta(num_classes=2, input_shape=[1, 4096, 4096]))
    tracemalloc.start()
    try:
        with pytest.raises(ArchiveCorruptError,
                           match="payload of 130112 bytes, expected 2147579432 for"):
            load_model(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * bad.stat().st_size


@pytest.mark.parametrize("delta", [-4, 4], ids=["one-float-short", "one-float-extra"])
def test_archive_payload_of_another_length_is_corrupt(saved_classifier, tmp_path, delta):
    raw = saved_classifier.read_bytes()
    bad = tmp_path / "bad.fdda"
    bad.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
    with pytest.raises(ArchiveCorruptError, match=f"bad.fdda: payload of {130112 + delta} bytes, "
                                                  "expected 130112 for the classifier of its meta"):
        load_model(bad)


@pytest.fixture
def saved_quantized(tmp_path):
    """An archive of a quantized model: a policy and activation quantizers."""
    net = build_toy_classifier(seed=7)
    act = [(-1.0, 1.0)] * quant_point_count(net)
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, FakeQuantRuntime(QuantPolicy(), act)))
    return path


def _edit_section(name, change):
    def edit(m):
        change(m[name])
        return m
    return edit


@pytest.mark.parametrize("edit,match", [
    (_edit_section("policy", lambda p: p.update(bogus=1)), "bad quantizers .*'bogus'"),
    (_edit_section("policy", lambda p: p.update(default_bits=2.5)),
     "bad quantizers .*default_bits must be an integer in \\[2, 8\\], got 2.5"),
    (_edit_section("act_quant", lambda q: q.pop()), "7 quantizers for 8 quantization points"),
    (_edit_section("act_quant", lambda q: q[3].update(lower=2.0, upper=-2.0)),
     "bad quantizers .*must exceed lower bound"),
    (_edit_section("act_quant", lambda q: q[0].update(lower=float("nan"))),
     "bad quantizers .*bounds must be finite"),
    (_edit_section("act_quant", lambda q: q[0].update(lower=-10**400)),
     "bad quantizers"),
    (_edit_section("policy", lambda p: p.update(act_bits=100000)),
     "bad quantizers .*act_bits must be an integer in \\[2, 8\\], got 100000"),
    (_edit_section("policy", lambda p: p.update(act_bits=2.5)),
     "bad quantizers .*act_bits must be an integer in \\[2, 8\\], got 2.5"),
    (_edit_section("act_quant", lambda q: q[2].update(bits=4)),
     "bad quantizers .*activation quantizer 2 is .*, expected exactly 'lower' and 'upper'"),
    (_edit_section("act_quant", lambda q: q[5].pop("upper")),
     "bad quantizers .*activation quantizer 5 is .*, expected exactly 'lower' and 'upper'"),
    (_edit_section("act_quant", lambda q: q.__setitem__(1, [-1.0, 1.0])),
     "bad quantizers .*activation quantizer 1 is \\[-1.0, 1.0\\]"),
], ids=["unknown-policy-key", "float-policy-bits", "short-act-quant", "inverted-bounds", "nan-bound", "huge-int-bound",
        "huge-bits", "float-bits", "leftover-bits", "no-upper", "list-entry"])
def test_archive_malformed_optional_section_is_corrupt(saved_quantized, tmp_path, edit, match):
    load_model(saved_quantized)  # the unedited archive loads
    bad = rewrite_manifest(saved_quantized, tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


def test_archived_activation_bits_come_from_the_policy(tmp_path):
    net = build_toy_classifier(seed=7)
    points = quant_point_count(net)
    act = [(-1.0, 1.0)] * points
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, FakeQuantRuntime(QuantPolicy(default_bits=3, act_bits=3), act)))
    assert all(set(q) == {"lower", "upper"} for q in _manifest(path)["act_quant"])
    assert [q.bits for q in load_model(path).quant.act_params] == [3] * points
    edited = rewrite_manifest(path, tmp_path / "a8.fdda",
                              _edit_section("policy", lambda p: p.update(act_bits=8, last_layer_bits=5)))
    back = load_model(edited).quant.act_params
    assert [q.bits for q in back] == [8] * (points - 1) + [5]
    assert [(q.lower, q.upper) for q in back] == [(-1.0, 1.0)] * points


@pytest.mark.parametrize("count", [-1, 1], ids=["one-too-few", "one-too-many"])
def test_quantizers_of_another_count_than_the_points_cannot_be_archived(tmp_path, count):
    # loading gives each quantization point one quantizer, so these could not load back
    net = build_toy_classifier(seed=7)
    act = [(-1.0, 1.0)] * (quant_point_count(net) + count)
    path = tmp_path / "q.fdda"
    with pytest.raises(ValueError, match="cannot archive .* activation quantizers"):
        save_model(path, ModelArchive(net, FakeQuantRuntime(QuantPolicy(default_bits=3), act)))
    assert not path.exists()


@pytest.mark.parametrize("missing", ["act_quant", "policy"])
def test_archive_with_one_of_the_two_quantizer_keys_is_corrupt(saved_quantized, tmp_path, missing):
    bad = rewrite_manifest(saved_quantized, tmp_path / "bad.fdda",
                           lambda m: {k: v for k, v in m.items() if k != missing})
    with pytest.raises(ArchiveCorruptError, match=f"bad quantizers \\(no '{missing}' key\\)"):
        load_model(bad)


@pytest.fixture(scope="module")
def archive_bytes(tmp_path_factory):
    """The bytes of a quantized model's archive, the positions of the digits
    in its manifest, and a scratch path for mutated copies."""
    root = tmp_path_factory.mktemp("mutated")
    net = build_toy_classifier(seed=8)
    act = [(-1.0, 1.0)] * quant_point_count(net)
    save_model(root / "q.fdda", ModelArchive(net, FakeQuantRuntime(QuantPolicy(default_bits=3), act)))
    raw = (root / "q.fdda").read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    digits = [i for i in range(8, 8 + mlen) if raw[i : i + 1].isdigit()]
    return raw, digits, root / "mutated.fdda"


def _loads_or_raises_archive_error(path, raw):
    path.write_bytes(raw)
    try:
        load_model(path)
    except ArchiveError:
        pass


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0, max_value=2**31))
def test_truncated_archive_loads_or_raises_archive_error(archive_bytes, cut):
    raw, _, path = archive_bytes
    _loads_or_raises_archive_error(path, raw[: cut % len(raw)])


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_archive_loads_or_raises_archive_error(archive_bytes, data):
    raw, digits, path = archive_bytes
    head = digits[-1] + 1
    at, byte = data.draw(st.one_of(
        # a number of the manifest turned into another number, often a float
        st.tuples(st.sampled_from(digits), st.sampled_from(list(b"0123456789.e-"))),
        # any byte of the manifest, as a byte that keeps it parsable as often as not
        st.tuples(st.integers(0, head - 1), st.sampled_from(list(b'0123456789-.e,:[]{}" tfnul'))),
        # any byte of the file, as any byte
        st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
    ))
    _loads_or_raises_archive_error(path, raw[:at] + bytes([byte]) + raw[at + 1 :])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_settings_valid():
    s = RunSettings()
    assert s.train.total_epochs == 60
    assert s.weights.kd == 20.0
    assert s.policy.default_bits == 4
    assert s.distortion.mean_std == 0.5 and s.distortion.var_std == 1.0


def test_settings_from_dict_and_overrides(tmp_path):
    cfg = {"train": {"total_epochs": 5, "seed": 3}, "policy": {"default_bits": 8}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    s = load_settings(path, overrides={"train.total_epochs": 7, "weights.cbns": 0.0})
    assert s.train.total_epochs == 7  # flag wins over file
    assert s.train.seed == 3
    assert s.policy.default_bits == 8
    assert s.weights.cbns == 0.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        settings_from_dict({"train": {"bogus_key": 1}})
    with pytest.raises(ConfigError):
        settings_from_dict({"not_a_section": {}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        settings_from_dict({"policy": {"default_bits": 9}})
    with pytest.raises(ConfigError):
        settings_from_dict({"weights": {"cbns": -1.0}})
    with pytest.raises(ConfigError):
        settings_from_dict({"distortion": {"var_std": -0.1}})
    with pytest.raises(ConfigError):
        settings_from_dict({"train": {"mix_ratio": 1.5}})


def test_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ConfigError):
        load_settings(path)


def test_settings_to_dict_roundtrip():
    s = RunSettings(classes=(0, 1, 2))
    d = s.to_dict()
    s2 = settings_from_dict(json.loads(json.dumps(d)))
    assert s2 == s


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_BASE = json.loads(json.dumps(RunSettings(classes=(0, 1)).to_dict()))
_SECTIONS = [k for k, v in _BASE.items() if isinstance(v, dict)]
_KEYS = [(k,) for k in _BASE] + [(s, k) for s in _SECTIONS for k in _BASE[s]]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_config_loads_or_raises_config_error(config_path, data):
    raw = json.loads(json.dumps(_BASE))
    kind = data.draw(st.sampled_from(["value", "unknown key", "section"]))
    if kind == "value":  # a random JSON value for any key
        *parents, leaf = data.draw(st.sampled_from(_KEYS))
        node = raw[parents[0]] if parents else raw
        # small numbers, often in range, load more often than arbitrary JSON
        node[leaf] = data.draw(st.one_of(st.integers(-1, 9), st.floats(-1, 9), _JSON))
    elif kind == "unknown key":
        where = data.draw(st.sampled_from([None] + _SECTIONS))
        node = raw if where is None else raw[where]
        node[data.draw(st.text(max_size=8).filter(lambda k: k not in node))] = data.draw(_JSON)
    else:  # a section that is not an object
        raw[data.draw(st.sampled_from(_SECTIONS))] = data.draw(
            _JSON.filter(lambda v: not isinstance(v, dict)))
    config_path.write_text(json.dumps(raw))
    overrides = data.draw(st.sampled_from([{}, {"train.seed": 3}, {"weights.cbns": 0.0}]))
    try:
        s = load_settings(config_path, overrides)
    except ConfigError:
        return
    # what loads has the types of the defaults and survives the report's JSON round trip
    assert _loads_with_types_of_base(s)
    assert settings_from_dict(json.loads(json.dumps(s.to_dict()))) == s


def test_null_classes_loads_as_every_class(config_path):
    raw = json.loads(json.dumps(_BASE))
    raw["classes"] = None
    config_path.write_text(json.dumps(raw))
    s = load_settings(config_path, {})
    assert s.classes is None
    assert _loads_with_types_of_base(s)


def _loads_with_types_of_base(s) -> bool:
    """Whether loaded settings have the types of `_BASE`. `classes` defaults
    to None (every class); `_BASE` sets it only to type its entries, so None
    fits it too."""
    d = s.to_dict()
    if d["classes"] is None:
        d["classes"] = _BASE["classes"]
    return _has_types_of(d, _BASE)


def _has_types_of(value, default) -> bool:
    """Whether a loaded value has the type of the default it stands for; an
    integer may stand for a float, and a None default says nothing."""
    if isinstance(default, dict):
        return all(_has_types_of(value[k], default[k]) for k in default)
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_has_types_of(v, default[0]) for v in value)
    return default is None or type(value) is type(default) or \
        (type(default) is float and type(value) is int)
