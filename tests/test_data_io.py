"""Toy dataset determinism, calibration extraction, the archive round trip,
and config validation."""

import json
import struct

import numpy as np
import pytest

from fdda.archive import (
    ArchiveCorruptError,
    ArchiveVersionError,
    ModelArchive,
    load_model,
    save_model,
)
from fdda.bns import build_class_centroids, deep_layer_start
from fdda.config import ConfigError, RunSettings, load_settings, settings_from_dict
from fdda.data import (
    CalibrationSet,
    ToyDatasetSpec,
    class_pattern,
    extract_calibration,
    make_toy_dataset,
)
from fdda.models import build_toy_classifier
from fdda.network import quant_point_count
from fdda.quantizer import QuantParams, QuantPolicy


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
    assert calib.available_classes == set(range(8))

    sub = extract_calibration(train, 8, classes=[0, 1, 2, 3, 4, 5])
    assert len(sub) == 6
    assert sub.available_classes == set(range(6))


def test_calibration_empty_subset():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8, classes=[])
    assert len(calib) == 0
    assert calib.available_classes == frozenset()


def test_calibration_takes_first_indexed_sample():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8, classes=[3])
    first_idx = np.nonzero(train.labels == 3)[0][0]
    assert np.array_equal(calib.images[0], train.images[first_idx])


def test_calibration_missing_class_errors():
    train, _ = make_toy_dataset(ToyDatasetSpec())
    with pytest.raises(ValueError):
        extract_calibration(train, 8, classes=[11])


def test_calibration_unique_labels_enforced():
    with pytest.raises(ValueError):
        CalibrationSet(np.zeros((2, 1, 4, 4), np.float32), np.array([1, 1]), 8)


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------

def test_archive_roundtrip_bitwise(tmp_path):
    net = build_toy_classifier(seed=3)
    path = tmp_path / "f.fdda"
    save_model(path, net)
    loaded = load_model(path).network
    assert loaded.state_equal(net)
    assert [type(l) for l in loaded.layers] == [type(l) for l in net.layers]
    assert loaded.meta == net.meta
    assert loaded.bn_layer_count == net.bn_layer_count


def test_archive_roundtrip_with_sections(tmp_path):
    net = build_toy_classifier(seed=4)
    train, _ = make_toy_dataset(ToyDatasetSpec())
    calib = extract_calibration(train, 8, classes=[0, 1, 2])
    cen = build_class_centroids(net, calib, deep_layer_start(net.bn_layer_count))
    # one activation quantizer per quantization point, as load_model requires
    points = quant_point_count(net)
    act = [QuantParams(4, -1.0, 1.0)] + [QuantParams(4, 0.0, 2.5)] * (points - 1)
    policy = QuantPolicy(default_bits=4, first_layer_bits=8)
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, centroids=cen, act_quant=act, policy=policy))
    back = load_model(path)
    assert back.centroids.available_classes == {0, 1, 2}
    assert back.centroids.deep_start == cen.deep_start
    for c in cen.per_class:
        for l in cen.deep_layers():
            np.testing.assert_array_equal(back.centroids.per_class[c][l][0],
                                          cen.per_class[c][l][0])
    assert [q.bits for q in back.act_quant] == [4] * points
    assert back.act_quant[1].upper == 2.5
    assert back.policy == policy


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

    manifest = json.dumps({"version": 99, "arrays": [], "layers": [], "meta": {}}).encode()
    path = tmp_path / "vers.fdda"
    path.write_bytes(b"FDA1" + struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(ArchiveVersionError):
        load_model(path)


def test_archive_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.fdda")


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


def _drop_array(name):
    def edit(m):
        m["arrays"] = [a for a in m["arrays"] if a["name"] != name]
        return m
    return edit


def _rename_first_kind(m):
    m["layers"][0]["kind"] = "deconv"
    return m


def _shrink_array(name):
    def edit(m):
        for a in m["arrays"]:
            if a["name"] == name:
                rows = a["shape"][0]
                a["nbytes"] = a["nbytes"] // rows * (rows - 1)
                a["shape"] = [rows - 1] + a["shape"][1:]
        return m
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda m: [m], "not a JSON object"),
    (lambda m: {k: v for k, v in m.items() if k != "arrays"}, "'arrays'"),
    (lambda m: {**m, "arrays": [{"name": "param:conv1.w"}] + m["arrays"]}, "bad array entry"),
    (_rename_first_kind, "unknown layer spec"),
    (_drop_array("param:conv1.w"), "missing array param:conv1.w"),
    (_drop_array("buffer:bn6.running_var"), "missing array buffer:bn6.running_var"),
    (_shrink_array("param:fc2.b"), "param:fc2.b has shape"),
], ids=["list-manifest", "no-arrays", "bad-array-entry", "unknown-kind", "missing-param", "missing-buffer",
        "wrong-shape"])
def test_archive_malformed_manifest_is_corrupt(saved_classifier, tmp_path, edit, match):
    bad = rewrite_manifest(saved_classifier, tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


@pytest.fixture
def saved_quantized(tmp_path):
    """An archive with every optional section: centroids, activation
    quantizers and policy."""
    net = build_toy_classifier(seed=7)
    train, _ = make_toy_dataset(ToyDatasetSpec())
    cen = build_class_centroids(net, extract_calibration(train, 8, classes=[0, 1]), 5)
    act = [QuantParams(4, -1.0, 1.0)] * quant_point_count(net)
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, centroids=cen, act_quant=act, policy=QuantPolicy()))
    return path


def _edit_section(name, change):
    def edit(m):
        change(m[name])
        return m
    return edit


@pytest.mark.parametrize("edit,match", [
    (_edit_section("policy", lambda p: p.update(bogus=1)), "bad policy section"),
    (_drop_array("centroid:1:6:var"), "missing array centroid:1:6:var"),
    (_edit_section("act_quant", lambda q: q.pop()), "7 quantizers for 8 quantization points"),
    (_edit_section("act_quant", lambda q: q[3].update(lower=2.0, upper=-2.0)),
     "bad act_quant section"),
    (_edit_section("act_quant", lambda q: q[0].update(lower=float("nan"))),
     "non-finite activation bounds"),
], ids=["unknown-policy-key", "missing-centroid", "short-act-quant", "inverted-bounds",
        "nan-bound"])
def test_archive_malformed_optional_section_is_corrupt(saved_quantized, tmp_path, edit, match):
    load_model(saved_quantized)  # the unedited archive loads
    bad = rewrite_manifest(saved_quantized, tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


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
    s = load_settings(path, overrides={"train.total_epochs": 7, "use_cbns": False})
    assert s.train.total_epochs == 7  # flag wins over file
    assert s.train.seed == 3
    assert s.policy.default_bits == 8
    assert s.use_cbns is False


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
    s = RunSettings(classes=(0, 1, 2), predict_labels=True)
    d = s.to_dict()
    s2 = settings_from_dict(json.loads(json.dumps(d)))
    assert s2 == s
