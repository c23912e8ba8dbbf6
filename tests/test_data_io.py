"""Toy dataset determinism, calibration extraction, the archive round trip,
and config validation."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdda.archive import (
    ArchiveCorruptError,
    ArchiveError,
    ArchiveVersionError,
    ModelArchive,
    load_model,
    save_model,
)
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
from fdda.quantizer import FakeQuantRuntime, QuantParams, QuantPolicy

from helpers import state_equal


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


def test_calibration_unique_labels_enforced():
    with pytest.raises(ValueError):
        CalibrationSet(np.zeros((2, 1, 4, 4), np.float32), np.array([1, 1]))


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
    act = [QuantParams(8, -1.0, 1.0)] + [QuantParams(4, 0.0, 2.5)] * (points - 1)
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

    manifest = json.dumps({"version": 99, "arrays": [], "layers": [], "meta": {}}).encode()
    path = tmp_path / "vers.fdda"
    path.write_bytes(b"FDA1" + struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(ArchiveVersionError):
        load_model(path)


def test_version_1_archive_is_rejected(saved_classifier, tmp_path):
    def as_version_1(m):
        m["version"] = 1
        for layer in m["layers"]:
            if layer["kind"] == "conv2d":
                layer["stride"] = 1
        return m

    old = rewrite_manifest(saved_classifier, tmp_path / "v1.fdda", as_version_1)
    with pytest.raises(ArchiveVersionError, match="format version 1, expected 5"):
        load_model(old)


def _as_version_2(m):
    """A format-2 manifest: a bn_layer_count key."""
    m["version"] = 2
    m["bn_layer_count"] = sum(layer["kind"] == "batchnorm" for layer in m["layers"])
    return m


def test_version_2_archive_is_rejected(saved_quantized, tmp_path):
    old = rewrite_manifest(saved_quantized, tmp_path / "v2.fdda", _as_version_2)
    with pytest.raises(ArchiveVersionError, match="format version 2, expected 5"):
        load_model(old)


def _as_version_3(m):
    """A format-3 manifest: the quantized archive plus a centroids section
    (its centroid:{l}:mean|var arrays are left out; the version check
    comes first)."""
    m["version"] = 3
    m["centroids"] = {"deep_start": 1, "layer_count": 6, "classes": [0, 1]}
    return m


def test_version_3_archive_is_rejected(saved_quantized, tmp_path):
    old = rewrite_manifest(saved_quantized, tmp_path / "v3.fdda", _as_version_3)
    with pytest.raises(ArchiveVersionError, match="format version 3, expected 5"):
        load_model(old)


def _as_version_4(m):
    """A format-4 manifest: each activation quantizer also stores its
    bit-width, which format 5 takes from the policy."""
    m["version"] = 4
    for point, q in enumerate(m.get("act_quant", [])):
        q["bits"] = QuantPolicy(**m["policy"]).activation_bits(point, len(m["act_quant"]))
    return m


@pytest.mark.parametrize("archive", ["saved_classifier", "saved_quantized"])
def test_version_4_archive_is_rejected(request, tmp_path, archive):
    old = rewrite_manifest(request.getfixturevalue(archive), tmp_path / "v4.fdda", _as_version_4)
    with pytest.raises(ArchiveVersionError, match="format version 4, expected 5"):
        load_model(old)


def test_manifest_has_no_bn_layer_count(saved_classifier):
    assert "bn_layer_count" not in _manifest(saved_classifier)


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


def _drop_array(name):
    def edit(m):
        m["arrays"] = [a for a in m["arrays"] if a["name"] != name]
        return m
    return edit


def _rename_first_kind(m):
    m["layers"][0]["kind"] = "deconv"
    return m


def _edit_first(section, **fields):
    def edit(m):
        m[section][0].update(fields)
        return m
    return edit


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
    (_edit_first("layers", pad=3),
     "conv2d layer 'conv1' needs kernel >= 1 and 0 <= pad < kernel, got kernel 3, pad 3"),
    (_edit_first("layers", kernel=0, pad=0),
     "conv2d layer 'conv1' needs kernel >= 1 and 0 <= pad < kernel, got kernel 0, pad 0"),
    (_edit_first("layers", pad=-1), "got kernel 3, pad -1"),
    (_edit_first("layers", upsample=True, pad=0),
     "conv2d layer 'conv1' upsamples only with kernel 3 and pad 1, got kernel 3, pad 0"),
    (_edit_first("layers", upsample=True, kernel=5),
     "conv2d layer 'conv1' upsamples only with kernel 3 and pad 1, got kernel 5, pad 1"),
    (_edit_first("layers", upsample=1), "conv2d layer 'conv1' needs a boolean upsample, got 1"),
    (_edit_first("arrays", nbytes=2.5), "bad array entry"),
], ids=["list-manifest", "no-arrays", "bad-array-entry", "unknown-kind", "missing-param", "missing-buffer",
        "wrong-shape", "conv-pad-not-below-kernel", "conv-kernel-zero", "conv-pad-negative",
        "upsample-pad-0", "upsample-kernel-5", "upsample-not-bool", "float-nbytes"])
def test_archive_malformed_manifest_is_corrupt(saved_classifier, tmp_path, edit, match):
    bad = rewrite_manifest(saved_classifier, tmp_path / "bad.fdda", edit)
    with pytest.raises(ArchiveCorruptError, match=match):
        load_model(bad)


@pytest.fixture
def saved_quantized(tmp_path):
    """An archive of a quantized model: a policy and activation quantizers."""
    net = build_toy_classifier(seed=7)
    act = [QuantParams(4, -1.0, 1.0)] * quant_point_count(net)
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
    act = [QuantParams(3, -1.0, 1.0)] * points
    path = tmp_path / "q.fdda"
    save_model(path, ModelArchive(net, FakeQuantRuntime(QuantPolicy(default_bits=3, act_bits=3), act)))
    assert all(set(q) == {"lower", "upper"} for q in _manifest(path)["act_quant"])
    assert [q.bits for q in load_model(path).quant.act_params] == [3] * points
    edited = rewrite_manifest(path, tmp_path / "a8.fdda",
                              _edit_section("policy", lambda p: p.update(act_bits=8, last_layer_bits=5)))
    back = load_model(edited).quant.act_params
    assert [q.bits for q in back] == [8] * (points - 1) + [5]
    assert [(q.lower, q.upper) for q in back] == [(-1.0, 1.0)] * points


@pytest.mark.parametrize("bits,count", [(8, 0), (3, -1), (3, 1)],
                         ids=["wrong-bits", "one-too-few", "one-too-many"])
def test_quantizers_whose_bits_differ_from_the_policy_cannot_be_archived(tmp_path, bits, count):
    # the archive stores no activation bit-width, so these could not load back
    net = build_toy_classifier(seed=7)
    act = [QuantParams(bits, -1.0, 1.0)] * (quant_point_count(net) + count)
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
    act = [QuantParams(3, -1.0, 1.0)] * quant_point_count(net)
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
    s = RunSettings(classes=(0, 1, 2), predict_labels=True)
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
