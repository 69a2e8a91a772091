import re

import numpy as np
import pytest

from flowfuse.checkpoint import MAGIC, load_checkpoint, save_checkpoint


def test_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "enc.w0": rng.standard_normal((4, 1, 3, 3)),
        "enc.b0": rng.standard_normal((4, 1, 1)),
        "scalarish": np.array(3.14159),
        "spectrum": rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        "empty-ish": np.zeros(0),
    }
    p = tmp_path / "model.rffz"
    save_checkpoint(p, tensors)
    back = load_checkpoint(p)
    assert set(back) == set(tensors)
    for k, v in tensors.items():
        assert back[k].shape == np.asarray(v).shape
        assert np.asarray(v, dtype=back[k].dtype).tobytes() == back[k].tobytes(), k


def test_save_load_save_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"a": rng.standard_normal((3, 5)), "b": rng.standard_normal(7)}
    p1, p2 = tmp_path / "one.rffz", tmp_path / "two.rffz"
    save_checkpoint(p1, tensors)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_bytes_present(tmp_path):
    p = tmp_path / "m.rffz"
    save_checkpoint(p, {"x": np.zeros(2)})
    assert p.read_bytes()[:4] == MAGIC == b"RFFZ"


def test_version_mismatch_is_hard_error(tmp_path):
    p = tmp_path / "v.rffz"
    save_checkpoint(p, {"x": np.zeros(2)})
    blob = bytearray(p.read_bytes())
    blob[4] = 99  # patch the version field
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version 99"):
        load_checkpoint(p)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.rffz"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def test_truncated_file_names_the_field_being_read(tmp_path):
    tensors = {"w": np.arange(6.0).reshape(2, 3), "s": np.array(2.5), "z": np.array([1 + 2j])}
    full = tmp_path / "full.rffz"
    save_checkpoint(full, tensors)
    blob = full.read_bytes()
    cut = tmp_path / "cut.rffz"
    seen = set()
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        want = f"^{re.escape(str(cut))}: truncated at byte {length} while reading "
        with pytest.raises(ValueError, match=want) as e:
            load_checkpoint(cut)
        seen.add(str(e.value).split(" while reading ")[1])
    assert seen == {
        "the magic", "the version and tensor count",
        *(f"tensor {i}'s name length" for i in range(3)),
        *(f"tensor {i}'s name" for i in range(3)),
        *(f"tensor {n!r}'s {part}" for n in tensors
          for part in ("dtype and rank", "extents", "payload") if (n, part) != ("s", "extents")),
    }
    assert load_checkpoint(full).keys() == tensors.keys()


def _flow_tensors(tmp_path):
    from flowfuse.checkpoint import save_flow_checkpoint
    from flowfuse.flow import VelocityModel

    model = VelocityModel.mlp(dim=6, hidden=(5, 4), seed=2)
    p = tmp_path / "flow.rffz"
    save_flow_checkpoint(p, model)
    return model, p, load_checkpoint(p)


def test_flow_checkpoint_roundtrip(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    model, p, _ = _flow_tensors(tmp_path)
    back = load_flow_checkpoint(p)
    assert back.kind == "mlp" and back.meta == model.meta
    assert back.params.names() == model.params.names()
    for k in model.params.names():
        assert np.array_equal(back.params[k], model.params[k]), k
    x = np.random.default_rng(3).standard_normal((2, 6))
    assert np.array_equal(back.evaluate(x, 0.4), model.evaluate(x, 0.4))


def test_flow_checkpoint_missing_tensor_named(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    del tensors["flow.params.b1"]
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError, match=r"flow\.rffz.*missing tensor flow\.params\.b1"):
        load_flow_checkpoint(p)


def test_flow_checkpoint_wrong_shape_named(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    tensors["flow.params.w0"] = tensors["flow.params.w0"][:-1]  # drops the t row
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError,
                       match=r"flow\.rffz.*flow\.params\.w0 has shape \(6, 5\), expected \(7, 5\)"):
        load_flow_checkpoint(p)


@pytest.mark.parametrize("alpha", [1.5, -0.2])
def test_flow_checkpoint_slope_outside_zero_one_named(tmp_path, alpha):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    tensors["flow.meta"] = np.array([tensors["flow.meta"][0], alpha])
    save_checkpoint(p, tensors)
    want = rf"flow\.rffz: flow\.meta leaky slope must be in \[0, 1\], got {alpha}"
    with pytest.raises(ValueError, match=want):
        load_flow_checkpoint(p)


@pytest.mark.parametrize("alpha", [1.5, -0.2])
def test_codec_checkpoint_slope_outside_zero_one_named(tmp_path, alpha):
    from flowfuse.checkpoint import load_codec_checkpoint, save_codec_checkpoint
    from flowfuse.codec import CodecParams

    p = tmp_path / "codec.rffz"
    save_codec_checkpoint(p, CodecParams.initialize(hidden=(4, 4), seed=0))
    tensors = load_checkpoint(p)
    assert load_codec_checkpoint(p).alpha == tensors["codec.meta"][-1] == 0.2
    tensors["codec.meta"][-1] = alpha
    save_checkpoint(p, tensors)
    want = rf"codec\.rffz: codec\.meta leaky slope must be in \[0, 1\], got {alpha}"
    with pytest.raises(ValueError, match=want):
        load_codec_checkpoint(p)


_W1 = np.zeros((6, 3, 3, 3))  # (6, 4, 3, 3) for hidden (4, 6)


@pytest.mark.parametrize("changes, match", [
    ({"codec.enc.w1": _W1, "codec.enc.w1.m": _W1, "codec.enc.w1.v": _W1},
     r"codec\.rffz: tensor codec\.enc\.w1 has shape \(6, 3, 3, 3\), expected \(6, 4, 3, 3\)"),
    ({"codec.dec.b2.m": None}, r"codec\.rffz: missing tensor codec\.dec\.b2\.m"),
    ({"codec.enc.w3.m": np.zeros((4, 6, 3, 3))},
     r"codec\.rffz: unexpected tensor codec\.enc\.w3\.m"),
    ({"codec.meta": np.array([1.0, 4.0, 6.0, 0.2])},
     r"codec\.rffz: tensor codec\.meta has shape \(4,\), expected \(5,\)"),
    ({"codec.meta": np.array([[1.0, 4.0, 6.0, 4.0, 0.2]])},
     r"codec\.rffz: tensor codec\.meta has shape \(1, 5\), expected \(5,\)"),
    ({"codec.meta": np.array([1.0, 4.5, 6.0, 4.0, 0.2])},
     r"codec\.rffz: tensor codec\.meta holds extent 4\.5, expected a positive integer"),
    ({"codec.meta": np.array([1.0, 4.0, 6.0, 0.0, 0.2])},
     r"codec\.rffz: tensor codec\.meta holds extent 0\.0, expected a positive integer"),
    ({"codec.meta": np.array([np.nan, 4.0, 6.0, 4.0, 0.2])},
     r"codec\.rffz: tensor codec\.meta holds extent nan, expected a positive integer"),
], ids=["wrong shape", "missing moment", "unexpected tensor", "short meta", "rank-2 meta",
        "fractional extent", "zero extent", "nan extent"])
def test_codec_checkpoint_tensor_fault_named(tmp_path, changes, match):
    from flowfuse.checkpoint import load_codec_checkpoint, save_codec_checkpoint
    from flowfuse.codec import CodecParams

    p = tmp_path / "codec.rffz"
    save_codec_checkpoint(p, CodecParams.initialize(hidden=(4, 6), seed=0))
    tensors = load_checkpoint(p)
    for key, value in changes.items():
        if value is None:
            del tensors[key]
        else:
            tensors[key] = value
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError, match=match):
        load_codec_checkpoint(p)


def test_flow_checkpoint_missing_moment_named(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    del tensors["flow.params.b1.v"]
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError, match=r"flow\.rffz: missing tensor flow\.params\.b1\.v"):
        load_flow_checkpoint(p)


@pytest.mark.parametrize("key, value, match", [
    ("flow.meta", np.array([6.0]),
     r"flow\.rffz: tensor flow\.meta has shape \(1,\), expected \(2,\)"),
    ("flow.meta", np.array([6.0, 0.2, 1.0]),
     r"flow\.rffz: tensor flow\.meta has shape \(3,\), expected \(2,\)"),
    ("flow.hidden", None, r"flow\.rffz: missing tensor flow\.hidden"),
    ("flow.hidden", np.array(5.0),
     r"flow\.rffz: tensor flow\.hidden has shape \(\), expected a vector"),
    ("flow.meta", np.array([4.5, 0.2]),
     r"flow\.rffz: tensor flow\.meta holds extent 4\.5, expected a positive integer"),
    ("flow.meta", np.array([-6.0, 0.2]),
     r"flow\.rffz: tensor flow\.meta holds extent -6\.0, expected a positive integer"),
    ("flow.hidden", np.array([5.0, 0.0]),
     r"flow\.rffz: tensor flow\.hidden holds extent 0\.0, expected a positive integer"),
    ("flow.hidden", np.array([5.0, np.inf]),
     r"flow\.rffz: tensor flow\.hidden holds extent inf, expected a positive integer"),
], ids=["short", "long", "no hidden", "scalar hidden", "fractional dim", "negative dim",
        "zero width", "infinite width"])
def test_flow_checkpoint_meta_fault_named(tmp_path, key, value, match):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    if value is None:
        del tensors[key]
    else:
        tensors[key] = value
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError, match=match):
        load_flow_checkpoint(p)
