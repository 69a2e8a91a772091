import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowfuse.checkpoint import MAGIC, load_checkpoint, save_checkpoint

MiB = 2**20


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


def test_codec_checkpoint_with_three_input_channels_rejected(tmp_path):
    # a file whose tensors agree with 3 input channels: the codec maps luma
    # alone, so the load refuses it rather than fail later inside conv2d
    from flowfuse.checkpoint import load_codec_checkpoint, save_codec_checkpoint
    from flowfuse.codec import CodecParams

    p = tmp_path / "codec.rffz"
    save_codec_checkpoint(p, CodecParams.initialize(hidden=(4, 6), seed=0))
    tensors = load_checkpoint(p)
    assert tensors["codec.meta"][0] == 1.0
    tensors["codec.meta"][0] = 3.0
    three = {"enc.w0": (4, 3, 3, 3), "dec.w2": (4, 3, 3, 3), "dec.b2": (3, 1, 1)}
    for name, shape in three.items():
        for suffix in ("", ".m", ".v"):
            tensors[f"codec.{name}{suffix}"] = np.zeros(shape)
    save_checkpoint(p, tensors)
    want = r"codec\.rffz: tensor codec\.meta holds 3 input channels, expected 1"
    with pytest.raises(ValueError, match=want):
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


def test_flow_checkpoint_wrong_shaped_moment_named(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    tensors["flow.params.w1.m"] = np.zeros((4, 5))
    save_checkpoint(p, tensors)
    with pytest.raises(ValueError, match=r"flow\.rffz: tensor flow\.params\.w1\.m has shape "
                                         r"\(4, 5\), expected \(5, 4\)"):
        load_flow_checkpoint(p)


def test_flow_checkpoint_cut_inside_a_moment_payload_named(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, _ = _flow_tensors(tmp_path)
    blob = p.read_bytes()
    # the last tensor is the last parameter's second moment; cut one byte short
    p.write_bytes(blob[:-1])
    want = (rf"flow\.rffz: truncated at byte {len(blob) - 1} while reading "
            r"tensor 'flow\.params\.b2\.v''s payload")
    with pytest.raises(ValueError, match=want):
        load_flow_checkpoint(p)


def test_flow_checkpoint_loads_stored_params_and_step_with_zero_moments(tmp_path):
    from flowfuse.checkpoint import load_flow_checkpoint, save_flow_checkpoint
    from flowfuse.flow import VelocityModel
    from flowfuse.optim import ParamSet

    model = VelocityModel.mlp(dim=6, hidden=(5, 4), seed=2)
    ps = model.params
    moment = {k: np.full(p.shape, 0.5) for k, p in ps.params.items()}
    p = tmp_path / "flow.rffz"
    save_flow_checkpoint(p, model.with_params(ParamSet(ps.params, moment, moment, 7)))
    back = load_flow_checkpoint(p).params
    assert back.step == 7
    for k in ps.names():
        assert np.array_equal(back[k], ps[k]), k
        assert back.m[k].shape == back.v[k].shape == ps[k].shape
        assert not back.m[k].any() and not back.v[k].any(), k
        assert back.m[k].flags.writeable and back[k].flags.writeable
    assert load_checkpoint(p)["flow.params.w0.m"].tolist() == moment["w0"].tolist()


@pytest.mark.parametrize("step", [np.nan, np.inf, -1.0, 2.5])
def test_paramset_step_that_is_not_a_count_named(tmp_path, step):
    from flowfuse.checkpoint import load_flow_checkpoint

    _, p, tensors = _flow_tensors(tmp_path)
    tensors["flow.params.step"] = np.array(step)
    save_checkpoint(p, tensors)
    want = rf"flow\.rffz: tensor flow\.params\.step holds {step}, expected a non-negative integer"
    with pytest.raises(ValueError, match=want):
        load_flow_checkpoint(p)


def _pinned_tensors():
    return {
        "w": np.arange(6.0).reshape(2, 3) / 7,
        "s": np.array(2.5),
        "z": np.array([1 + 2j, -0.5j, 3.0]),
        "f": np.arange(12.0).reshape(3, 4).T,  # a Fortran-ordered view
        "i": np.arange(-2, 3),
    }


def test_written_bytes_are_pinned(tmp_path):
    # the digest of these tensors as the format was first written: a 0-d
    # array stays 0-d, a Fortran view is stored in C order, integers as float64
    p = tmp_path / "pin.rffz"
    save_checkpoint(p, _pinned_tensors())
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "e21817ad543ad3a250be520580d3384a3a37d5ed69102f8ce00467bca8c71404")
    back = load_checkpoint(p)
    assert back["s"].shape == () and back["f"].shape == (4, 3)
    assert back["i"].dtype == np.float64 and back["z"].dtype == np.complex128


@pytest.mark.parametrize("dtype", [np.complex64, np.clongdouble])
def test_every_complex_dtype_is_stored_as_complex128(tmp_path, dtype):
    p = tmp_path / "z.rffz"
    save_checkpoint(p, {"z": np.array([1 + 2j, -3j], dtype=dtype)})
    back = load_checkpoint(p)["z"]
    assert back.dtype == np.complex128 and back.tolist() == [1 + 2j, -3j]


@pytest.mark.parametrize("value", [np.array([True, False]), np.array(["1.5"]),
                                   np.array([1.0, None]), np.array([1], dtype="M8[s]")],
                         ids=["bool", "str", "object", "datetime"])
def test_save_rejects_a_dtype_neither_real_nor_complex(tmp_path, value):
    p = tmp_path / "bad.rffz"
    with pytest.raises(ValueError, match=r"bad\.rffz: tensor 'x' has dtype .*, expected a real"):
        save_checkpoint(p, {"ok": np.zeros(2), "x": value})
    assert not p.exists()


def _blob(tensors):
    """The container bytes of {name: (shape, payload)}, real tensors only, as
    the layout spells them out; a name may be bytes."""
    out = [MAGIC, struct.pack("<II", 1, len(tensors))]
    for name, (shape, payload) in tensors.items():
        nb = name.encode("utf-8") if isinstance(name, str) else name
        out += [struct.pack(f"<I{len(nb)}sBB{len(shape)}Q", len(nb), nb, 1, len(shape), *shape),
                payload]
    return b"".join(out)


@pytest.mark.parametrize("blob, match", [
    (_blob({"a": ((1,), bytes(8)), b"\xff\xfe": ((1,), bytes(8))}),
     r"tensor 1's name is not UTF-8"),
    (_blob({"a": ((1,), bytes(8)), b"a": ((2,), bytes(16))}), r"duplicate tensor 'a'"),
    (_blob({"a": ((1,), bytes(8)), "b": ((2,), bytes(16))}) + b"\x00",
     r"1 bytes after tensor 'b'"),
    (_blob({}) + b"RFFZ", r"4 bytes after the header"),
], ids=["name not utf-8", "duplicate name", "bytes after the last tensor", "bytes after no tensor"])
def test_reader_boundary_fault_named(tmp_path, blob, match):
    p = tmp_path / "c.rffz"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: {match}"):
        load_checkpoint(p)


def test_empty_tensor_with_an_extent_numpy_cannot_hold_named(tmp_path):
    p = tmp_path / "c.rffz"
    p.write_bytes(_blob({"e": ((2**64 - 1, 0), b"")}))
    with pytest.raises(ValueError, match=r"c\.rffz: tensor 'e' has shape \(18446744073709551615, 0\)"):
        load_checkpoint(p)


@pytest.mark.parametrize("cut", [10, 20, 60], ids=["in the header", "in a tensor header",
                                                   "in a payload"])
def test_a_file_that_shrinks_while_read_is_rejected(tmp_path, monkeypatch, cut):
    import os

    from flowfuse import checkpoint

    p = tmp_path / "c.rffz"
    save_checkpoint(p, {"w": np.arange(6.0)})
    full = os.stat(p)
    p.write_bytes(p.read_bytes()[:cut])
    # the size the file had when the reader asked for it, before a writer cut it
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: full)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: shrank while reading "):
        load_checkpoint(p)


def test_a_save_that_fails_mid_file_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    import builtins

    from flowfuse import checkpoint

    p = tmp_path / "c.rffz"
    old = {"w": np.arange(6.0)}
    save_checkpoint(p, old)

    class FullDisk:
        """A file whose second write stores half its bytes, then fails."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                self.f.write(bytes(data)[:len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.f.write(data)

    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: FullDisk(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(p, {"w": np.ones(6), "v": np.zeros(3)})
    monkeypatch.undo()
    assert [f.name for f in tmp_path.iterdir()] == ["c.rffz"]
    back = load_checkpoint(p)
    assert set(back) == {"w"} and np.array_equal(back["w"], old["w"])


def test_a_save_replaces_the_old_file_whole(tmp_path):
    p = tmp_path / "c.rffz"
    save_checkpoint(p, {"w": np.arange(600.0)})
    save_checkpoint(p, {"v": np.ones(2)})
    assert [f.name for f in tmp_path.iterdir()] == ["c.rffz"]
    back = load_checkpoint(p)
    assert set(back) == {"v"} and np.array_equal(back["v"], np.ones(2))


def _traced_peak(fn, *args):
    """fn(*args) and the traced allocation peak above the memory held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_no_second_copy(tmp_path):
    from flowfuse.checkpoint import save_flow_checkpoint
    from flowfuse.flow import VelocityModel

    # the fuse path's model at 128 px with the default widths: a 24.5 MiB file
    model = VelocityModel.mlp(dim=4096, hidden=(128, 128), seed=0)
    p = tmp_path / "flow.rffz"
    _, peak = _traced_peak(save_flow_checkpoint, p, model)
    assert peak <= 1 * MiB
    tensors, peak = _traced_peak(load_checkpoint, p)
    held = sum(a.nbytes for a in tensors.values())
    assert held > 24 * MiB and peak <= held + 1 * MiB


def _codec_file(p):
    from flowfuse.checkpoint import save_codec_checkpoint
    from flowfuse.codec import CodecParams

    save_codec_checkpoint(p, CodecParams.initialize(hidden=(2, 3), seed=0))


def _flow_file(p):
    from flowfuse.checkpoint import save_flow_checkpoint
    from flowfuse.flow import VelocityModel

    save_flow_checkpoint(p, VelocityModel.mlp(dim=6, hidden=(5, 4), seed=2))


def _header_offsets(blob: bytes) -> list:
    """Every offset of blob outside the parameter payloads: the container and
    tensor headers, and the payloads of the meta, hidden and step tensors."""
    pos, offsets = 12, list(range(12))
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (n,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + n].decode()
        tag, rank = blob[pos + 4 + n], blob[pos + 5 + n]
        head = 6 + n + 8 * rank
        size = math.prod(struct.unpack_from(f"<{rank}Q", blob, pos + 6 + n)) * 8 * tag
        keep = head + size if name.endswith((".meta", ".hidden", ".step")) else head
        offsets += range(pos, pos + keep)
        pos += head + size
    return offsets


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_flipped_header_byte_loads_or_is_a_value_error_naming_the_path(tmp_path, data):
    from flowfuse.checkpoint import load_codec_checkpoint, load_flow_checkpoint

    kind = data.draw(st.sampled_from(["codec", "flow", "raw"]))
    good = tmp_path / f"good-{kind}.rffz"
    if kind == "codec":
        _codec_file(good)
    elif kind == "flow":
        _flow_file(good)
    else:
        save_checkpoint(good, _pinned_tensors())
    blob = bytearray(good.read_bytes())
    k = data.draw(st.sampled_from(_header_offsets(blob)))
    blob[k] ^= data.draw(st.integers(1, 255))
    p = tmp_path / "flipped.rffz"
    p.write_bytes(bytes(blob))
    load = {"codec": load_codec_checkpoint, "flow": load_flow_checkpoint,
            "raw": load_checkpoint}[kind]
    tracemalloc.start()
    try:
        load(p)
    except ValueError as err:
        assert str(p) in str(err)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # beyond the arrays a load holds its file buffer, dicts and array headers,
    # under 25 KiB on these files; a corrupt extent must never ask for more
    assert peak <= len(blob) + 64 * 1024
