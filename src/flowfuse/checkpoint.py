"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  "RFFZ"
    version u32      currently 1; any other value is a hard error
    count   u32      number of tensors
    per tensor:
        name_len u32, name UTF-8 bytes
        dtype    u8   1 = real64, 2 = complex128
        rank     u8
        extents  rank x u64
        payload  float64 little-endian (complex as re/im pairs)

Round-trips are bit-identical: payloads are the raw float64 buffers. The
writer streams each tensor's own buffer to the file and the reader reads each
payload straight into its array, so neither holds a second copy.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .autodiff import check_slope

MAGIC = b"RFFZ"
VERSION = 1


def _pack_paramset(prefix: str, pset, out: dict) -> None:
    out[f"{prefix}.step"] = np.array(float(pset.step))
    for k in pset.names():
        out[f"{prefix}.{k}"] = pset.params[k]
        out[f"{prefix}.{k}.m"] = pset.m[k]
        out[f"{prefix}.{k}.v"] = pset.v[k]


def _unpack_paramset(path, prefix: str, tensors: dict, shapes: dict, moments: bool = True):
    """The ParamSet saved under prefix, whose parameters must be exactly
    shapes (name -> shape, in parameter order), each with its two Adam moments
    of the same shape; without moments the set gets zero moments instead of
    the stored ones. A missing tensor, a wrong shape, a tensor under prefix
    that is none of these, and a step that is not a count are ValueErrors
    naming the path and tensor."""
    from .optim import ParamSet

    want = {f"{prefix}.step": ()}
    for name, shape in shapes.items():
        for suffix in ("", ".m", ".v"):
            want[f"{prefix}.{name}{suffix}"] = tuple(shape)
    for key, shape in want.items():
        if key not in tensors:
            raise ValueError(f"{path}: missing tensor {key}")
        if tensors[key].shape != shape:
            raise ValueError(f"{path}: tensor {key} has shape {tensors[key].shape}, "
                             f"expected {shape}")
    for key in tensors:
        if key.startswith(prefix + ".") and key not in want:
            raise ValueError(f"{path}: unexpected tensor {key}")

    step = float(tensors[f"{prefix}.step"])
    if not (step.is_integer() and step >= 0):
        raise ValueError(f"{path}: tensor {prefix}.step holds {step}, "
                         "expected a non-negative integer")

    def part(suffix):
        return {name: tensors[f"{prefix}.{name}{suffix}"] for name in shapes}

    m, v = (part(".m"), part(".v")) if moments else (None, None)
    return ParamSet(part(""), m, v, int(step))


def save_codec_checkpoint(path, codec) -> None:
    # the first slot is the input channel count: always 1, as the codec maps luma
    tensors = {"codec.meta": np.array([1, *codec.hidden, codec.latent_channels, codec.alpha])}
    _pack_paramset("codec.enc", codec.encoder, tensors)
    _pack_paramset("codec.dec", codec.decoder, tensors)
    save_checkpoint(path, tensors)


def _meta(path, tensors: dict, key: str, length=None, slope=False) -> tuple:
    """The vector tensor key (of length entries, if given) as positive ints,
    but with slope its last entry is a leaky slope in [0, 1]. Any fault is a
    ValueError naming the path and tensor."""
    if key not in tensors:
        raise ValueError(f"{path}: missing tensor {key}")
    vec = tensors[key]
    if vec.ndim != 1 or length not in (None, vec.size):
        raise ValueError(f"{path}: tensor {key} has shape {vec.shape}, expected "
                         + (f"({length},)" if length else "a vector"))
    for v in vec[:-1] if slope else vec:
        if not (float(v).is_integer() and v >= 1):
            raise ValueError(f"{path}: tensor {key} holds extent {v}, expected a positive integer")
    if slope:
        return (*(int(v) for v in vec[:-1]), check_slope(vec[-1], f"{path}: {key} leaky slope"))
    return tuple(int(v) for v in vec)


def load_codec_checkpoint(path):
    from .codec import CodecParams, param_shapes

    tensors = load_checkpoint(path)
    if "codec.meta" not in tensors:
        raise ValueError(f"{path}: not a codec checkpoint")
    in_ch, c1, c2, latent, alpha = _meta(path, tensors, "codec.meta", 5, slope=True)
    if in_ch != 1:
        raise ValueError(f"{path}: tensor codec.meta holds {in_ch} input channels, expected 1: "
                         "the codec maps luma alone")
    enc_shapes, dec_shapes = param_shapes((c1, c2), latent)
    return CodecParams(
        _unpack_paramset(path, "codec.enc", tensors, enc_shapes),
        _unpack_paramset(path, "codec.dec", tensors, dec_shapes),
        (c1, c2), latent, alpha,
    )


def save_flow_checkpoint(path, model) -> None:
    if model.kind != "mlp":
        raise ValueError("only mlp velocity models are persisted")
    tensors = {
        "flow.meta": np.array([model.meta["dim"], model.meta["alpha"]]),
        "flow.hidden": np.array(model.meta["hidden"], dtype=np.float64),
    }
    _pack_paramset("flow.params", model.params, tensors)
    save_checkpoint(path, tensors)


def load_flow_checkpoint(path):
    from .flow import VelocityModel, param_shapes

    # Inference never reads the Adam moments, and flow training starts afresh,
    # so their payloads stay on disk; their names, shapes and bytes are checked.
    tensors = _read(path, skip=lambda name: name.startswith("flow.params.")
                    and name.endswith((".m", ".v")))
    if "flow.meta" not in tensors:
        raise ValueError(f"{path}: not a velocity-model checkpoint")
    dim, alpha = _meta(path, tensors, "flow.meta", 2, slope=True)
    hidden = _meta(path, tensors, "flow.hidden")
    params = _unpack_paramset(path, "flow.params", tensors, param_shapes(dim, hidden),
                              moments=False)
    return VelocityModel("mlp", params, dim=dim, hidden=hidden, alpha=alpha)


def save_checkpoint(path, tensors: dict) -> None:
    """Write {name: real or complex ndarray} to the container, streaming each
    tensor's own buffer: reals are stored as float64, complexes as complex128.
    A tensor of any other dtype is a ValueError naming it, raised before the
    file is opened.

    The save is atomic: the bytes go to a temporary file beside path, which is
    flushed to disk and then renamed over path. A save that fails leaves the
    previous file whole and removes its temporary file.
    """
    for name, arr in tensors.items():
        if (dtype := np.asarray(arr).dtype).kind not in "iufc":
            raise ValueError(f"{path}: tensor {name!r} has dtype {dtype}, "
                             "expected a real or complex number")
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
            for name, arr in tensors.items():
                a = np.asarray(arr)
                tag = 2 if a.dtype.kind == "c" else 1
                # astype keeps a 0-d array 0-d, where ascontiguousarray would not
                a = a.astype("<c16" if tag == 2 else "<f8", order="C", copy=False)
                nb = name.encode("utf-8")
                f.write(struct.pack(f"<I{len(nb)}sBB{a.ndim}Q", len(nb), nb, tag, a.ndim,
                                    *a.shape))
                f.write(a.data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict:
    """Read a container back into {name: ndarray}; rejects a version mismatch,
    and a truncated file with the field it was reading."""
    return _read(path)


def _read(path, skip=lambda name: False) -> dict:
    """The container's tensors, each payload read straight into its own array
    once the file is known to hold it. A tensor whose name skip accepts is not
    read: it comes back as a read-only zero view of its shape, its payload
    only checked to exist. Every fault, a file that shrinks while it is read
    included, is a ValueError naming the path."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0

        def take(n: int, what: str) -> int:
            """Claim the next n bytes for what; returns n."""
            nonlocal pos
            if pos + n > size:
                raise ValueError(f"{path}: truncated at byte {size} while reading {what}")
            pos += n
            return n

        def read(n: int, what: str) -> bytes:
            if len(data := f.read(take(n, what))) != n:
                raise ValueError(f"{path}: shrank while reading {what}")
            return data

        if read(4, "the magic") != MAGIC:
            raise ValueError(f"{path}: not a checkpoint container (bad magic)")
        version, count = struct.unpack("<II", read(8, "the version and tensor count"))
        if version != VERSION:
            raise ValueError(
                f"{path}: checkpoint version {version} not supported (expected {VERSION})"
            )
        out = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", read(4, f"tensor {i}'s name length"))
            raw = read(name_len, f"tensor {i}'s name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: tensor {i}'s name is not UTF-8") from None
            if name in out:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            tag, rank = struct.unpack("<BB", read(2, f"tensor {name!r}'s dtype and rank"))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank, f"tensor {name!r}'s extents"))
            if tag not in (1, 2):
                raise ValueError(f"{path}: unknown dtype tag {tag}")
            dtype = np.dtype("<f8" if tag == 1 else "<c16")
            nbytes = take(dtype.itemsize * math.prod(shape), f"tensor {name!r}'s payload")
            try:  # the bytes fit, but an empty tensor's other extents may not
                out[name] = (np.broadcast_to(np.zeros((), dtype), shape) if skip(name)
                             else np.empty(shape, dtype))
            except ValueError as err:
                raise ValueError(f"{path}: tensor {name!r} has shape {shape}: {err}") from None
            if skip(name):
                f.seek(nbytes, os.SEEK_CUR)
            elif f.readinto(out[name].data) != nbytes:
                raise ValueError(f"{path}: shrank while reading tensor {name!r}'s payload")
        if pos != size:
            last = f"tensor {name!r}" if count else "the header"
            raise ValueError(f"{path}: {size - pos} bytes after {last}")
    return out
