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

Round-trips are bit-identical: payloads are the raw float64 buffers.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

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


def _unpack_paramset(prefix: str, tensors: dict):
    from .optim import ParamSet

    params, m, v = {}, {}, {}
    for key, arr in tensors.items():
        if not key.startswith(prefix + ".") or key == f"{prefix}.step":
            continue
        name = key[len(prefix) + 1 :]
        if name.endswith(".m"):
            m[name[:-2]] = arr
        elif name.endswith(".v"):
            v[name[:-2]] = arr
        else:
            params[name] = arr
    step = int(tensors[f"{prefix}.step"])
    return ParamSet(params, m, v, step)


def save_codec_checkpoint(path, codec) -> None:
    tensors = {
        "codec.meta": np.array(
            [codec.in_channels, *codec.hidden, codec.latent_channels, codec.alpha]
        )
    }
    _pack_paramset("codec.enc", codec.encoder, tensors)
    _pack_paramset("codec.dec", codec.decoder, tensors)
    save_checkpoint(path, tensors)


def load_codec_checkpoint(path):
    from .codec import CodecParams

    tensors = load_checkpoint(path)
    if "codec.meta" not in tensors:
        raise ValueError(f"{path}: not a codec checkpoint")
    in_ch, c1, c2, latent, alpha = tensors["codec.meta"]
    check_slope(alpha, f"{path}: codec.meta leaky slope")
    return CodecParams(
        _unpack_paramset("codec.enc", tensors),
        _unpack_paramset("codec.dec", tensors),
        int(in_ch), (int(c1), int(c2)), int(latent), float(alpha),
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
    from .flow import VelocityModel

    tensors = load_checkpoint(path)
    if "flow.meta" not in tensors:
        raise ValueError(f"{path}: not a velocity-model checkpoint")
    dim, alpha = tensors["flow.meta"]
    check_slope(alpha, f"{path}: flow.meta leaky slope")
    hidden = tuple(int(h) for h in tensors["flow.hidden"])
    widths = [int(dim) + 1, *hidden, int(dim)]
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        for name, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            key = f"flow.params.{name}"
            if key not in tensors:
                raise ValueError(f"{path}: missing tensor {key}")
            if tensors[key].shape != shape:
                raise ValueError(f"{path}: tensor {key} has shape {tensors[key].shape}, "
                                 f"expected {shape}")
    return VelocityModel("mlp", _unpack_paramset("flow.params", tensors), dim=int(dim),
                         hidden=hidden, alpha=float(alpha))


def save_checkpoint(path, tensors: dict) -> None:
    """Write {name: float64/complex128 ndarray} to the container."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        a = np.asarray(arr)
        if a.dtype == np.complex128:
            tag = 2
        else:
            a = a.astype(np.float64, copy=False)
            tag = 1
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<BB", tag, a.ndim))
        parts.append(struct.pack(f"<{a.ndim}Q", *a.shape) if a.ndim else b"")
        parts.append(np.ascontiguousarray(a).astype("<c16" if tag == 2 else "<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> dict:
    """Read a container back into {name: ndarray}; rejects a version mismatch,
    and a truncated file with the field it was reading."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(size: int, what: str) -> int:
        """Claim the next size bytes for what; returns their offset."""
        nonlocal pos
        if pos + size > len(blob):
            raise ValueError(f"{path}: truncated at byte {len(blob)} while reading {what}")
        pos += size
        return pos - size

    take(4, "the magic")
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint container (bad magic)")
    version, count = struct.unpack_from("<II", blob, take(8, "the version and tensor count"))
    if version != VERSION:
        raise ValueError(
            f"{path}: checkpoint version {version} not supported (expected {VERSION})"
        )
    out = {}
    for i in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4, f"tensor {i}'s name length"))
        name = blob[take(name_len, f"tensor {i}'s name") : pos].decode("utf-8")
        tag, rank = struct.unpack_from("<BB", blob, take(2, f"tensor {name!r}'s dtype and rank"))
        shape = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, f"tensor {name!r}'s extents"))
        if tag not in (1, 2):
            raise ValueError(f"{path}: unknown dtype tag {tag}")
        dtype = np.dtype("<f8" if tag == 1 else "<c16")
        n = math.prod(shape)
        offset = take(dtype.itemsize * n, f"tensor {name!r}'s payload")
        out[name] = np.frombuffer(blob, dtype=dtype, count=n, offset=offset).copy().reshape(shape)
    return out
