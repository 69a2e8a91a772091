"""8-bit image file I/O: PNG (gray / RGB, non-interlaced) and binary PGM/PPM.

Readers and writers are bit-exact round-trips for 8-bit data. Pixels convert
between files and the [0, 1] float domain by /255 on read and round(*255) on
write. The PNG writer emits unfiltered scanlines; the reader handles filter
types 0-4.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .image import RGB, Image

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def to_bytes_u8(img: Image) -> np.ndarray:
    return np.round(img.pixels * 255.0).astype(np.uint8)


def from_bytes_u8(arr: np.ndarray, space=None) -> Image:
    a = arr.astype(np.float64) / 255.0
    if a.ndim == 3 and space is None:
        space = RGB
    return Image(a, space)


# -- PNG ------------------------------------------------------------------------

def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, img: Image) -> None:
    if img.channels == 3 and img.space != RGB:
        raise ValueError("PNG writer expects rgb color images")
    data = to_bytes_u8(img)
    h, w = data.shape[:2]
    color_type = 0 if data.ndim == 2 else 2
    raw = data.reshape(h, -1)
    scanlines = b"".join(b"\x00" + raw[r].tobytes() for r in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # level 6, the zlib and libpng default: on fused 128 px images it is
    # faster than level 9 for at most 0.4% more bytes
    blob = _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(scanlines, 6))
    blob += _chunk(b"IEND", b"")
    Path(path).write_bytes(blob)


def _unfilter(raw: bytes, h: int, w: int, nch: int, path) -> np.ndarray:
    stride = w * nch
    out = np.zeros((h, stride), dtype=np.uint8)
    pos = 0
    prev = np.zeros(stride, dtype=np.int32)
    for r in range(h):
        ftype = raw[pos]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=pos + 1).astype(np.int32)
        pos += 1 + stride
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need a left-to-right scan
            cur = np.zeros(stride, dtype=np.int32)
            for c in range(stride):
                left = cur[c - nch] if c >= nch else 0
                up = prev[c]
                ul = prev[c - nch] if c >= nch else 0
                if ftype == 1:
                    pred = left
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    p = left + up - ul
                    pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                    pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
                cur[c] = (line[c] + pred) & 0xFF
        else:
            raise ValueError(f"{path}: unsupported PNG filter type {ftype} in row {r}")
        out[r] = cur.astype(np.uint8)
        prev = cur
    return out


def read_png(path) -> Image:
    """Read an 8-bit gray or RGB PNG. A chunk that runs past the end of the
    file or fails its CRC, and IDAT data that does not inflate to exactly the
    scanlines IHDR promises, are ValueErrors naming the path and the chunk."""
    blob = Path(path).read_bytes()
    if blob[:8] != _PNG_SIG:
        raise ValueError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = []
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ValueError(f"{path}: truncated chunk header at byte {pos}")
        length, tag = struct.unpack(">I4s", blob[pos : pos + 8])
        end = pos + 12 + length
        if end > len(blob):
            raise ValueError(
                f"{path}: chunk {tag!r} at byte {pos} claims {length} bytes, "
                f"past the end of the {len(blob)}-byte file"
            )
        payload = blob[pos + 8 : end - 4]
        (crc,) = struct.unpack(">I", blob[end - 4 : end])
        if zlib.crc32(payload, zlib.crc32(tag)) != crc:
            raise ValueError(f"{path}: CRC mismatch in chunk {tag!r} at byte {pos}")
        pos = end
        if tag == b"IHDR":
            if length != 13:
                raise ValueError(f"{path}: chunk b'IHDR' has {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ValueError(f"{path}: missing IHDR")
    w, h, depth, color_type, _, _, interlace = ihdr
    if depth != 8 or interlace != 0 or color_type not in (0, 2):
        raise ValueError(
            f"{path}: only 8-bit non-interlaced gray/RGB PNGs supported "
            f"(depth={depth}, color_type={color_type}, interlace={interlace})"
        )
    nch = 1 if color_type == 0 else 3
    size = h * (1 + w * nch)
    try:
        # at most one byte past the promised size: enough to tell that it is too long
        raw = zlib.decompressobj().decompress(b"".join(idat), size + 1)
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt data in chunk b'IDAT': {exc}") from exc
    if len(raw) != size:
        got = f"more than {size}" if len(raw) > size else len(raw)
        raise ValueError(
            f"{path}: chunk b'IDAT' inflates to {got} bytes, but IHDR's {w}x{h} "
            f"with {nch} channel(s) needs {size}"
        )
    data = _unfilter(raw, h, w, nch, path)
    if nch == 1:
        return from_bytes_u8(data.reshape(h, w))
    return from_bytes_u8(data.reshape(h, w, 3), RGB)


# -- PGM / PPM --------------------------------------------------------------------

def write_pnm(path, img: Image) -> None:
    data = to_bytes_u8(img)
    magic = b"P5" if data.ndim == 2 else b"P6"
    header = magic + f"\n{data.shape[1]} {data.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + data.tobytes())


def read_pnm(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) with maxval 255. A truncated
    header, a header field that is not a decimal integer and a short payload
    are ValueErrors naming the path."""
    blob = Path(path).read_bytes()
    if blob[:2] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM file")
    nch = 1 if blob[:2] == b"P5" else 3
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            pos = len(blob) if end < 0 else end
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ValueError(f"{path}: truncated header" if start == pos else
                             f"{path}: header field {blob[start:pos]!r} is not a decimal integer")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    if len(blob) - pos < h * w * nch:
        raise ValueError(f"{path}: payload holds {max(len(blob) - pos, 0)} bytes, but "
                         f"{w}x{h} with {nch} channel(s) needs {h * w * nch}")
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w * nch, offset=pos)
    if nch == 1:
        return from_bytes_u8(data.reshape(h, w).copy())
    return from_bytes_u8(data.reshape(h, w, 3).copy(), RGB)


# -- dispatch ----------------------------------------------------------------------

def load_image(path) -> Image:
    suffix = Path(path).suffix.lower()
    if suffix == ".png":
        return read_png(path)
    if suffix in (".pgm", ".ppm", ".pnm"):
        return read_pnm(path)
    raise ValueError(f"unsupported image format {suffix!r} (png/pgm/ppm)")


def save_image(path, img) -> None:
    if not isinstance(img, Image):
        img = Image(np.asarray(img)) if np.asarray(img).ndim == 2 else Image(np.asarray(img), RGB)
    suffix = Path(path).suffix.lower()
    if suffix == ".png":
        write_png(path, img)
    elif suffix in (".pgm", ".ppm", ".pnm"):
        write_pnm(path, img)
    else:
        raise ValueError(f"unsupported image format {suffix!r} (png/pgm/ppm)")
