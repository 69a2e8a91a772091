"""8-bit image file I/O: PNG (gray / RGB, non-interlaced) and binary PGM/PPM.

Readers and writers are bit-exact round-trips for 8-bit data. Pixels convert
between files and the [0, 1] float domain by /255 on read and round(*255) on
write. The PNG writer emits unfiltered scanlines; the reader handles filter
types 0-4 without a per-byte or per-row Python loop.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .image import Image

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
IMAGE_SUFFIXES = (".png", ".pgm", ".ppm", ".pnm")  # the files load_image and save_image take


def to_bytes_u8(img: Image) -> np.ndarray:
    return np.round(img.pixels * 255.0).astype(np.uint8)


def from_bytes_u8(arr: np.ndarray) -> Image:
    return Image(arr.astype(np.float64) / 255.0)


# -- PNG ------------------------------------------------------------------------

def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, img: Image) -> None:
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
    """The (h, w * nch) bytes of the scanlines in raw, each led by its filter
    type byte, with the PNG filters undone: a copy when every row is None, as
    write_png writes them, and _unfilter_diagonals otherwise."""
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * nch)
    ftype, lines = rows[:, 0], rows[:, 1:]
    bad = np.flatnonzero(ftype > 4)
    if bad.size:
        r = int(bad[0])
        raise ValueError(f"{path}: unsupported PNG filter type {ftype[r]} in row {r}")
    if not ftype.any():
        return lines.copy()
    return _unfilter_diagonals(lines, ftype, w, nch)


def _unfilter_diagonals(lines: np.ndarray, ftype: np.ndarray, w: int, nch: int) -> np.ndarray:
    """Undo every row's filter, one anti-diagonal of pixels at a time.

    Pixel (r, x) predicts from its left, upper and upper-left neighbours,
    which lie on the anti-diagonals r + x - 1 and r + x - 2. So the pixels of
    one anti-diagonal, across all rows, decode together: h + w - 1 vector
    steps instead of h * w * nch scalar ones. A diagonal's pixels are indexed
    along the shorter side, by row r if h <= w and by column x otherwise, so
    the diagonals take (h + w) * min(h, w) slots, at most twice the pixels.
    q[t + 2, i + 1] holds the decoded pixel of index i on diagonal t; q's
    first two diagonals, its slot 0 and each diagonal's slot past its last
    pixel are the zeros outside the image.
    """
    h = len(lines)
    by_col = w < h
    n = min(h, w)
    r, x = np.arange(h)[:, None], np.arange(w)
    t = r + x  # the anti-diagonal of each pixel
    i = np.broadcast_to(x if by_col else r, t.shape)  # its index on the diagonal
    skew = np.zeros((h + w - 1, n, nch), dtype=np.uint8)
    skew[t, i] = lines.reshape(h, w, nch)
    q = np.zeros((h + w + 1, n + 1, nch), dtype=np.int16)
    kind = ftype.astype(np.intp)[:, None]
    zero = np.zeros((n, nch), dtype=np.int16)
    for d in range(h + w - 1):
        lo, hi = max(0, d - (h if by_col else w) + 1), min(n, d + 1)
        prev, ul = q[d + 1], q[d, lo:hi]
        if by_col:  # slot x holds row d - x: left is slot x - 1, up slot x
            left, up, k = prev[lo:hi], prev[lo + 1:hi + 1], kind[d - hi + 1:d - lo + 1][::-1]
        else:  # slot r holds column d - r: left is slot r, up slot r - 1
            left, up, k = prev[lo + 1:hi + 1], prev[lo:hi], kind[lo:hi]
        pa, pb, pc = np.abs(up - ul), np.abs(left - ul), np.abs(left + up - 2 * ul)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, ul))
        pred = np.choose(k, (zero[lo:hi], left, up, (left + up) >> 1, paeth))
        q[d + 2, lo + 1:hi + 1] = (skew[d, lo:hi] + pred) & 0xFF
    return q[t + 2, i + 1].astype(np.uint8).reshape(h, w * nch)


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
    return from_bytes_u8(data.reshape((h, w) if nch == 1 else (h, w, 3)))


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
    return from_bytes_u8(data.reshape((h, w) if nch == 1 else (h, w, 3)))


# -- dispatch ----------------------------------------------------------------------

def _suffix(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix not in IMAGE_SUFFIXES:
        raise ValueError(f"unsupported image format {suffix!r} (png/pgm/ppm)")
    return suffix


def load_image(path) -> Image:
    return read_png(path) if _suffix(path) == ".png" else read_pnm(path)


def save_image(path, img) -> None:
    img = img if isinstance(img, Image) else Image(img)
    (write_png if _suffix(path) == ".png" else write_pnm)(path, img)
