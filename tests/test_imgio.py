import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowfuse.image import Image
from flowfuse.imgio import load_image, read_png, save_image, write_png


def random_image(shape, seed, space=None):
    rng = np.random.default_rng(seed)
    # quantized values so the 8-bit file round-trip is exact
    arr = rng.integers(0, 256, size=shape).astype(np.float64) / 255.0
    return Image(arr, space)


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_gray_roundtrip_bit_exact(tmp_path, ext):
    img = random_image((13, 9), 0)
    p = tmp_path / f"g.{ext}"
    save_image(p, img)
    back = load_image(p)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.channels == 1


@pytest.mark.parametrize("ext", ["png", "ppm"])
def test_color_roundtrip_bit_exact(tmp_path, ext):
    img = random_image((7, 11, 3), 1, "rgb")
    p = tmp_path / f"c.{ext}"
    save_image(p, img)
    back = load_image(p)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.space == "rgb"


def test_png_reader_handles_filtered_rows(tmp_path):
    # synthesize a PNG using every filter type per row
    import struct
    import zlib

    h, w = 5, 4
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 256, size=(h, w)).astype(np.uint8)

    def paeth(a, b, c):
        p = int(a) + int(b) - int(c)
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if pa <= pb and pa <= pc else (b if pb <= pc else c)

    lines = b""
    prev = np.zeros(w, dtype=np.int32)
    for r, ftype in enumerate([0, 1, 2, 3, 4]):
        cur = pixels[r].astype(np.int32)
        enc = np.zeros(w, dtype=np.int32)
        for c in range(w):
            left = cur[c - 1] if c else 0
            up = prev[c]
            ul = prev[c - 1] if c else 0
            pred = {0: 0, 1: left, 2: up, 3: (left + up) // 2, 4: paeth(left, up, ul)}[ftype]
            enc[c] = (cur[c] - pred) & 0xFF
        lines += bytes([ftype]) + enc.astype(np.uint8).tobytes()
        prev = cur

    def chunk(tag, payload):
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    blob = b"\x89PNG\r\n\x1a\n"
    blob += chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
    blob += chunk(b"IDAT", zlib.compress(lines))
    blob += chunk(b"IEND", b"")
    p = tmp_path / "filtered.png"
    p.write_bytes(blob)
    back = read_png(p)
    assert np.array_equal((back.pixels * 255).round().astype(np.uint8), pixels)


def test_same_pixels_give_identical_files(tmp_path):
    img = random_image((8, 8), 3)
    p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
    write_png(p1, img)
    write_png(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_format_rejected(tmp_path):
    p = tmp_path / "x.png"
    p.write_bytes(b"not a png at all")
    with pytest.raises(ValueError, match="not a PNG"):
        read_png(p)
    with pytest.raises(ValueError, match="unsupported image format"):
        load_image(tmp_path / "x.tiff")


# -- malformed PNG files: each a ValueError naming the path and the chunk or row ------------


def _chunk(tag, payload, crc=None):
    if crc is None:
        crc = zlib.crc32(tag + payload)
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _png(idat, crc=None, length=None):
    """An 8 x 8 gray PNG around the given IDAT payload."""
    blob = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 8, 8, 8, 0, 0, 0, 0))
    idat_chunk = _chunk(b"IDAT", idat, crc)
    if length is not None:
        idat_chunk = struct.pack(">I", length) + idat_chunk[4:]
    return blob + idat_chunk + _chunk(b"IEND", b"")


SCANLINES = bytes(8 * (1 + 8))  # 8 rows of filter byte 0 and 8 pixels

MALFORMED = {
    "length past the end": (_png(zlib.compress(SCANLINES), length=10_000),
                            r"chunk b'IDAT' at byte 33 claims 10000 bytes, past the end"),
    "CRC mismatch": (_png(zlib.compress(SCANLINES), crc=12345),
                     r"CRC mismatch in chunk b'IDAT' at byte 33"),
    "corrupt IDAT": (_png(b"\x78\x9c not a deflate stream"),
                     r"corrupt data in chunk b'IDAT'"),
    "short IDAT": (_png(zlib.compress(SCANLINES[:-9])),
                   r"chunk b'IDAT' inflates to 63 bytes, but IHDR's 8x8 with 1 channel\(s\) "
                   r"needs 72"),
    "long IDAT": (_png(zlib.compress(SCANLINES + bytes(9))),
                  r"chunk b'IDAT' inflates to more than 72 bytes"),
    "truncated IDAT stream": (_png(zlib.compress(SCANLINES)[:-6]),
                              r"chunk b'IDAT' inflates to \d+ bytes, but"),
    "truncated file": (_png(zlib.compress(SCANLINES))[:50],
                       r"chunk b'IDAT' at byte 33 claims \d+ bytes, past the end of the "
                       r"50-byte file"),
    "truncated chunk header": (_png(zlib.compress(SCANLINES))[:37],
                               r"truncated chunk header at byte 33"),
    "filter type 7": (_png(zlib.compress(SCANLINES[:27] + b"\x07" + SCANLINES[28:])),
                      r"unsupported PNG filter type 7 in row 3"),
}


def test_the_crafted_png_is_valid(tmp_path):
    p = tmp_path / "ok.png"
    p.write_bytes(_png(zlib.compress(SCANLINES)))
    assert np.array_equal(read_png(p).pixels, np.zeros((8, 8)))


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_png_rejected_naming_path_and_chunk(tmp_path, case):
    blob, match = case
    p = tmp_path / "bad.png"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=match) as err:
        read_png(p)
    assert str(p) in str(err.value)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flipped_byte_of_a_png_is_rejected(tmp_path, data):
    # every byte lies in the signature, a chunk's length, tag, payload or CRC;
    # the CRC covers the tag and payload, so each flip is caught
    good = (tmp_path / "good.png")
    write_png(good, random_image((8, 8), 4))
    blob = bytearray(good.read_bytes())
    k = data.draw(st.integers(0, len(blob) - 1))
    blob[k] ^= data.draw(st.integers(1, 255))
    p = tmp_path / "flipped.png"
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        read_png(p)
