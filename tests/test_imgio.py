import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowfuse.image import Image
from flowfuse.imgio import load_image, read_png, read_pnm, save_image, write_png


def random_image(shape, seed):
    rng = np.random.default_rng(seed)
    # quantized values so the 8-bit file round-trip is exact
    arr = rng.integers(0, 256, size=shape).astype(np.float64) / 255.0
    return Image(arr)


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
    img = random_image((7, 11, 3), 1)
    p = tmp_path / f"c.{ext}"
    save_image(p, img)
    back = load_image(p)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.channels == 3


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


@pytest.mark.parametrize("shape", [(8, 8), (5, 6, 3)])
def test_png_with_idat_split_over_chunks_decodes_the_same(tmp_path, shape):
    img = random_image(shape, 5)
    whole = tmp_path / "whole.png"
    write_png(whole, img)
    raw = np.round(img.pixels * 255).astype(np.uint8).reshape(shape[0], -1)
    stream = zlib.compress(b"".join(b"\x00" + row.tobytes() for row in raw))
    cuts = [0, 1, 2, 9, len(stream) // 2, len(stream)]  # pieces of 1, 1, 7 and more bytes
    ihdr = struct.pack(">IIBBBBB", shape[1], shape[0], 8, 0 if len(shape) == 2 else 2, 0, 0, 0)
    blob = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
    blob += b"".join(_chunk(b"IDAT", stream[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
    split = tmp_path / "split.png"
    split.write_bytes(blob + _chunk(b"IEND", b""))
    assert np.array_equal(read_png(split).pixels, read_png(whole).pixels)
    assert np.array_equal(read_png(split).pixels, img.pixels)


# -- filtered scanlines: each filter type, and mixes of them ------------------------------


def w3c_filter(pixels, ftypes, bpp):
    """Scanlines of the (h, w * bpp) uint8 rows, row r filtered with type
    ftypes[r] as the W3C PNG specification's "Filtering" section defines it:
    Filt(x) = Orig(x) - Predictor(a, b, c) mod 256, where a is the byte bpp to
    the left, b the byte above and c the byte above a, all 0 outside the image."""
    lines, prev = b"", np.zeros(pixels.shape[1], dtype=np.int64)
    for row, ftype in zip(pixels.astype(np.int64), ftypes):
        a = np.concatenate([np.zeros(bpp, dtype=np.int64), row[:-bpp]])
        b, c = prev, np.concatenate([np.zeros(bpp, dtype=np.int64), prev[:-bpp]])
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        pred = (0, a, b, (a + b) // 2, paeth)[ftype]
        lines += bytes([ftype]) + ((row - pred) % 256).astype(np.uint8).tobytes()
        prev = row
    return lines


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), h=st.integers(1, 12), w=st.integers(1, 12), nch=st.sampled_from([1, 3]),
       one_type=st.sampled_from([None, 0, 1, 2, 3, 4]))
def test_every_filter_type_and_mix_decodes_to_the_encoded_bytes(tmp_path, data, h, w, nch,
                                                                  one_type):
    # one filter type for every row, or (one_type None) a random type per row;
    # images of a few levels, like flat regions, make Paeth's ties common
    top = data.draw(st.sampled_from([3, 255]))
    pixels = np.array(data.draw(st.lists(st.integers(0, top), min_size=h * w * nch,
                                         max_size=h * w * nch)), dtype=np.uint8)
    pixels = pixels.reshape(h, w * nch)
    ftypes = ([one_type] * h if one_type is not None
              else data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h)))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if nch == 1 else 2, 0, 0, 0)
    blob = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
    blob += _chunk(b"IDAT", zlib.compress(w3c_filter(pixels, ftypes, nch))) + _chunk(b"IEND", b"")
    p = tmp_path / "filtered.png"
    p.write_bytes(blob)
    got = np.round(read_png(p).pixels * 255).astype(np.uint8)
    assert np.array_equal(got.reshape(h, w * nch), pixels), ftypes


@pytest.mark.parametrize("h,w,nch", [(3000, 1, 1), (1, 3000, 1), (700, 2, 3), (2, 700, 3)])
def test_a_long_thin_paeth_png_decodes_in_memory_linear_in_its_pixels(tmp_path, h, w, nch):
    # the anti-diagonals are indexed along the shorter side: indexed by row,
    # a 3000 x 1 image would take 3000 x 3000 slots of each working array
    import time
    import tracemalloc

    pixels = np.random.default_rng(h).integers(0, 256, (h, w * nch)).astype(np.uint8)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if nch == 1 else 2, 0, 0, 0)
    blob = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
    blob += _chunk(b"IDAT", zlib.compress(w3c_filter(pixels, [4] * h, nch))) + _chunk(b"IEND", b"")
    p = tmp_path / "thin.png"
    p.write_bytes(blob)
    tracemalloc.start()
    start = time.perf_counter()
    img = read_png(p)
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(np.round(img.pixels * 255).astype(np.uint8).reshape(h, -1), pixels)
    assert peak < 64 * pixels.size + 65536, peak
    assert seconds < 5.0, seconds


# -- malformed PGM/PPM files: each a ValueError naming the path ---------------------------


MALFORMED_PNM = {
    "comment runs to the end": (b"P5\n4 4\n# comment", r"truncated header"),
    "no maxval": (b"P5\n4 4\n", r"truncated header"),
    "non-integer field": (b"P5\n4 x4\n255\n" + bytes(16),
                          r"header field b'x4' is not a decimal integer"),
    "signed field": (b"P5\n-4 4\n255\n" + bytes(16), r"header field b'-4' is not"),
    "short payload": (b"P5\n4 4\n255\n" + bytes(15),
                      r"payload holds 15 bytes, but 4x4 with 1 channel\(s\) needs 16"),
    "no payload": (b"P6\n2 2\n255", r"payload holds 0 bytes, but 2x2 with 3 channel\(s\)"),
}


@pytest.mark.parametrize("case", MALFORMED_PNM.values(), ids=MALFORMED_PNM.keys())
def test_malformed_pnm_rejected_naming_path(tmp_path, case):
    blob, match = case
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=match) as err:
        read_pnm(p)
    assert str(p) in str(err.value)


_PNM_SPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r"])
_PNM_COMMENT = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")


@st.composite
def commented_pnm(draw):
    """(file bytes, pixel shape, payload) of a valid PGM or PPM whose header
    holds at least one comment."""
    nch = draw(st.sampled_from([1, 3]))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    comments = draw(st.lists(st.one_of(st.just(b""), _PNM_COMMENT), min_size=3, max_size=3)
                    .filter(any))
    seps = [draw(_PNM_SPACE) + c for c in comments]
    payload = draw(st.binary(min_size=h * w * nch, max_size=h * w * nch))
    header = (b"P5" if nch == 1 else b"P6") + seps[0] + str(w).encode() + seps[1]
    header += str(h).encode() + seps[2] + b"255" + draw(_PNM_SPACE)
    return header + payload, (h, w) if nch == 1 else (h, w, 3), payload


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=commented_pnm())
def test_every_truncated_prefix_of_a_commented_pnm_is_rejected(tmp_path, case):
    blob, shape, payload = case
    p = tmp_path / "cut.pnm"
    p.write_bytes(blob)
    back = read_pnm(p)
    assert np.array_equal(back.pixels, np.frombuffer(payload, np.uint8).reshape(shape) / 255.0)
    for n in range(len(blob)):
        p.write_bytes(blob[:n])
        with pytest.raises(ValueError) as err:
            read_pnm(p)
        assert str(p) in str(err.value), n
