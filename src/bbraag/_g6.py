"""graph6 bit-level helpers.

The encoding packs the upper triangle of the adjacency matrix in column-major
order -- x(0,1), x(0,2), x(1,2), x(0,3), ... -- into 6-bit groups, each offset
by 63 into printable ASCII.  The same bit order doubles as the canonical-form
key, so both the codec and the canonical labeler live on top of this module.
Column j is the low j bits of vertex j's mask, at bit offset j(j-1)/2; the
codec moves one masked column per vertex and regroups the bits as base64, in
time linear in the graph6 size.
"""

from __future__ import annotations

import binascii

from .errors import GraphParseError

_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_TO_BASE64 = b"*" * 63 + _BASE64 + b"*" * 129  # "*" marks a byte outside 63..126
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def triangle_bits(n: int) -> int:
    return n * (n - 1) // 2


def key_from_adj(n: int, adj) -> int:
    """Pack the upper triangle of ``adj`` (bitmask rows) into one integer.

    Bit order is graph6's; the first transmitted bit is the most significant.
    """
    stream = bytearray()  # first transmitted bit lowest; each byte is reversed below
    block = width = 0
    for j in range(1, n):
        block |= (adj[j] & ((1 << j) - 1)) << width
        width += j
        if not j % 16:  # columns 1..16m span 8m(16m+1) bits: whole bytes
            stream += block.to_bytes(width >> 3, "little")
            block = width = 0
    stream += block.to_bytes((width + 7) >> 3, "little")
    return int.from_bytes(stream.translate(_REVERSED_BYTE), "big") >> (-triangle_bits(n) % 8)


def adj_from_key(n: int, key: int) -> list[int]:
    """Inverse of :func:`key_from_adj`."""
    bits = format(key, f"0{triangle_bits(n)}b")
    # Row j is column j padded to n bits.  Reversed, the square's row r holds
    # vertex n-1-r's lower neighbours and its column r the upper ones.
    rows = "".join([bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)])
    square = rows[::-1]
    return [int(square[r * n:r * n + n], 2) | int(square[r::n], 2) for r in range(n - 1, -1, -1)]


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes([126, 126] + [63 + ((n >> s) & 63) for s in range(30, -1, -6)])
    raise ValueError("vertex count exceeds graph6 range")


def encode(n: int, key: int) -> bytes:
    """graph6 bytes for an ``n``-vertex graph with packed upper-triangle ``key``."""
    nbits = triangle_bits(n)
    ngroups = (nbits + 5) // 6
    nbytes = (ngroups + 3) // 4 * 3  # whole base64 quanta: 4 groups in 3 bytes
    groups = binascii.b2a_base64((key << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), newline=False)
    return _encode_size(n) + groups[:ngroups].translate(_FROM_BASE64)


def decode(data: bytes) -> tuple[int, list[int]]:
    """Parse graph6 bytes into ``(n, adjacency bitmasks)``.

    Strict: every byte must be in the printable graph6 range, the byte count
    must match ``n`` exactly, and padding bits must be zero.
    """
    if not data:
        raise GraphParseError("empty graph6 string", position=0)
    if data[0] == 126:
        if data[1:2] == b"~":
            size_bytes, pos = data[2:8], 8
        else:
            size_bytes, pos = data[1:4], 4
        if len(data) < pos:
            raise GraphParseError("truncated graph6 size", position=len(data))
        n = 0
        for b in size_bytes:
            if not 63 <= b <= 126:
                raise GraphParseError(f"invalid graph6 byte {b}", position=pos)
            n = (n << 6) | (b - 63)
    else:
        b = data[0]
        if not 63 <= b <= 126:
            raise GraphParseError(f"invalid graph6 byte {b}", position=0)
        n = b - 63
        pos = 1
    nbits = triangle_bits(n)
    ngroups = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != ngroups:
        raise GraphParseError(
            f"graph6 body for {n} vertices needs {ngroups} bytes, got {len(body)}",
            position=pos,
        )
    groups = body.translate(_TO_BASE64)
    if (bad := groups.find(b"*")) >= 0:
        raise GraphParseError(f"invalid graph6 byte {body[bad]}", position=pos + bad)
    filler = -ngroups % 4  # zero groups that complete the last base64 quantum
    value = int.from_bytes(binascii.a2b_base64(groups + b"A" * filler), "big") >> 6 * filler
    pad = ngroups * 6 - nbits
    if value & ((1 << pad) - 1):
        raise GraphParseError("nonzero graph6 padding bits", position=len(data) - 1)
    return n, adj_from_key(n, value >> pad)
