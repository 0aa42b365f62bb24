"""A query result as typed binary columns (``MEDIA_TYPE``).

A 4-byte little-endian header length, the header — the result body
without ``rows``, as UTF-8 JSON, plus ``"layout": [[code, nbytes], …]``
— then one block per column, in order.  A column whose values are all
``int`` (never ``bool``) is ``i`` (int32) or ``q`` (int64), the narrower
that holds it; all ``float`` is ``d`` (float64, NaN/±inf/−0.0 kept);
anything else — NULLs, strings, bools, mixed kinds, ints past int64 — is
``j``, a UTF-8 JSON array (a batch result's int64 and float64 arrays
without NULLs are packed as they are).  Binary blocks are little-endian.
``decode`` gives back what JSON and the client's tupling give, value and
type; a frame that fails a check raises ``ValueError``, never wrong rows.
"""

from __future__ import annotations

import array
import json
import struct
import sys

MEDIA_TYPE = "application/x-repro-columns"

# The binary codes are ``array`` typecodes; the wire fixes their widths.
if [array.array(code).itemsize for code in "iqd"] != [4, 8, 8]:
    raise ImportError("frame: array typecodes i, q, d are not 4, 8, 8 bytes wide here")
_SWAP = sys.byteorder == "big"
_LITTLE_ENDIAN = {"i": "<i4", "q": "<i8", "d": "<f8"}  # numpy's names for the codes


def encode(body: dict) -> bytes:
    """The frame of a result body (``columns``, ``rows``, …) whose ``rows``
    is the result ``Table``: the frame reads ``Table.columns()``."""
    layout, blocks = [], []
    for values in body["rows"].columns():
        code, block = _block(values)
        layout.append([code, len(block)])
        blocks.append(block)
    header = {key: value for key, value in body.items() if key != "rows"}
    header["layout"] = layout
    head = json.dumps(header).encode("utf-8")
    return b"".join([struct.pack("<I", len(head)), head, *blocks])


def _block(values) -> tuple[str, bytes]:
    if hasattr(values, "dtype"):  # an int64 or float64 array without NULLs
        small = not len(values) or -(2**31) <= values.min() and values.max() < 2**31
        code = "d" if values.dtype.kind == "f" else "i" if small else "q"
        return code, values.astype(_LITTLE_ENDIAN[code], copy=False).tobytes()
    kinds = set(map(type, values))
    for code in "iq" if kinds == {int} else "d" if kinds == {float} else "":
        try:
            items = array.array(code, values)
        except OverflowError:  # past int32, then past int64
            continue
        if _SWAP:
            items.byteswap()
        return code, items.tobytes()
    return "j", json.dumps(values).encode("utf-8")


def decode(data: bytes) -> dict:
    """The result body of a frame, ``rows`` as tuples; ``ValueError`` if malformed."""
    if len(data) < 4:
        raise ValueError("frame: no header length")
    (size,) = struct.unpack_from("<I", data)
    at = 4 + size
    if at > len(data):
        raise ValueError("frame: header runs past the body")
    header = json.loads(data[4:at])
    if not isinstance(header, dict):
        raise ValueError("frame: header is not an object")
    layout = header.pop("layout", None)
    if not isinstance(layout, list) or not isinstance(header.get("columns"), list):
        raise ValueError("frame: no layout or columns")
    if len(layout) != len(header["columns"]):
        raise ValueError("frame: one layout entry per column")
    columns = []
    for entry in layout:
        code, nbytes = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not isinstance(nbytes, int) or nbytes < 0 or at + nbytes > len(data):
            raise ValueError("frame: a layout entry is not [code, nbytes] within the body")
        block, at = data[at : at + nbytes], at + nbytes
        if code == "j":
            values = json.loads(block)
            if not isinstance(values, list):
                raise ValueError("frame: a JSON block is not an array")
        elif code in ("i", "q", "d"):
            values = array.array(code, block)  # ValueError unless whole items
            if _SWAP:
                values.byteswap()
        else:
            raise ValueError(f"frame: unknown column code {code!r}")
        columns.append(values)
    if at != len(data):
        raise ValueError("frame: bytes after the last block")
    if len({len(values) for values in columns}) > 1:
        raise ValueError("frame: columns differ in length")
    header["rows"] = list(zip(*columns))
    return header
