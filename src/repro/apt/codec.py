"""Compact struct-packed record codec for format-v3 spools.

The per-input economics of §II/§IV are dominated by streaming the APT
through intermediate files, so bytes-per-record is a first-order lever.
Earlier spool formats pickled every node record (`pickle.dumps` per
record, ~100+ bytes for a small node); the v3 codec instead writes a
tagged binary encoding in which **symbol and attribute names are name-table
ids, not strings, on disk** — the same move the paper's overlay 1 makes
for identifiers ("intrinsic attributes … carry name-table indexes"),
now applied to the spool stream itself.

Node records — the 4-tuples ``(symbol, production, attrs, is_limb)``
that :class:`~repro.evalgen.runtime.EvaluatorRuntime` spools — get a
dedicated layout::

    'R'  u32 symbol_id  i32 production(-1=None)  u8 is_limb  u16 n_attrs
         ( u32 attr_name_id  <value> )*

Values use one tag byte each:

====  =======================================================
tag   encoding
====  =======================================================
'N'   None
'T'   True          (exact ``bool`` — checked before int)
'F'   False
'I'   i64 two's-complement little-endian (``<q>``)
'D'   float64 (``<d>``)
'Y'   interned string: u32 name-table id (short strings)
'S'   inline string: u32 byte length + UTF-8 bytes
'U'   tuple:  u32 count + items
'L'   list:   u32 count + items
'P'   pickle fallback: u32 byte length + pickle bytes
====  =======================================================

Anything the fast tags cannot represent *exactly* (``CatSeq``, sets,
dicts-as-values, big ints, subclasses) falls back to pickle inside a
``'P'`` frame, so decode is always value- and **type**-faithful — the
differential harness's byte-identity guarantee does not bend.  The
name table is serialized once per spool, in a sealed section before
the footer (see ``apt/storage.py``), amortizing every interned string
across the whole stream.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Tuple

from typing import NamedTuple

from repro.util.nametable import NameTable

__all__ = [
    "RecordCodec",
    "RecordAddress",
    "parse_address",
    "serialize_names",
    "deserialize_names",
]


class RecordAddress(NamedTuple):
    """Random-access address of one node record in a sealed spool set:
    ``(pass, block, record)`` — which pass's spool, which v3 block
    frame, and which record slot inside that block's payload.
    Rendered ``pass:block:record``."""

    pass_k: int
    block: int
    record: int

    def render(self) -> str:
        return f"{self.pass_k}:{self.block}:{self.record}"


def parse_address(text: str) -> RecordAddress:
    """Parse a ``pass:block:record`` address rendered by
    :meth:`RecordAddress.render`."""
    parts = text.split(":")
    if len(parts) != 3 or not all(p.lstrip("-").isdigit() for p in parts):
        raise ValueError(
            f"bad record address {text!r}; expected pass:block:record"
        )
    return RecordAddress(int(parts[0]), int(parts[1]), int(parts[2]))

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_NODE_HEAD = struct.Struct("<IiBH")  # symbol_id, production, is_limb, n_attrs

#: Strings longer than this are inlined rather than interned — one-off
#: long values (rendered code, listings) must not bloat the name table.
MAX_INTERN_LEN = 64

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class RecordCodec:
    """Encode/decode spool records against a per-spool :class:`NameTable`.

    One codec instance is bound to one spool: the writer side interns
    names as it encodes, and ``serialize_names`` (module function)
    seals the table into the file; the reader side is constructed from
    the deserialized table.
    """

    __slots__ = ("names",)

    def __init__(self, names: Optional[NameTable] = None):
        self.names = names if names is not None else NameTable()

    # -- encoding ----------------------------------------------------------

    def encode(self, record: Any) -> bytes:
        """Encode one record to bytes (node fast path or generic value)."""
        out = bytearray()
        if (
            type(record) is tuple
            and len(record) == 4
            and type(record[0]) is str
            and (record[1] is None or type(record[1]) is int)
            and type(record[2]) is dict
            and type(record[3]) is bool
            and -1 <= (record[1] if record[1] is not None else 0) <= _I64_MAX
        ):
            symbol, production, attrs, is_limb = record
            if all(type(k) is str for k in attrs):
                prod = -1 if production is None else production
                if 0 <= prod <= 0x7FFFFFFF or prod == -1:
                    out.append(0x52)  # 'R'
                    out += _NODE_HEAD.pack(
                        self.names.intern(symbol), prod,
                        1 if is_limb else 0, len(attrs),
                    )
                    for name, value in attrs.items():
                        out += _U32.pack(self.names.intern(name))
                        self._encode_value(value, out)
                    return bytes(out)
        self._encode_value(record, out)
        return bytes(out)

    def _encode_value(self, v: Any, out: bytearray) -> None:
        t = type(v)
        if v is None:
            out.append(0x4E)  # 'N'
        elif t is bool:
            out.append(0x54 if v else 0x46)  # 'T' / 'F'
        elif t is int:
            if _I64_MIN <= v <= _I64_MAX:
                out.append(0x49)  # 'I'
                out += _I64.pack(v)
            else:
                self._encode_pickle(v, out)
        elif t is float:
            out.append(0x44)  # 'D'
            out += _F64.pack(v)
        elif t is str:
            if len(v) <= MAX_INTERN_LEN:
                out.append(0x59)  # 'Y'
                out += _U32.pack(self.names.intern(v))
            else:
                raw = v.encode("utf-8")
                out.append(0x53)  # 'S'
                out += _U32.pack(len(raw))
                out += raw
        elif t is tuple:
            out.append(0x55)  # 'U'
            out += _U32.pack(len(v))
            for item in v:
                self._encode_value(item, out)
        elif t is list:
            out.append(0x4C)  # 'L'
            out += _U32.pack(len(v))
            for item in v:
                self._encode_value(item, out)
        else:
            self._encode_pickle(v, out)

    @staticmethod
    def _encode_pickle(v: Any, out: bytearray) -> None:
        raw = pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(0x50)  # 'P'
        out += _U32.pack(len(raw))
        out += raw

    # -- decoding ----------------------------------------------------------

    def decode(self, blob: bytes) -> Any:
        """Decode one record previously produced by :meth:`encode`."""
        if not blob:
            raise ValueError("empty record payload")
        if blob[0] == 0x52:  # 'R' node record
            sym_id, prod, is_limb, n_attrs = _NODE_HEAD.unpack_from(blob, 1)
            pos = 1 + _NODE_HEAD.size
            attrs = {}
            spelling = self.names.spelling
            for _ in range(n_attrs):
                (name_id,) = _U32.unpack_from(blob, pos)
                pos += 4
                value, pos = self._decode_value(blob, pos)
                attrs[spelling(name_id)] = value
            if pos != len(blob):
                raise ValueError(
                    f"trailing garbage after node record "
                    f"({len(blob) - pos} bytes)"
                )
            return (
                spelling(sym_id),
                None if prod == -1 else prod,
                attrs,
                bool(is_limb),
            )
        value, pos = self._decode_value(blob, 0)
        if pos != len(blob):
            raise ValueError(
                f"trailing garbage after value ({len(blob) - pos} bytes)"
            )
        return value

    def _decode_value(self, blob: bytes, pos: int) -> Tuple[Any, int]:
        tag = blob[pos]
        pos += 1
        if tag == 0x4E:
            return None, pos
        if tag == 0x54:
            return True, pos
        if tag == 0x46:
            return False, pos
        if tag == 0x49:
            return _I64.unpack_from(blob, pos)[0], pos + 8
        if tag == 0x44:
            return _F64.unpack_from(blob, pos)[0], pos + 8
        if tag == 0x59:
            (name_id,) = _U32.unpack_from(blob, pos)
            return self.names.spelling(name_id), pos + 4
        if tag == 0x53:
            (length,) = _U32.unpack_from(blob, pos)
            pos += 4
            return blob[pos:pos + length].decode("utf-8"), pos + length
        if tag == 0x55 or tag == 0x4C:
            (count,) = _U32.unpack_from(blob, pos)
            pos += 4
            items: List[Any] = []
            for _ in range(count):
                item, pos = self._decode_value(blob, pos)
                items.append(item)
            return (tuple(items) if tag == 0x55 else items), pos
        if tag == 0x50:
            (length,) = _U32.unpack_from(blob, pos)
            pos += 4
            return pickle.loads(blob[pos:pos + length]), pos + length
        raise ValueError(f"unknown value tag {tag:#04x} at offset {pos - 1}")


# ---------------------------------------------------------------------------
# name-table section (de)serialization
# ---------------------------------------------------------------------------


def serialize_names(names: NameTable) -> bytes:
    """Flatten a name table into the v3 name-table section payload:
    ``u32 count`` then ``(u32 len, utf-8 bytes)`` per name, in id order
    (the sentinel id 0 is implicit and never stored)."""
    out = bytearray(_U32.pack(len(names)))
    for name in names:
        raw = name.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
    return bytes(out)


def deserialize_names(payload: bytes) -> NameTable:
    """Rebuild a name table from its serialized section payload."""
    names = NameTable()
    (count,) = _U32.unpack_from(payload, 0)
    pos = 4
    for i in range(count):
        if pos + 4 > len(payload):
            raise ValueError(f"name-table entry {i} header truncated")
        (length,) = _U32.unpack_from(payload, pos)
        pos += 4
        if pos + length > len(payload):
            raise ValueError(f"name-table entry {i} payload truncated")
        names.intern(payload[pos:pos + length].decode("utf-8"))
        pos += length
    if pos != len(payload):
        raise ValueError(
            f"trailing garbage after name table ({len(payload) - pos} bytes)"
        )
    return names
