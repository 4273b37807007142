"""Gallery-test fixtures.

``tall_matrix`` is redefined here with a private generator (instead of the
session-wide ``rng`` fixture) so the gallery tests do not advance the shared
random stream other test modules draw from.  ``archive_file`` reads and
damages saved archives byte by byte.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture()
def tall_matrix() -> np.ndarray:
    """A tall random matrix with a planted low-rank structure."""
    rng = np.random.default_rng(20260730)
    basis = rng.standard_normal((200, 5))
    weights = rng.standard_normal((5, 12))
    return basis @ weights + 0.05 * rng.standard_normal((200, 12))


class ArchiveFile:
    """Byte-level access to a saved gallery's format-2 archive, for tamper tests.

    The layout is read from the file itself: a ``<8sQ64s`` header (magic,
    document length, integrity digest), the JSON document, zero padding to
    a 64-byte boundary, then the arrays in the order the document lists.
    """

    HEADER = struct.Struct("<8sQ64s")

    def __init__(self, directory):
        self.path = Path(directory) / "gallery.bin"

    def regions(self):
        """``name -> (start, stop)`` byte ranges, with ``"document"`` for the JSON."""
        raw = self.path.read_bytes()
        _, length, _ = self.HEADER.unpack_from(raw)
        end = self.HEADER.size + length
        regions = {"header": (0, self.HEADER.size), "document": (self.HEADER.size, end)}
        offset = end + (-end % 64)
        for entry in json.loads(raw[self.HEADER.size:end])["arrays"]:
            size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
            regions[entry["name"]] = (offset, offset + size)
            offset += size
        return regions

    def flip(self, name, at=0):
        """Flip the lowest bit of byte ``at`` of region ``name``."""
        raw = bytearray(self.path.read_bytes())
        raw[self.regions()[name][0] + at] ^= 0x01
        self.path.write_bytes(bytes(raw))

    def edit_document(self, change):
        """Apply ``change`` to the parsed document; the stored digest is kept."""
        raw = self.path.read_bytes()
        magic, length, integrity = self.HEADER.unpack_from(raw)
        end = self.HEADER.size + length
        document = json.loads(raw[self.HEADER.size:end])
        change(document)
        text = json.dumps(document).encode()
        head = self.HEADER.pack(magic, len(text), integrity) + text
        self.path.write_bytes(head + bytes(-len(head) % 64) + raw[end + (-end % 64):])


@pytest.fixture()
def archive_file():
    """The :class:`ArchiveFile` helper."""
    return ArchiveFile
