"""The xseed chunked-file substrate: an mSEED/libmseed stand-in.

Chunks (files) carry small header metadata (GMd) and large Steim-compressed
waveform payloads (AD); the README's "Repository layout" section says
where it sits.
"""

from .format import SegmentHeader, VolumeHeader
from .reader import (
    FileMetadata,
    SegmentSamples,
    read_metadata,
    read_samples,
    sample_times,
)
from .repository import ChunkInfo, FileRepository
from .steim import decode, encode
from .writer import SegmentData, write_volume

__all__ = [
    "ChunkInfo",
    "FileMetadata",
    "FileRepository",
    "SegmentData",
    "SegmentHeader",
    "SegmentSamples",
    "VolumeHeader",
    "decode",
    "encode",
    "read_metadata",
    "read_samples",
    "sample_times",
    "write_volume",
]
