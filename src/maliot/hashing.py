"""Stable string hashing shared by the featurizer and the broker.

Python's builtin hash() is salted per process, so everything that must be
reproducible across runs (partition routing, IP feature hashing) goes
through CRC-32 instead.
"""

import ipaddress
import zlib
from functools import lru_cache


def stable_hash32(s: str) -> int:
    """CRC-32 of the UTF-8 bytes (a lone surrogate passes), as an unsigned
    32-bit int."""
    return zlib.crc32(s.encode("utf-8", "surrogatepass")) & 0xFFFFFFFF


def hash_to_unit(s: str) -> float:
    """Map a string to [0, 1) deterministically."""
    return stable_hash32(s) / 2.0**32


@lru_cache(maxsize=65536)
def is_private_ip(s: str) -> int:
    """1 if the string parses as a private-range IP address, else 0."""
    try:
        return 1 if ipaddress.ip_address(s).is_private else 0
    except ValueError:
        return 0
