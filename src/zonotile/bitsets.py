"""Bitmask encoding for subsets of the ground set {1, ..., n}.

Element i (1-based) is stored as bit i-1.  The empty set is 0.  min/max of
the empty set are defined as 0, matching the ordering conventions used by
the separation relations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_GROUND = 16


def check_ground(n: int) -> int:
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be an integer in 1..{MAX_GROUND}, got {n!r}")
    return n


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        # an element above MAX_GROUND fits no ground set, and its mask
        # would take e/8 bytes
        if not 1 <= e <= MAX_GROUND:
            raise ValueError(f"element {e} out of range 1..{MAX_GROUND}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_elements(mask))


def iter_elements(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def size(mask: int) -> int:
    return mask.bit_count()


def min_element(mask: int) -> int:
    """Smallest element, 0 for the empty set."""
    return (mask & -mask).bit_length()


def max_element(mask: int) -> int:
    """Largest element, 0 for the empty set."""
    return mask.bit_length()


def singleton(e: int) -> int:
    return 1 << (e - 1)


def has(mask: int, e: int) -> bool:
    return bool(mask >> (e - 1) & 1)


def reverse_mask(mask: int, n: int) -> int:
    """Image of the set under the index reversal i -> n+1-i."""
    out = 0
    for e in iter_elements(mask):
        out |= 1 << (n - e)
    return out


def check_subset(mask: int, n: int) -> int:
    if mask < 0 or mask & ~full_mask(n):
        raise ValueError(f"mask {mask:#x} has elements outside 1..{n}")
    return mask


def format_subset(mask: int) -> str:
    if mask == 0:
        return "{}"
    return "{" + ",".join(str(e) for e in iter_elements(mask)) + "}"


def parse_subset(text: str) -> int:
    """Parse '1,3,4', '{1,3,4}', '134'-free forms; '' , '{}' and '-' mean the empty set."""
    t = text.strip().strip("{}").strip()
    if t in ("", "-"):
        return 0
    return mask_of(int(p) for p in t.replace(" ", "").split(","))
