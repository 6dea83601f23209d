"""Scheduling policies: functions n on type strings of the last M arrivals.

A policy is a table n: {1,2}^M -> {0..M} satisfying
  (C1) n(s) <= t(s), where t(s) counts the twos in s,
  (C2) n(s0 s1 ... s_{M-1}) <= n(s) + [s0 = 2] for all s and s0,
with strings read newest arrival first. A string is also a bitmask: bit i
is set when position i (0-based) holds a type-2 job.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, NamedTuple, Tuple

import numpy as np

String = Tuple[int, ...]


def count_twos(s) -> int:
    return sum(1 for c in s if c == 2)


def all_strings(m: int) -> Iterator[String]:
    return itertools.product((1, 2), repeat=m)


class PolicyError(ValueError):
    """Raised when a table violates (C1) or (C2)."""


@dataclass(frozen=True)
class PolicyFn:
    """A member of the family F_M, checked exhaustively at construction."""

    m: int
    table: Dict[String, int]

    def __post_init__(self):
        m = self.m
        table = dict(self.table)
        object.__setattr__(self, "table", table)
        if set(table.keys()) != set(all_strings(m)):
            raise PolicyError(f"table must cover all strings in {{1,2}}^{m}")
        for s, n in table.items():
            if not (0 <= n <= count_twos(s)):
                raise PolicyError(f"(C1) violated at {s}: n={n}, t={count_twos(s)}")
        for s in all_strings(m):
            for s0 in (1, 2):
                left = (s0,) + s[: m - 1]
                if table[left] > table[s] + (1 if s0 == 2 else 0):
                    raise PolicyError(f"(C2) violated at s0={s0}, s={s}")

    @functools.cached_property
    def by_mask(self) -> np.ndarray:
        """The table as an integer array indexed by the string's bitmask,
        built on first use."""
        strings = np.array(list(self.table), dtype=np.int64)
        by_mask = np.zeros(1 << self.m, dtype=np.int64)
        by_mask[(strings == 2) @ (1 << np.arange(self.m))] = list(self.table.values())
        return by_mask

    @classmethod
    def from_by_mask(cls, m: int, by_mask) -> "PolicyFn":
        """The table whose ``by_mask`` is the given row, checked as usual."""
        values = np.asarray(by_mask)[string_masks(m)].tolist()
        return cls(m, dict(zip(all_strings(m), values)))

    def __call__(self, s) -> int:
        return self.table[tuple(s)]

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.table.items()))))

    def __eq__(self, other):
        return isinstance(other, PolicyFn) and self.m == other.m and self.table == other.table


def _make(m: int, fn) -> PolicyFn:
    return PolicyFn(m, {s: fn(s) for s in all_strings(m)})


def fcfs_policy(m: int = 1) -> PolicyFn:
    """n = 0: never pass anyone."""
    return _make(m, lambda s: 0)


def nudge_m_policy(m: int) -> PolicyFn:
    """Pass every type-2 job among the last m arrivals: n(s) = t(s)."""
    return _make(m, count_twos)


def nudge_k_policy(k: int) -> PolicyFn:
    """Pass the leading run of twos: a type-2 job is passed at most once."""
    def n(s):
        c = 0
        for v in s:
            if v != 2:
                break
            c += 1
        return c
    return _make(k, n)


def nudge_l_policy(l: int) -> PolicyFn:
    """Pass at most one type-2 job: n(s) = min(t(s), 1)."""
    return _make(l, lambda s: min(count_twos(s), 1))


def nudge_km_policy(k: int, m: int) -> PolicyFn:
    """Nudge-M capped at k passes per type-1 job: n(s) = min(t(s), k)."""
    if not (1 <= k <= m):
        raise PolicyError("Nudge-K,M requires 1 <= K <= M")
    return _make(m, lambda s: min(count_twos(s), k))


def nudge_ml_policy(m: int, l: int) -> PolicyFn:
    """Nudge-M where a type-2 job is passed at most l times: n(s) counts the
    twos before the l-th one in s."""
    if not (1 <= l <= m):
        raise PolicyError("Nudge-M,L requires 1 <= L <= M")

    def n(s):
        ones = 0
        twos = 0
        for v in s:
            if v == 1:
                ones += 1
                if ones == l:
                    break
            else:
                twos += 1
        return twos
    return _make(m, n)


def nudge_kl_policy(k: int, l: int) -> PolicyFn:
    """At most k passes per type-1 job and at most l times passed per type-2
    job; window K+L-1. Count left to right, stopping at the k-th two or the
    l-th one; n(s) is the number of twos counted."""
    if k < 1 or l < 1:
        raise PolicyError("Nudge-K,L requires K, L >= 1")
    m = k + l - 1

    def n(s):
        ones = 0
        twos = 0
        for v in s:
            if v == 2:
                twos += 1
                if twos == k:
                    break
            else:
                ones += 1
                if ones == l:
                    break
        return twos
    return _make(m, n)


# Named family members: registry key -> builder over the parameters
# (m, k, l). The one list of policy names, shared with the CLI.
POLICY_BUILDERS: Dict[str, Callable[[dict], PolicyFn]] = {
    "fcfs": lambda p: fcfs_policy(p.get("m", 1)),
    "nudge-m": lambda p: nudge_m_policy(p["m"]),
    "nudge-k": lambda p: nudge_k_policy(p["k"]),
    "nudge-l": lambda p: nudge_l_policy(p["l"]),
    "nudge-km": lambda p: nudge_km_policy(p["k"], p["m"]),
    "nudge-ml": lambda p: nudge_ml_policy(p["m"], p["l"]),
    "nudge-kl": lambda p: nudge_kl_policy(p["k"], p["l"]),
}


def policy_key(kind: str) -> str:
    """Registry key of a policy name: case, '_' for '-' and the paper's
    comma forms (nudge-k,m) are accepted."""
    return kind.lower().replace("_", "-").replace(",", "")


def named_policy(kind: str, **params) -> PolicyFn:
    """Build one of the named family members (see ``POLICY_BUILDERS``)
    with the matching integer parameters (m, k, l)."""
    builder = POLICY_BUILDERS.get(policy_key(kind))
    if builder is None:
        raise PolicyError(f"unknown policy kind {kind!r}")
    try:
        return builder(params)
    except KeyError as exc:
        raise PolicyError(f"policy {kind!r} needs parameter {exc}") from exc


def string_masks(m: int) -> np.ndarray:
    """Bitmask of each string of ``all_strings(m)``, in that order."""
    lex = np.arange(1 << m)
    # all_strings counts with s_0 most significant; s_i is bit i of the mask
    return ((lex[:, None] >> (m - 1 - np.arange(m))) & 1) @ (1 << np.arange(m))


def _radix(m: int) -> np.ndarray:
    """t(s) + 1, the number of values of n(s), by bitmask."""
    return (np.arange(1 << m)[:, None] >> np.arange(m) & 1).sum(axis=1) + 1


def code_weights(m: int) -> np.ndarray:
    """Weight of each bitmask in the mixed-radix code of a table.

    The digit of string s is n(s), of radix t(s) + 1, and the digit of the
    last string of ``all_strings(m)`` varies fastest. ``by_mask @
    code_weights(m)`` is then the table's position in the product of the
    ranges range(t(s) + 1), and raising n(s) by one below t(s) adds
    ``code_weights(m)[s]`` to the code.
    """
    masks = string_masks(m)
    radix = _radix(m)
    lex_weights = np.ones(1 << m, dtype=np.int64)
    lex_weights[:-1] = np.cumprod(radix[masks][:0:-1])[::-1]
    weights = np.empty_like(lex_weights)
    weights[masks] = lex_weights
    return weights


class PolicyTables(NamedTuple):
    """Many tables of F_M as the rows of one integer array: row i is table
    i's ``PolicyFn.by_mask``. ``asymptotics.family_prefactors`` reads
    ``m`` and ``by_mask`` of a ``PolicyFn`` and of this alike."""

    m: int
    by_mask: np.ndarray


def valid_tables(m: int) -> PolicyTables:
    """Every table of F_m, in the order of the product of the ranges
    range(t(s) + 1) over ``all_strings(m)`` (so row codes under
    ``code_weights`` increase). The candidates are the codes of that whole
    product (864 at m = 3, 14,929,920 at m = 4, so m <= 3 only); (C1)
    holds by construction. (C2) is checked on all candidates at once, one
    pair of windows at a time, on digits decoded from the codes:
    prepending s0 to the window b gives ((b << 1) | s0) mod 2^m. Only the
    valid codes are decoded into rows.
    """
    if m > 3:
        raise ValueError("valid_tables checks every candidate: m <= 3 only")
    size = 1 << m
    weights, radix = code_weights(m), _radix(m)
    codes = np.arange(int(np.prod(radix)))
    ok = np.ones(codes.size, dtype=bool)
    for b in range(size):
        n_b = codes // weights[b] % radix[b]
        for s0 in (0, 1):
            left = ((b << 1) | s0) & (size - 1)
            ok &= codes // weights[left] % radix[left] <= n_b + s0
    codes = codes[ok]
    return PolicyTables(m, codes[:, None] // weights % radix)


def policy_from_table_file(path) -> PolicyFn:
    """Read a policy table: one line per string (a word of 1s and 2s) and
    its n value, whitespace separated."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word, value = line.split()
            table[tuple(int(c) for c in word)] = int(value)
    if not table:
        raise PolicyError("empty policy table file")
    m = len(next(iter(table)))
    return PolicyFn(m, table)
