"""Scheduling policies: functions n on type strings of the last M arrivals.

A policy is a table n: {1,2}^M -> {0..M} satisfying
  (C1) n(s) <= t(s), where t(s) counts the twos in s,
  (C2) n(s0 s1 ... s_{M-1}) <= n(s) + [s0 = 2] for all s and s0,
with strings read newest arrival first. A string is also a bitmask: bit i
is set when position i (0-based) holds a type-2 job. A table is stored and
checked as an integer array indexed by bitmask (``PolicyFn.by_mask``), and
every named member is one Nudge-(M, K, L) (``nudge_mkl``), computed on the
window bit matrix (``windows``), not string by string.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Tuple

import numpy as np

String = Tuple[int, ...]
Triple = Tuple[int, int, int]  # (M, K, L) of a Nudge-(M, K, L)


def all_strings(m: int) -> Iterator[String]:
    return itertools.product((1, 2), repeat=m)


class PolicyError(ValueError):
    """Raised when a table violates (C1) or (C2)."""


class Windows(NamedTuple):
    """The windows of length m, indexed by bitmask b, as read-only arrays."""

    bits: np.ndarray         # bits[b, i]: position i holds a type-2 job
    twos: np.ndarray         # t(b), the number of twos
    ones_before: np.ndarray  # ones_before[b, i]: ones at positions 0..i-1
    left: np.ndarray         # left[b, s0] = ((b << 1) | s0) mod 2^m
    s0: np.ndarray           # (0, 1): prepended type 1 or 2, left's columns
    masks: np.ndarray        # masks[j]: bitmask of the j-th of all_strings(m)


@functools.lru_cache(maxsize=None)
def windows(m: int) -> Windows:
    """The ``Windows`` of length m, built on first use for each m."""
    if m < 1:
        raise PolicyError("window m must be >= 1")
    b, i, s0 = np.arange(1 << m), np.arange(m), np.arange(2)
    bits = (b[:, None] >> i & 1).astype(bool)
    ones = ~bits
    # all_strings counts with s_0 most significant; s_i is bit i of the mask
    masks = (b[:, None] >> (m - 1 - i) & 1) @ (1 << i)
    out = Windows(bits, bits.sum(axis=1),
                  np.cumsum(ones, axis=1, dtype=np.uint8) - ones,
                  ((b[:, None] << 1) | s0) & (b.size - 1), s0, masks)
    for a in out:
        a.flags.writeable = False
    return out


def _mask_string(m: int, b: int) -> String:
    return tuple(2 if b >> i & 1 else 1 for i in range(m))


def c2_pairs(m: int, rows: np.ndarray) -> np.ndarray:
    """(C2) on table rows indexed by bitmask, pair by pair: entry
    [..., b, s0] holds n(((b << 1) | s0) mod 2^m) <= n(b) + s0, where
    s0 = 1 prepends a type-2 job to the window b and s0 = 0 a type-1 job."""
    w = windows(m)
    return rows[..., w.left] <= rows[..., :, None] + w.s0


@dataclass(frozen=True, eq=False)
class PolicyFn:
    """A member of the family F_M, checked exhaustively at construction.

    ``PolicyFn(m, table)`` takes the table as a dict keyed by strings or as
    a row indexed by bitmask. ``__post_init__`` stores it as ``by_mask``, a
    read-only integer array holding n(s) at the bitmask of s, and checks
    it.
    """

    m: int
    by_mask: np.ndarray

    def __post_init__(self):
        m, given = self.m, self.by_mask
        w = windows(m)
        size = w.twos.size
        if isinstance(given, Mapping):
            try:
                values = [given[s] for s in all_strings(m)]
            except KeyError:
                values = None
            if values is None or len(given) != size:
                raise PolicyError(f"table must cover all strings in {{1,2}}^{m}")
            row = np.empty(size, dtype=np.int64)
            row[w.masks] = values
        else:
            row = np.array(given, dtype=np.int64)
            if row.shape != (size,):
                raise PolicyError(f"table must cover all strings in {{1,2}}^{m}")
        row.flags.writeable = False
        object.__setattr__(self, "by_mask", row)

        # the first violation is reported in all_strings order, (C1) first
        ok1 = (0 <= row) & (row <= w.twos)
        if not ok1.all():
            b = int(w.masks[np.argmin(ok1[w.masks])])
            raise PolicyError(f"(C1) violated at {_mask_string(m, b)}: "
                              f"n={int(row[b])}, t={int(w.twos[b])}")
        ok2 = c2_pairs(m, row)
        if not ok2.all():
            j, s0 = divmod(int(np.argmin(ok2[w.masks])), 2)
            raise PolicyError(f"(C2) violated at s0={s0 + 1}, "
                              f"s={_mask_string(m, int(w.masks[j]))}")

    @functools.cached_property
    def table(self) -> Dict[String, int]:
        """The table as a dict keyed by string, built on first use."""
        return dict(zip(all_strings(self.m),
                        self.by_mask[windows(self.m).masks].tolist()))

    def __call__(self, s) -> int:
        return self.table[tuple(s)]

    def __reduce__(self):
        # a copy or an unpickled table is rebuilt and checked, read-only
        return type(self), (self.m, self.by_mask)

    def __hash__(self):
        return hash((self.m, self.by_mask.tobytes()))

    def __eq__(self, other):
        return (isinstance(other, PolicyFn) and self.m == other.m
                and np.array_equal(self.by_mask, other.by_mask))


def nudge_mkl(m: int, k: int, l: int) -> PolicyFn:
    """Nudge-(M, K, L), the one builder of the named tables: within the last
    m arrivals a type-1 job passes at most k type-2 jobs, and a type-2 job
    is passed at most l times, so n(s) = min(k, the twos in s that have
    fewer than l ones before them). Every 0 <= k <= m, 1 <= l <= m gives a
    table of F_m; a k or l above m acts as m."""
    return PolicyFn(m, np.minimum(_twos_before(m, l), k))


@functools.lru_cache(maxsize=None)
def _twos_before(m: int, l: int) -> np.ndarray:
    """By bitmask: the twos that have fewer than l ones before them."""
    w = windows(m)
    out = (w.bits & (w.ones_before < l)).sum(axis=1)
    out.flags.writeable = False  # shared between calls
    return out


def _admissible(m: int, k: int, l: int) -> bool:
    return 0 <= k <= m and 1 <= l <= m


# Named family members: registry key -> its (M, K, L) from the parameters
# m, k, l that the lambda names; a name reads no others. The one list of
# policy names, shared with the CLI.
NAMED_POLICIES: Dict[str, Callable[..., Triple]] = {
    "fcfs": lambda m=1: (m, 0, m),
    "nudge-m": lambda m: (m, m, m),
    "nudge-k": lambda k: (k, k, 1),
    "nudge-l": lambda l: (l, 1, l),
    "nudge-km": lambda m, k: (m, k, m),
    "nudge-ml": lambda m, l: (m, m, l),
    "nudge-kl": lambda k, l: (k + l - 1, k, l),
}


def policy_key(kind: str) -> str:
    """Registry key of a policy name: case, '_' for '-' and the paper's
    comma forms (nudge-k,m) are accepted."""
    return kind.lower().replace("_", "-").replace(",", "")


def _apply(kind: str, params: dict) -> Tuple[Triple, dict]:
    """A name's (M, K, L), unchecked, and the parameters its rule reads."""
    rule = NAMED_POLICIES.get(policy_key(kind))
    if rule is None:
        raise PolicyError(f"unknown policy {kind!r}; the registered names are "
                          f"{', '.join(NAMED_POLICIES)}")
    reads = rule.__code__.co_varnames  # the lambda's parameter names
    given = {p: params[p] for p in reads if params.get(p) is not None}
    try:
        return rule(**given), given
    except TypeError as exc:  # a parameter that the rule reads is not given
        raise PolicyError(f"policy {kind!r}: {exc}") from None


def named_triple(kind: str, **params) -> Triple:
    """(M, K, L) of a named member for the integer parameters (m, k, l):
    None and those that its rule does not read are ignored. Each one read
    must be at least 1, and 0 <= K <= M, 1 <= L <= M."""
    (m, k, l), given = _apply(kind, params)
    if min(given.values(), default=1) < 1 or not _admissible(m, k, l):
        raise PolicyError(f"policy {kind!r} refuses {given}: its window m must be "
                          ">= 1, the parameters it reads too, and 0 <= K <= M, "
                          f"1 <= L <= M; (M, K, L) = {(m, k, l)}")
    return m, k, l


def named_policy(kind: str, **params) -> PolicyFn:
    """The table of ``named_triple(kind, **params)``."""
    return nudge_mkl(*named_triple(kind, **params))


def member_windows(kind: str, top: int, **params) -> List[int]:
    """The windows top..1 at which a name has a member for the parameters
    k and l: those w whose triple for m = w has window w and is
    admissible. No table is built."""
    triples = ((w, _apply(kind, dict(params, m=w))[0]) for w in range(top, 0, -1))
    return [w for w, t in triples if t[0] == w and _admissible(*t)]


class PolicyTables(NamedTuple):
    """Many tables of F_M as the rows of one integer array: row i is table
    i's ``PolicyFn.by_mask``, unchecked; ``valid_tables`` and
    ``asymptotics.verify_optimality`` keep only rows that pass
    ``c2_pairs``. ``asymptotics.family_prefactors`` reads ``m`` and
    ``by_mask`` of a ``PolicyFn`` and of this alike."""

    m: int
    by_mask: np.ndarray


@functools.lru_cache(maxsize=None)
def valid_tables(m: int) -> PolicyTables:
    """Every table of F_m, in the order of the product of the ranges
    range(t(s) + 1) over ``all_strings(m)``, the last string varying
    fastest. The candidates are that whole product (864 at m = 3,
    14,929,920 at m = 4, so m <= 3 only), so (C1) holds by construction;
    the rows that meet ``c2_pairs`` at every pair are kept. Built on first
    use for each m, like ``windows``; the rows are read-only.
    """
    if m > 3:
        raise ValueError("valid_tables checks every candidate: m <= 3 only")
    w = windows(m)
    rows = np.empty((int(np.prod(w.twos + 1)), 1 << m), dtype=np.int64)
    rows[:, w.masks] = np.indices(w.twos[w.masks] + 1).reshape(1 << m, -1).T
    rows = rows[c2_pairs(m, rows).all(axis=(1, 2))]
    rows.flags.writeable = False  # shared between calls
    return PolicyTables(m, rows)


def policy_from_table_file(path) -> PolicyFn:
    """Read a policy table: one line per string (a word of 1s and 2s) and
    its n value, whitespace separated; a word may appear once."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word, value = line.split()
            s = tuple(int(c) for c in word)
            if s in table:
                raise PolicyError(f"word {word} appears twice in the policy table file")
            table[s] = int(value)
    if not table:
        raise PolicyError("empty policy table file")
    m = len(next(iter(table)))
    return PolicyFn(m, table)
