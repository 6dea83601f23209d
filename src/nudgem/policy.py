"""Scheduling policies: functions n on type strings of the last M arrivals.

A policy is a table n: {1,2}^M -> {0..M} satisfying
  (C1) n(s) <= t(s), where t(s) counts the twos in s,
  (C2) n(s0 s1 ... s_{M-1}) <= n(s) + [s0 = 2] for all s and s0,
with strings read newest arrival first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

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


def enumerate_policies(m: int) -> Iterator[PolicyFn]:
    """All valid tables for window m (exhaustive; use only for m <= 3)."""
    strings = list(all_strings(m))
    ranges = [range(count_twos(s) + 1) for s in strings]
    for values in itertools.product(*ranges):
        table = dict(zip(strings, values))
        ok = True
        for s in strings:
            ns = table[s]
            for s0 in (1, 2):
                left = (s0,) + s[: m - 1]
                if table[left] > ns + (1 if s0 == 2 else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield PolicyFn(m, table)


def increment_edges(policy: PolicyFn):
    """Strings s whose n(s) can be raised by one without leaving the family.

    Yields (s, incremented PolicyFn) pairs; these are the single-increment
    edges of the enumeration lattice.
    """
    m = policy.m
    for s in all_strings(m):
        if policy.table[s] >= count_twos(s):
            continue
        table = dict(policy.table)
        table[s] += 1
        try:
            yield s, PolicyFn(m, table)
        except PolicyError:
            continue


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
