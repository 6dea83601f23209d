import copy
import functools
import pickle
import types

import numpy as np
import pytest

from oracles import (STRING_BUILDERS, count_twos, enumerate_policies,
                     increment_edges)

from nudgem.asymptotics import decay_rate, verify_optimality
from nudgem.phtype import ComplexityError, two_class_exp_mix
from nudgem.policy import (
    NAMED_POLICIES,
    PolicyError,
    PolicyFn,
    all_strings,
    member_windows,
    named_policy,
    named_triple,
    nudge_mkl,
    policy_from_table_file,
    valid_tables,
)


def test_fcfs_is_zero():
    pol = named_policy("fcfs", m=3)
    assert all(pol(s) == 0 for s in all_strings(3))


def test_nudge_m_passes_all_twos():
    pol = named_policy("nudge-m", m=4)
    assert pol((2, 2, 1, 2)) == 3
    assert pol((1, 1, 1, 1)) == 0
    assert all(pol(s) == count_twos(s) for s in all_strings(4))


def test_nudge_k_leading_twos_only():
    pol = named_policy("nudge-k", k=3)
    assert pol((2, 2, 1)) == 2
    assert pol((1, 2, 2)) == 0
    assert pol((2, 2, 2)) == 3


def test_nudge_l_caps_at_one():
    pol = named_policy("nudge-l", l=3)
    assert pol((2, 2, 2)) == 1
    assert pol((1, 1, 1)) == 0


def test_nudge_km_caps_at_k():
    pol = named_policy("nudge-km", k=2, m=4)
    assert pol((2, 2, 2, 2)) == 2
    assert pol((1, 2, 1, 1)) == 1


def test_nudge_ml_counts_twos_before_lth_one():
    pol = named_policy("nudge-ml", m=4, l=2)
    # the second type-1 appears at position 3: only the twos before it count
    assert pol((2, 1, 1, 2)) == 1
    assert pol((2, 2, 1, 2)) == 3
    assert pol((1, 1, 2, 2)) == 0


def test_nudge_kl_window_and_count():
    pol = named_policy("nudge-kl", k=2, l=3)
    assert pol.m == 4
    assert pol((2, 2, 1, 1)) == 2
    # third one reached before the second two: stop with one pass
    assert pol((2, 1, 1, 1)) == 1


def test_condition_c1_enforced():
    table = {s: count_twos(s) for s in all_strings(2)}
    table[(1, 1)] = 1
    with pytest.raises(PolicyError):
        PolicyFn(2, table)


def test_condition_c2_enforced():
    # n jumps by 2 when a two is prepended: violates the one-step growth rule
    table = {s: 0 for s in all_strings(2)}
    table[(2, 2)] = 2
    with pytest.raises(PolicyError):
        PolicyFn(2, table)


def test_enumeration_counts_frozen():
    # exhaustive counts of valid tables, frozen after independent enumeration
    assert sum(1 for _ in enumerate_policies(1)) == 2
    assert sum(1 for _ in enumerate_policies(2)) == 7
    for pol in enumerate_policies(2):
        PolicyFn(pol.m, pol.table)  # revalidates (C1)/(C2)
    assert [len(valid_tables(m).by_mask) for m in (1, 2, 3)] == [2, 7, 74]
    with pytest.raises(ComplexityError, match="capped at M <= 3"):
        valid_tables(4)  # 14,929,920 candidates: refused before any is built


@pytest.mark.parametrize("m", [1, 2, 3])
def test_valid_tables_equal_python_enumeration(m):
    # the same tables in the same order, each a valid PolicyFn row
    tables = valid_tables(m)
    assert tables.m == m
    want = [pol.by_mask for pol in enumerate_policies(m)]
    assert len(tables.by_mask) == len(want)
    for row, by_mask in zip(tables.by_mask, want):
        assert np.array_equal(row, by_mask)
        assert PolicyFn(m, row).by_mask.tolist() == row.tolist()


def test_valid_tables_cached_read_only():
    # one shared, read-only array per m; verify_optimality raises copies
    tables = valid_tables(3)
    assert valid_tables(3) is tables
    with pytest.raises(ValueError):
        tables.by_mask[0, 0] = 1
    mix = two_class_exp_mix(p=2 / 3, ratio=4.0, lam=0.7)
    for _ in range(2):
        rep = verify_optimality(3, decay_rate(mix), mix)
        assert (rep.n_policies, rep.n_edges) == (74, 168)


def test_increment_edges_stay_in_family():
    pol = named_policy("nudge-km", k=1, m=2)
    edges = list(increment_edges(pol))
    assert edges
    for s, nxt in edges:
        assert nxt.table[s] == pol.table[s] + 1
        changed = [u for u in all_strings(2) if nxt.table[u] != pol.table[u]]
        assert changed == [s]


def test_named_policy_dispatch():
    # a name builds the Nudge-(M, K, L) of its triple, in any spelling, and
    # ignores the parameters its rule does not read
    assert named_policy("nudge-m", m=3) == nudge_mkl(3, 3, 3)
    assert named_policy("nudge-kl", k=2, l=2) == nudge_mkl(3, 2, 2)
    assert named_policy("Nudge_K,L", k=2, l=2, m=0) == nudge_mkl(3, 2, 2)
    assert named_policy("nudge-m", m=3, k=0, l=-1) == named_policy("nudge-m", m=3)
    assert named_policy("fcfs") == nudge_mkl(1, 0, 1)
    with pytest.raises(PolicyError, match="registered names are fcfs, nudge-m, "):
        named_policy("lifo")


def test_named_triples():
    # the one map from name to (M, K, L)
    want = {"fcfs": (5, 0, 5), "nudge-m": (5, 5, 5), "nudge-k": (2, 2, 1),
            "nudge-l": (3, 1, 3), "nudge-km": (5, 2, 5), "nudge-ml": (5, 5, 3),
            "nudge-kl": (4, 2, 3)}
    assert set(NAMED_POLICIES) == set(want)
    for kind, triple in want.items():
        assert named_triple(kind, m=5, k=2, l=3) == triple, kind


@pytest.mark.parametrize("kind, params", [
    ("nudge-m", {}), ("nudge-k", {"m": 3}), ("nudge-l", {"m": 3}),
    ("nudge-km", {"m": 3}), ("nudge-km", {"k": 2}), ("nudge-ml", {"m": 3}),
    ("nudge-kl", {"k": 2}), ("nudge-kl", {"l": 2, "k": None}),
    ("nudge-km", {"k": 0, "m": 3}), ("nudge-km", {"k": -1, "m": 3}),
    ("nudge-km", {"k": 4, "m": 3}), ("nudge-ml", {"l": 0, "m": 3}),
    ("nudge-ml", {"l": 4, "m": 3}), ("nudge-kl", {"k": 0, "l": 1}),
    ("nudge-kl", {"k": 0, "l": 3}), ("nudge-kl", {"k": 2, "l": 0}),
    ("nudge-kl", {"k": -1, "l": 5}), ("nudge-m", {"m": 0}),
])
def test_named_policy_refusals(kind, params):
    # a missing parameter, a window, K or L below 1, and K or L above M
    with pytest.raises(PolicyError):
        named_policy(kind, **params)
    with pytest.raises(PolicyError):
        named_triple(kind, **params)


@pytest.mark.parametrize("m", range(1, 6))
def test_every_admissible_triple_is_in_the_family(m):
    # PolicyFn checks (C1) and (C2) at construction; n = min(K, the twos
    # before the L-th one) string by string
    def n(s, k, l):
        ones = twos = 0
        for v in s:
            ones += v == 1
            twos += v == 2 and ones < l
        return min(k, twos)

    for k in range(m + 1):
        for l in range(1, m + 1):
            pol = nudge_mkl(m, k, l)
            assert all(pol(s) == n(s, k, l) for s in all_strings(m)), (m, k, l)
    assert nudge_mkl(m, m + 1, m + 2) == nudge_mkl(m, m, m)
    with pytest.raises(PolicyError, match=r"\(C1\) violated"):
        nudge_mkl(m, -1, 1)


@pytest.mark.parametrize("kind", sorted(NAMED_POLICIES))
def test_member_windows_are_those_named_policy_builds(kind):
    # the windows read from the rule are those at which the name builds a
    # table of that window
    for k in range(1, 5):
        for l in range(1, 5):
            want = []
            for w in range(6, 0, -1):
                try:
                    if named_policy(kind, m=w, k=k, l=l).m == w:
                        want.append(w)
                except PolicyError:
                    pass
            assert member_windows(kind, 6, k=k, l=l) == want, (kind, k, l)


def test_table_file_refuses_a_repeated_word(tmp_path):
    # a word given twice is an error, not the last value silently winning
    path = tmp_path / "table.txt"
    path.write_text("11 0\n12 0\n21 1\n22 2\n22 1\n")
    with pytest.raises(PolicyError, match="word 22 appears twice"):
        policy_from_table_file(path)


def test_table_file_round_trip(tmp_path):
    pol = named_policy("nudge-km", k=2, m=3)
    path = tmp_path / "table.txt"
    lines = ["# window 3"]
    for s, n in sorted(pol.table.items()):
        lines.append("".join(map(str, s)) + " " + str(n))
    path.write_text("\n".join(lines))
    assert policy_from_table_file(path) == pol


def _named_params(max_window):
    """Every parameter choice of every named builder with window at most
    max_window."""
    for w in range(1, max_window + 1):
        yield "fcfs", {"m": w}
        yield "nudge-m", {"m": w}
        yield "nudge-k", {"k": w}
        yield "nudge-l", {"l": w}
        for i in range(1, w + 1):
            yield "nudge-km", {"k": i, "m": w}
            yield "nudge-ml", {"m": w, "l": i}
            yield "nudge-kl", {"k": i, "l": w + 1 - i}


def test_named_builders_equal_string_definitions():
    # the bitmask rows against the paper's definitions, one string at a time
    assert set(STRING_BUILDERS) == set(NAMED_POLICIES)
    count = 0
    for kind, params in _named_params(10):
        pol = named_policy(kind, **params)
        assert np.array_equal(pol.by_mask, STRING_BUILDERS[kind](params)), (kind, params)
        count += 1
    assert count == 4 * 10 + 3 * 55


@pytest.mark.parametrize("kind", ["fcfs", "nudge-m", "nudge-k", "nudge-l"],
                         ids=lambda kind: kind.replace("-", "_") + "_policy")
@pytest.mark.parametrize("window", [0, -2])
def test_builders_refuse_window_below_one(kind, window):
    # each of these names reads one parameter, its window
    with pytest.raises(PolicyError, match="window m must be >= 1"):
        named_policy(kind, m=window, k=window, l=window)
    with pytest.raises(PolicyError, match="window m must be >= 1"):
        nudge_mkl(window, 0, 1)


def test_by_mask_is_read_only_and_defines_equality():
    pol = named_policy("nudge-km", k=2, m=3)
    with pytest.raises(ValueError):
        pol.by_mask[0] = 1
    row = pol.by_mask.copy()
    same = PolicyFn(3, row)
    row[-1] = 0  # the caller's array is copied, not held
    assert same == pol and hash(same) == hash(pol)
    assert PolicyFn(3, pol.table) == pol
    assert same != named_policy("nudge-m", m=3) and same != PolicyFn(2, [0, 1, 1, 2])
    assert len({pol, same, named_policy("nudge-m", m=3)}) == 2
    for twin in (copy.deepcopy(pol), pickle.loads(pickle.dumps(pol))):
        assert twin == pol and not twin.by_mask.flags.writeable


def test_every_construction_runs_post_init(monkeypatch, tmp_path):
    # the benchmark counts tables by wrapping PolicyFn.__post_init__ in the
    # class dict, so every way of building a table validates it there, once.
    # nudge_mkl, and every name through it, keeps the one validated table of
    # each (M, K, L): a repeat call returns that object and validates
    # nothing. The cache is cleared first, so each triple's first call builds
    assert "__post_init__" in PolicyFn.__dict__
    nudge_mkl.cache_clear()
    calls = []
    real = PolicyFn.__post_init__

    def counted(self):
        calls.append(self.m)
        real(self)

    monkeypatch.setattr(PolicyFn, "__post_init__", counted)
    path = tmp_path / "table.txt"
    path.write_text("1 0\n2 1\n")
    for build in (functools.partial(PolicyFn, 1, {(1,): 0, (2,): 1}),
                  functools.partial(policy_from_table_file, path)):
        for _ in range(2):  # built and validated on every call
            before = len(calls)
            build()
            assert len(calls) == before + 1, build
    shared = [((2, 1, 2), functools.partial(nudge_mkl, 2, 1, 2))]
    shared += [(named_triple(kind, **params),
                functools.partial(named_policy, kind, **params))
               for kind, params in _named_params(2)]
    seen = set()
    for triple, build in shared:
        before = len(calls)
        pol = build()
        assert len(calls) == before + (triple not in seen), build
        seen.add(triple)
        built = len(calls)
        assert build() is pol and nudge_mkl(*triple) is pol, build
        assert len(calls) == built, build


def test_named_tables_are_shared_read_only():
    # an equal triple returns the one cached table, which nobody can edit:
    # not its row, and not through its string-keyed view
    pol = nudge_mkl(3, 2, 3)
    assert nudge_mkl(3, 2, 3) is pol
    assert named_policy("nudge-km", k=2, m=3) is pol
    want = dict(pol.table)
    with pytest.raises(ValueError):
        pol.by_mask[0] = 1
    assert isinstance(pol.table, types.MappingProxyType)
    with pytest.raises(TypeError):
        pol.table[(2, 2, 2)] = 0
    assert nudge_mkl(3, 2, 3).table == want
