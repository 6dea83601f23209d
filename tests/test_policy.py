import copy
import functools
import pickle

import numpy as np
import pytest

from oracles import (STRING_BUILDERS, count_twos, enumerate_policies,
                     increment_edges)

from nudgem.policy import (
    POLICY_BUILDERS,
    PolicyError,
    PolicyFn,
    all_strings,
    fcfs_policy,
    named_policy,
    nudge_k_policy,
    nudge_kl_policy,
    nudge_km_policy,
    nudge_l_policy,
    nudge_m_policy,
    nudge_ml_policy,
    policy_from_table_file,
    valid_tables,
)


def test_fcfs_is_zero():
    pol = fcfs_policy(3)
    assert all(pol(s) == 0 for s in all_strings(3))


def test_nudge_m_passes_all_twos():
    pol = nudge_m_policy(4)
    assert pol((2, 2, 1, 2)) == 3
    assert pol((1, 1, 1, 1)) == 0
    assert all(pol(s) == count_twos(s) for s in all_strings(4))


def test_nudge_k_leading_twos_only():
    pol = nudge_k_policy(3)
    assert pol((2, 2, 1)) == 2
    assert pol((1, 2, 2)) == 0
    assert pol((2, 2, 2)) == 3


def test_nudge_l_caps_at_one():
    pol = nudge_l_policy(3)
    assert pol((2, 2, 2)) == 1
    assert pol((1, 1, 1)) == 0


def test_nudge_km_caps_at_k():
    pol = nudge_km_policy(2, 4)
    assert pol((2, 2, 2, 2)) == 2
    assert pol((1, 2, 1, 1)) == 1


def test_nudge_ml_counts_twos_before_lth_one():
    pol = nudge_ml_policy(4, 2)
    # the second type-1 appears at position 3: only the twos before it count
    assert pol((2, 1, 1, 2)) == 1
    assert pol((2, 2, 1, 2)) == 3
    assert pol((1, 1, 2, 2)) == 0


def test_nudge_kl_window_and_count():
    pol = nudge_kl_policy(2, 3)
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
    with pytest.raises(ValueError):
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


def test_increment_edges_stay_in_family():
    pol = nudge_km_policy(1, 2)
    edges = list(increment_edges(pol))
    assert edges
    for s, nxt in edges:
        assert nxt.table[s] == pol.table[s] + 1
        changed = [u for u in all_strings(2) if nxt.table[u] != pol.table[u]]
        assert changed == [s]


def test_named_policy_dispatch():
    assert named_policy("nudge-m", m=3) == nudge_m_policy(3)
    assert named_policy("nudge-kl", k=2, l=2) == nudge_kl_policy(2, 2)
    with pytest.raises(PolicyError):
        named_policy("lifo")


def test_table_file_round_trip(tmp_path):
    pol = nudge_km_policy(2, 3)
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
    assert set(STRING_BUILDERS) == set(POLICY_BUILDERS)
    count = 0
    for kind, params in _named_params(10):
        pol = named_policy(kind, **params)
        assert np.array_equal(pol.by_mask, STRING_BUILDERS[kind](params)), (kind, params)
        count += 1
    assert count == 4 * 10 + 3 * 55


@pytest.mark.parametrize("build", [fcfs_policy, nudge_m_policy, nudge_k_policy,
                                   nudge_l_policy])
@pytest.mark.parametrize("window", [0, -2])
def test_builders_refuse_window_below_one(build, window):
    with pytest.raises(PolicyError, match="window m must be >= 1"):
        build(window)


def test_by_mask_is_read_only_and_defines_equality():
    pol = nudge_km_policy(2, 3)
    with pytest.raises(ValueError):
        pol.by_mask[0] = 1
    row = pol.by_mask.copy()
    same = PolicyFn(3, row)
    row[-1] = 0  # the caller's array is copied, not held
    assert same == pol and hash(same) == hash(pol)
    assert PolicyFn(3, pol.table) == pol
    assert same != nudge_m_policy(3) and same != PolicyFn(2, [0, 1, 1, 2])
    assert len({pol, same, nudge_m_policy(3)}) == 2
    for twin in (copy.deepcopy(pol), pickle.loads(pickle.dumps(pol))):
        assert twin == pol and not twin.by_mask.flags.writeable


def test_every_construction_runs_post_init(monkeypatch, tmp_path):
    # the benchmark counts tables by wrapping PolicyFn.__post_init__ in the
    # class dict; every way of building a table must go through it once
    assert "__post_init__" in PolicyFn.__dict__
    calls = []
    real = PolicyFn.__post_init__

    def counted(self):
        calls.append(self.m)
        real(self)

    monkeypatch.setattr(PolicyFn, "__post_init__", counted)
    path = tmp_path / "table.txt"
    path.write_text("1 0\n2 1\n")
    builds = [functools.partial(PolicyFn, 1, {(1,): 0, (2,): 1}),
              functools.partial(policy_from_table_file, path),
              functools.partial(fcfs_policy, 2), functools.partial(nudge_m_policy, 2),
              functools.partial(nudge_k_policy, 2), functools.partial(nudge_l_policy, 2),
              functools.partial(nudge_km_policy, 1, 2),
              functools.partial(nudge_ml_policy, 2, 1),
              functools.partial(nudge_kl_policy, 1, 2)]
    builds += [functools.partial(named_policy, kind, **params)
               for kind, params in _named_params(2)]
    for build in builds:
        before = len(calls)
        build()
        assert len(calls) == before + 1, build
