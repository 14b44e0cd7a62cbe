"""Counter store semantics and the counter-subarray latency model."""

import pytest
from hypothesis import given, strategies as st

from hammersim.counters import (CSA_CHUNK_ROWS, CSA_COMPONENT_GROWTH,
                                CSA_UPDATE_SHRINK, CounterBank, CsaLayout,
                                csa_scaled_latency, dual_activation_rows,
                                neighbour_offsets, victim_set)
from hammersim.dram import DeviceGeometry

G = DeviceGeometry()


def test_victim_set_interior_row():
    assert victim_set(100, G) == [98, 99, 101, 102]


def test_victim_set_clips_at_subarray_edges():
    # Rows 0 and 511 sit at DSA boundaries; neighbors never cross them.
    assert victim_set(0, G) == [1, 2]
    assert victim_set(511, G) == [509, 510]
    assert victim_set(512, G) == [513, 514]
    assert victim_set(1, G) == [0, 2, 3]


def test_neighbour_offsets_nearest_first_and_clipped():
    offsets = neighbour_offsets(G)
    assert len(offsets) == G.rows_per_dsa
    assert offsets[100] == (-1, 1, -2, 2)
    assert offsets[0] == (1, 2)
    assert offsets[1] == (-1, 1, 2)
    assert offsets[511] == (-1, -2)
    assert neighbour_offsets(DeviceGeometry()) is offsets  # built once
    tiny = DeviceGeometry(rows_per_bank=6, rows_per_dsa=3, blast_radius=3)
    assert neighbour_offsets(tiny) == ((1, 2), (-1, 1), (-1, -2))


@given(st.integers(min_value=0, max_value=G.rows_per_bank - 1))
def test_victim_set_stays_in_dsa(row):
    dsa = row // G.rows_per_dsa
    vs = victim_set(row, G)
    assert row not in vs
    assert all(v // G.rows_per_dsa == dsa for v in vs)
    assert all(0 < abs(v - row) <= G.blast_radius for v in vs)


def test_aggressor_counting_increments_self():
    bank = CounterBank(G)
    for _ in range(3):
        bank.apply_activation(50, 0)
    assert bank.core.get(50) == 3
    assert bank.core.get(49) == 0


def test_victim_counting_resets_self_and_bumps_neighbors():
    bank = CounterBank(G)
    bank.apply_activation(50, 1)
    assert bank.core.get(50) == 0
    assert [bank.core.get(r) for r in (48, 49, 51, 52)] == [1, 1, 1, 1]
    bank.apply_activation(51, 1)
    assert bank.core.get(51) == 0  # reset by its own activation
    assert bank.core.get(50) == 1


def test_counters_saturate_at_cap():
    small = DeviceGeometry(rows_per_bank=512, rows_per_dsa=512,
                           counter_bits=2)
    bank = CounterBank(small)
    for _ in range(10):
        bank.apply_activation(5, 0)
    assert bank.core.get(5) == 3  # 2-bit cap


def test_counter_update_latency_matches_pipeline_sum():
    # At 64K rows: tRCD + (2*BR + 1) updates + tWR + tRP, the CSA_T*
    # steps themselves.
    assert csa_scaled_latency(65536, 2).total_ns == pytest.approx(35.05)
    assert csa_scaled_latency(65536, 1).total_ns == pytest.approx(33.39)


def test_scaled_latency_across_generations_stays_under_row_cycle():
    for rows in (65536, 131072, 262144):
        for br in (1, 2, 4):
            lat = csa_scaled_latency(rows, br)
            assert lat.scaled_total_ns < 48.0, (rows, br, lat)
            assert 0 < lat.share < 1


def test_scaled_latency_64k_br1_share():
    lat = csa_scaled_latency(65536, 1)
    assert lat.share == pytest.approx(0.916, abs=0.005)
    assert lat.scaled_total_ns == pytest.approx(29.645, abs=0.001)


def test_scaled_latency_components_grow_and_shrink():
    # At 64K the components are the CSA_T* steps themselves.
    base = csa_scaled_latency(65536, 2)
    assert (base.tRCD_ns, base.tWR_ns, base.tRP_ns) == (7.6, 19.2, 4.1)
    assert base.update_ns == pytest.approx(5 * 0.83)
    # Each doubling grows the access steps and shrinks the update step.
    big = csa_scaled_latency(262144, 2)
    assert big.tRCD_ns == pytest.approx(7.6 * CSA_COMPONENT_GROWTH ** 2)
    assert big.tWR_ns == pytest.approx(19.2 * CSA_COMPONENT_GROWTH ** 2)
    assert big.update_ns == pytest.approx(5 * 0.83 * CSA_UPDATE_SHRINK ** 2)


def test_scaled_latency_rejects_odd_row_counts():
    with pytest.raises(ValueError):
        csa_scaled_latency(100_000, 2)
    with pytest.raises(ValueError):
        csa_scaled_latency(65536 * 3, 2)
    for br in (0, -1):
        with pytest.raises(ValueError, match="blast_radius"):
            csa_scaled_latency(65536, br)


def test_dual_activation_rows_are_chunk_straddlers():
    rows = dual_activation_rows(G)
    # Two rows on each side of every interior 128-row chunk boundary.
    assert len(rows) == 12
    assert rows == [126, 127, 128, 129, 254, 255, 256, 257,
                    382, 383, 384, 385]
    # On small banks the cycle count is the number of chunks the counter
    # group touches.  200 is not a multiple of the chunk, so chunk and
    # subarray edges fall apart; a group never crosses a subarray edge.
    opt = CsaLayout(kind="OptimizedDualCsa")
    for br in (1, 2, 3):
        for rows_per_dsa in (64, 200, 256):
            g = DeviceGeometry(rows_per_bank=2 * rows_per_dsa,
                               rows_per_dsa=rows_per_dsa, blast_radius=br)
            for row in range(g.rows_per_bank):
                group = [row] + victim_set(row, g)
                chunks = len({r // CSA_CHUNK_ROWS for r in group})
                assert opt.act_cycles(row, g) == chunks, (g, row)
            assert dual_activation_rows(g) == [
                r for r in range(rows_per_dsa) if opt.act_cycles(r, g) == 2]


def test_csa_activation_counts_per_event():
    naive = CsaLayout(kind="NaiveCsa")
    opt = CsaLayout(kind="OptimizedDualCsa")
    indsa = CsaLayout(kind="InDsaRow")
    assert naive.act_cycles(10, G) == 1
    assert opt.act_cycles(10, G) == 1
    assert opt.act_cycles(127, G) == 2
    assert indsa.act_cycles(127, G) == 0
    assert naive.ref_cycles(8) == 8
    assert opt.ref_cycles(8) == 1
    assert indsa.ref_cycles(8) == 0
