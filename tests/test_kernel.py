"""Compiled and pure-Python kernels must be indistinguishable, and the
top-K queue must match a brute-force model.

The compiled build is `_kernel.c`, the kernel's hand-written C source,
built once per session by `setup.py build_ext` into a temporary
directory and loaded from there, never in place.  A failed build is an
error, not a skip, and so is a compiler warning.  A change to the kernel
edits `_kernel.c` and `_kernel_py.py` together; these tests and the
golden digests tie the two.
"""

import atexit
import functools
import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hammersim import _kernel_py
from hammersim.counters import victim_set
from hammersim.dram import DeviceGeometry

AGG, VIC = 0, 1

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def compiled_kernel():
    """`hammersim._kernel` as `setup.py build_ext` builds it."""
    out = Path(tempfile.mkdtemp(prefix="hammersim-kernel-"))
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    run = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib",
         str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True)
    # The extension is optional, so setup.py exits 0 without it.
    built = sorted((out / "lib" / "hammersim").glob("_kernel*"))
    if not built:
        raise RuntimeError("setup.py build_ext built no kernel:\n"
                           + run.stdout + run.stderr)
    spec = importlib.util.spec_from_file_location("hammersim._kernel",
                                                  built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernels():
    return [_kernel_py, compiled_kernel()]


def test_kernel_c_compiles_without_warnings(tmp_path):
    # The `perfbench --build compiled` command, with warnings as errors.
    target = tmp_path / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    run = subprocess.run(
        ["gcc", "-O2", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"],
         str(ROOT / "src" / "hammersim" / "_kernel.c"), "-o", str(target),
         "-Wall", "-Wextra", "-Werror"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_selected_build_is_reported():
    assert {mod.KERNEL_BUILD for mod in kernels()} == {"python", "compiled"}


def public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


# The whole public surface of each kernel class; a name added to or
# dropped from a build fails here.
SURFACE = {
    "CounterCore": {"act", "get", "reset", "load", "snapshot", "max_count",
                    "argmax"},
    "TopQueue": {"update", "remove", "pop_max", "peek_max_count",
                 "min_count", "items"},
}


def test_builds_expose_one_surface():
    for mod in kernels():
        for cls, names in SURFACE.items():
            assert public(getattr(mod, cls)) == names
        assert (mod.AGGRESSOR, mod.VICTIM) == (AGG, VIC)
        assert not hasattr(mod, "NONE")


@pytest.mark.parametrize("mod", kernels())
def test_bad_arguments_raise_value_error(mod):
    core = mod.CounterCore(8, 4, 1, 3)
    bad = [
        (lambda: mod.CounterCore(0, 4, 1, 3),
         "n_rows must be a positive multiple of dsa_rows"),
        (lambda: mod.CounterCore(-8, 4, 1, 3),
         "n_rows must be a positive multiple of dsa_rows"),
        (lambda: mod.CounterCore(6, 4, 1, 3),
         "n_rows must be a positive multiple of dsa_rows"),
        (lambda: mod.CounterCore(8, 4, 0, 3), "br and cap must be >= 1"),
        (lambda: mod.CounterCore(8, 4, 1, 0), "br and cap must be >= 1"),
        (lambda: mod.TopQueue(0), "depth must be >= 1"),
        (lambda: core.load([0] * 7), "length mismatch"),
        (lambda: core.load([0] * 9), "length mismatch"),
        (lambda: core.load([0] * 7 + [4]), "value outside [0, cap]"),
    ]
    for call, message in bad:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("mod", kernels())
def test_row_outside_the_bank_raises_index_error(mod):
    core = mod.CounterCore(8, 4, 1, 3)
    for call in (core.get, core.reset):
        for row in (8, -1):
            with pytest.raises(IndexError):
                call(row)
    assert core.snapshot() == [0] * 8


@pytest.mark.parametrize("mod", kernels())
def test_act_counts_the_two_disciplines_only(mod):
    # Any other int code raises ValueError and a code that is not an
    # int TypeError, whatever the row; a discipline code raises
    # IndexError off the bank.  Both builds raise the same exception, and
    # no counter moves.
    core = mod.CounterCore(8, 4, 1, 3)
    counts = [1, 2, 3, 0, 1, 2, 3, 0]
    core.load(counts)
    for row in (-1, 0, 8):
        for sem in (2, 3, -1):
            with pytest.raises(ValueError,
                               match=f"^unknown counting code {sem}$"):
                core.act(row, sem)
        for sem in (0.0, "x"):
            with pytest.raises(TypeError):
                core.act(row, sem)
    for sem in (AGG, VIC):
        for row in (-1, 8):
            with pytest.raises(IndexError):
                core.act(row, sem)
    assert core.snapshot() == counts


@pytest.mark.parametrize("mod", kernels())
def test_ints_outside_a_c_long_raise_what_the_python_build_raises(mod):
    # A row is off the bank and a code is unknown, however wide the int.
    core = mod.CounterCore(8, 4, 1, 3)
    for row in (2 ** 70, -2 ** 70):
        for sem in (AGG, VIC):
            with pytest.raises(IndexError):
                core.act(row, sem)
        for call in (core.get, core.reset):
            with pytest.raises(IndexError):
                call(row)
    for row in (0, 2 ** 70):
        with pytest.raises(ValueError, match=f"^unknown counting code "
                                             f"{2 ** 70}$"):
            core.act(row, 2 ** 70)
    assert core.snapshot() == [0] * 8


@pytest.mark.parametrize("mod", kernels())
def test_core_rejects_a_cap_wider_than_32_bits(mod):
    with pytest.raises(OverflowError):
        mod.CounterCore(8, 4, 1, 2 ** 32)


@pytest.mark.parametrize("mod", kernels())
def test_counts_that_are_not_ints_raise_type_error(mod):
    core = mod.CounterCore(8, 4, 1, 3)
    with pytest.raises(TypeError):
        core.load([0.0] * 8)
    assert core.snapshot() == [0] * 8


@pytest.mark.parametrize("mod", kernels())
def test_aggressor_act_returns_changed_row(mod):
    core = mod.CounterCore(64, 64, 2, 255)
    assert core.act(10, AGG) == [(10, 1)]
    assert core.act(10, AGG) == [(10, 2)]


@pytest.mark.parametrize("mod", kernels())
def test_victim_act_reports_reset_and_bumps(mod):
    core = mod.CounterCore(64, 64, 2, 255)
    core.act(10, AGG)
    changed = core.act(10, VIC)
    # Self reset to 0 plus four neighbors bumped to 1, sorted by row.
    assert changed == [(8, 1), (9, 1), (10, 0), (11, 1), (12, 1)]


@pytest.mark.parametrize("mod", kernels())
def test_victim_act_clips_at_dsa_edge(mod):
    core = mod.CounterCore(128, 64, 2, 255)
    changed = core.act(63, VIC)
    assert [r for r, _ in changed] == [61, 62]
    changed = core.act(64, VIC)
    assert [r for r, _ in changed] == [65, 66]


@pytest.mark.parametrize("br", [1, 2, 3])
@pytest.mark.parametrize("dsa_rows", [1, 2, 3, 16])
@pytest.mark.parametrize("mod", kernels())
def test_victim_act_bumps_exactly_the_victim_set(mod, dsa_rows, br):
    # The kernel's neighbour rule and `counters.victim_set` are two copies
    # of one rule; subarrays narrower than the radius clip on both sides.
    geometry = DeviceGeometry(rows_per_bank=3 * dsa_rows, banks=1,
                              rows_per_dsa=dsa_rows, blast_radius=br)
    for row in range(geometry.rows_per_bank):
        core = mod.CounterCore(geometry.rows_per_bank, dsa_rows, br,
                               geometry.counter_cap)
        assert core.act(row, VIC) == [(v, 1)
                                      for v in victim_set(row, geometry)]


@pytest.mark.parametrize("mod", kernels())
def test_reset_returns_previous_count(mod):
    core = mod.CounterCore(16, 16, 2, 255)
    core.act(3, AGG)
    core.act(3, AGG)
    assert core.reset(3) == 2
    assert core.get(3) == 0


@pytest.mark.parametrize("mod", kernels())
def test_argmax_prefers_lowest_row(mod):
    core = mod.CounterCore(16, 16, 2, 255)
    core.act(7, AGG)
    core.act(4, AGG)
    assert core.argmax() == 4
    assert core.max_count() == 1


@pytest.mark.parametrize("mod", kernels())
def test_32_bit_cap_saturates_both_disciplines(mod):
    # `DeviceGeometry` allows 32-bit counters because the compiled core
    # stores 32 bits, so this cap is the largest count it can hold.
    cap = DeviceGeometry(rows_per_bank=16, banks=1, rows_per_dsa=16,
                         counter_bits=32).counter_cap
    assert cap == 2 ** 32 - 1
    core = mod.CounterCore(16, 16, 2, cap)
    core.load([cap - 1] * 16)
    assert core.act(5, AGG) == [(5, cap)]
    assert core.act(5, AGG) == []
    assert core.act(8, VIC) == [(6, cap), (7, cap), (8, 0), (9, cap),
                                (10, cap)]
    assert core.act(8, VIC) == []
    assert core.snapshot()[4:11] == [cap - 1, cap, cap, cap, 0, cap, cap]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255),
                          st.sampled_from([AGG, VIC])),
                max_size=300))
def test_kernel_builds_agree(ops):
    a = compiled_kernel().CounterCore(256, 128, 2, 255)
    b = _kernel_py.CounterCore(256, 128, 2, 255)
    for row, sem in ops:
        assert a.act(row, sem) == b.act(row, sem)
    assert a.snapshot() == b.snapshot()
    assert a.max_count() == b.max_count()
    assert a.argmax() == b.argmax()


def act_model(counts, row, sem, dsa_rows, br, cap):
    """Brute-force activation: mutate `counts`, return the changes in
    ascending row order."""
    changed = {}
    if sem == AGG:
        if counts[row] < cap:
            counts[row] += 1
            changed[row] = counts[row]
    elif sem == VIC:
        if counts[row] != 0:
            counts[row] = 0
            changed[row] = 0
        for n in range(len(counts)):
            if (n != row and abs(n - row) <= br
                    and n // dsa_rows == row // dsa_rows
                    and counts[n] < cap):
                counts[n] += 1
                changed[n] = counts[n]
    return sorted(changed.items())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 63),
                          st.sampled_from([AGG, VIC])),
                max_size=300))
@pytest.mark.parametrize("mod", kernels())
def test_act_matches_brute_force_model(mod, br, ops):
    # Four 16-row subarrays and 2-bit counters, so subarray edges and
    # saturation both come up.
    core = mod.CounterCore(64, 16, br, 3)
    counts = [0] * 64
    for row, sem in ops:
        changed = core.act(row, sem)
        assert changed == act_model(counts, row, sem, 16, br, 3)
    assert core.snapshot() == counts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("act"), st.integers(0, 63),
              st.sampled_from([AGG, VIC])),
    st.tuples(st.just("reset"), st.integers(0, 63)),
    st.tuples(st.just("reset_max")),
    st.tuples(st.just("load"), st.lists(st.integers(0, 7), min_size=64,
                                        max_size=64))), max_size=300))
def test_python_build_max_and_argmax_match_brute_force(ops):
    core = _kernel_py.CounterCore(64, 32, 2, 7)
    for op in ops:
        if op[0] == "act":
            core.act(op[1], op[2])
        elif op[0] == "reset":
            core.reset(op[1])
        elif op[0] == "load":
            core.load(op[1])
        else:
            core.reset(core.argmax())
        counts = core.snapshot()
        peak = max(counts)
        assert core.max_count() == peak
        assert core.argmax() == min(
            row for row, v in enumerate(counts) if v == peak)


class QueueModel:
    """Dictionary reference for the bounded top-K queue."""

    def __init__(self, depth):
        self.depth = depth
        self.counts = {}

    def __len__(self):
        return len(self.counts)

    def update(self, row, count):
        if row in self.counts:
            self.counts[row] = count
            return -1
        if len(self.counts) < self.depth:
            self.counts[row] = count
            return -1
        victim = min(self.counts, key=lambda r: (self.counts[r], -r))
        if count > self.counts[victim]:
            del self.counts[victim]
            self.counts[row] = count
            return victim
        return -2

    def remove(self, row):
        return self.counts.pop(row, None) is not None

    def pop_max(self):
        if not self.counts:
            return None
        row, count = self.items()[0]
        del self.counts[row]
        return row, count

    def peek_max_count(self):
        return max(self.counts.values(), default=-1)

    def min_count(self):
        return min(self.counts.values(), default=-1)

    def items(self):
        return sorted(self.counts.items(), key=lambda rc: (-rc[1], rc[0]))


def queue_ops(rows, counts):
    # Mostly updates, as in a run, so a full queue often takes several
    # before a `remove` or `pop_max` makes room.
    update = st.tuples(st.just("update"), rows, counts)
    return st.lists(st.one_of(update, update, update,
                              st.tuples(st.just("remove"), rows),
                              st.tuples(st.just("pop_max"))), max_size=120)


def queue_state(q):
    return q.items(), len(q), q.peek_max_count(), q.min_count()


@pytest.mark.parametrize("mod", kernels())
def test_queue_eviction_prefers_min_count_then_higher_row(mod):
    q = mod.TopQueue(2)
    assert q.update(5, 10) == -1
    assert q.update(9, 3) == -1
    # Full: a larger count evicts the minimum.
    assert q.update(7, 4) == 9
    # Equal to the minimum is rejected, not swapped.
    assert q.update(1, 4) == -2
    # On a count tie the higher-numbered row is the one displaced.
    q2 = mod.TopQueue(2)
    q2.update(3, 5)
    q2.update(8, 5)
    assert q2.update(2, 6) == 8


@pytest.mark.parametrize("mod", kernels())
def test_queue_pop_orders_by_count_then_row(mod):
    q = mod.TopQueue(4)
    for row, count in ((12, 7), (3, 9), (40, 9), (5, 1)):
        q.update(row, count)
    assert q.pop_max() == (3, 9)
    assert q.pop_max() == (40, 9)
    assert q.pop_max() == (12, 7)
    assert q.peek_max_count() == 1
    assert q.pop_max() == (5, 1)
    assert q.peek_max_count() == -1


@pytest.mark.parametrize("mod", kernels())
def test_queue_remove_and_len(mod):
    q = mod.TopQueue(3)
    q.update(1, 5)
    q.update(2, 6)
    assert len(q) == 2
    assert q.remove(1) is True
    assert q.remove(1) is False
    assert len(q) == 1


@pytest.mark.parametrize("mod", kernels())
def test_queue_floor_follows_the_minimum_of_a_full_queue(mod):
    q = mod.TopQueue(2)
    q.update(1, 5)
    q.update(2, 7)
    assert q.update(3, 5) == -2
    # A row leaving makes room, so a new row at the old floor gets in.
    assert q.remove(2) is True
    assert q.update(3, 5) == -1
    assert q.pop_max() == (1, 5)
    assert q.update(4, 5) == -1
    assert q.items() == [(3, 5), (4, 5)]
    # Raising a queued row's count raises the floor with it.
    q.update(4, 9)
    q.update(3, 8)
    assert q.update(5, 7) == -2
    assert q.update(5, 9) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6),
       queue_ops(st.integers(0, 20), st.integers(1, 50)))
@pytest.mark.parametrize("mod", kernels())
def test_queue_matches_reference_model(mod, depth, ops):
    q = mod.TopQueue(depth)
    model = QueueModel(depth)
    for kind, *args in ops:
        assert getattr(q, kind)(*args) == getattr(model, kind)(*args)
        assert queue_state(q) == queue_state(model)


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 6), queue_ops(
    st.one_of(st.integers(0, 20),
              st.sampled_from([2 ** 31, 2 ** 32, 2 ** 62, 2 ** 63 - 1])),
    st.one_of(st.integers(1, 50), st.just(2 ** 32 - 1))))
def test_queue_builds_agree(depth, ops):
    # Rows up to the largest C `long` reach every bit of the Python
    # build's 64-bit row field.
    queues = [mod.TopQueue(depth) for mod in kernels()] + [QueueModel(depth)]
    for kind, *args in ops:
        python, compiled, model = (getattr(q, kind)(*args) for q in queues)
        assert python == compiled == model
        python, compiled, model = map(queue_state, queues)
        assert python == compiled == model
