"""Per-layer tracing and kernel op-stream replay, installed from outside.

Nothing under `src/` changes: the traced run swaps each layer's public
functions for timing wrappers at the names the callers look them up by.
A span's self time is its duration minus the time of the spans it
encloses, so the self times of all spans plus `unattributed_s` add up
to the traced wall time.  Wrapper overhead is charged to the enclosing
span; `trace.overhead_frac` says how large it is.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

# Self-time spans, in the order NOTES.md lists the layers.
SPANS = (
    "kernel.TopQueue.update", "kernel.TopQueue.pop_max",
    "kernel.TopQueue.remove", "kernel.CounterCore.act",
    "kernel.CounterCore.scan", "counters.CounterBank.apply_activation",
    "schemes.SchemeState.on_act", "schemes.SchemeState.on_refresh",
    "schemes.SchemeState.on_rfm", "schemes.SchemeState.take_pending_alert",
    "engine.BankEngine.issue_act", "engine.BankEngine.advance_to",
    "engine.BankEngine.run_trace", "engine.audit_log",
    "engine.log_to_csv_lines", "attacks.lines_to_trace",
    "attacks.gen_round_robin", "attacks.run_feinting",
    "attacks.DamageObserver.on_activation", "security.solve_nbo",
    "security.brute_force_oracle", "security.security_table", "cli",
)


class Spans:
    """Call counts, hit counts and self time per span name."""

    def __init__(self) -> None:
        # Time covered by child spans, one slot per open span.
        self._open: List[float] = [0.0]
        # name -> [calls, hits, self seconds]
        self.stats: Dict[str, list] = {n: [0, 0, 0.0] for n in SPANS}

    def wrap(self, name: str, fn: Callable,
             hit: Optional[Callable] = None) -> Callable:
        stat = self.stats[name]
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[2] += dt - inner
            if hit is not None and hit(result):
                stat[1] += 1
            return result
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time each step of the generator `fn` returns."""
        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        return traced


def _set(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _restorer(undo: list) -> Callable[[], None]:
    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore


def _subclass(base, undo: list, owner, attr: str, methods: Dict):
    """Make `owner.attr` a subclass of `base` with `methods` replaced.

    Subclassing works for both kernel builds; the compiled extension
    types do not accept new attributes themselves."""
    _set(undo, owner, attr,
         type(base.__name__, (base,), dict(methods, __slots__=())))


def _runner_cell(cli, command: str):
    """The closure cell that holds a CLI command's scenario runner."""
    callback = cli.main.commands[command].callback
    return callback.__closure__[callback.__code__.co_freevars.index("runner")]


def install_spans(spans: Spans, commands) -> Callable[[], None]:
    """Wrap every layer's public functions; returns the undo function."""
    from hammersim import attacks, cli, counters, engine, schemes, security

    undo: list = []
    w = spans.wrap
    core, queue = counters.CounterCore, schemes.TopQueue
    _subclass(core, undo, counters, "CounterCore", {
        "act": w("kernel.CounterCore.act", core.act),
        "max_count": w("kernel.CounterCore.scan", core.max_count),
        "argmax": w("kernel.CounterCore.scan", core.argmax)})
    _subclass(queue, undo, schemes, "TopQueue", {
        "update": w("kernel.TopQueue.update", queue.update,
                    hit=lambda evicted: evicted != -2),
        "pop_max": w("kernel.TopQueue.pop_max", queue.pop_max),
        "remove": w("kernel.TopQueue.remove", queue.remove)})
    bank, state, eng = counters.CounterBank, schemes.SchemeState, \
        engine.BankEngine
    _set(undo, bank, "apply_activation",
         w("counters.CounterBank.apply_activation", bank.apply_activation))
    for hook in ("on_act", "on_refresh", "on_rfm"):
        _set(undo, state, hook,
             w(f"schemes.SchemeState.{hook}", getattr(state, hook)))
    _set(undo, state, "take_pending_alert",
         w("schemes.SchemeState.take_pending_alert", state.take_pending_alert,
           hit=lambda action: action is not None))
    for method in ("issue_act", "advance_to", "run_trace"):
        _set(undo, eng, method,
             w(f"engine.BankEngine.{method}", getattr(eng, method)))
    obs = attacks.DamageObserver
    _set(undo, obs, "on_activation",
         w("attacks.DamageObserver.on_activation", obs.on_activation))
    for module, name, layer in (
            (cli, "audit_log", "engine"), (cli, "log_to_csv_lines", "engine"),
            (cli, "lines_to_trace", "attacks"),
            (security, "run_feinting", "attacks"),
            (cli, "solve_nbo", "security"),
            (security, "solve_nbo", "security"),
            (cli, "brute_force_oracle", "security"),
            (cli, "security_table", "security")):
        _set(undo, module, name, w(f"{layer}.{name}", getattr(module, name)))
    _set(undo, cli, "gen_round_robin",
         spans.wrap_generator("attacks.gen_round_robin", cli.gen_round_robin))
    for command in commands:
        cell = _runner_cell(cli, command)
        runner = cell.cell_contents
        cell.cell_contents = w("cli", runner)
        undo.append((cell, "cell_contents", runner))
    return _restorer(undo)


# -- kernel op-stream replay -------------------------------------------------

CORE_OPS = ("act", "get", "reset", "snapshot", "max_count", "argmax")
QUEUE_OPS = ("update", "remove", "pop_max", "peek_max_count", "min_count",
             "items", "__len__")


class StreamFull(Exception):
    """Raised inside the program once the op stream has been recorded."""


class Recorder:
    """Records the first `limit` kernel operations of a run, per object.

    Each stream entry is (method, args, result).  Once `limit` operations
    are recorded the next one raises StreamFull, which ends the run."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        # (class name, constructor args, ops) per kernel object
        self.objects: List[Tuple[str, tuple, list]] = []
        self._ops: Dict[int, list] = {}

    def _recording_class(self, base, ops: Tuple[str, ...]):
        rec = self

        def __init__(obj, *args):
            if base.__init__ is not object.__init__:
                base.__init__(obj, *args)
            stream: list = []
            rec._ops[id(obj)] = stream
            rec.objects.append((base.__name__, args, stream))

        def method(name):
            fn = getattr(base, name)

            def recorded(obj, *args):
                if rec.count >= rec.limit:
                    raise StreamFull
                rec.count += 1
                result = fn(obj, *args)
                rec._ops[id(obj)].append((name, args, result))
                return result
            return recorded
        body = {name: method(name) for name in ops}
        body["__init__"] = __init__
        return body

    def install(self) -> Callable[[], None]:
        from hammersim import counters, schemes

        undo: list = []
        _subclass(counters.CounterCore, undo, counters, "CounterCore",
                  self._recording_class(counters.CounterCore, CORE_OPS))
        _subclass(schemes.TopQueue, undo, schemes, "TopQueue",
                  self._recording_class(schemes.TopQueue, QUEUE_OPS))
        return _restorer(undo)


def replay(objects, classes) -> Dict[str, Tuple[int, float, bool]]:
    """Replay recorded streams on fresh objects of `classes`.

    Returns {class name: (ops, seconds, results match the recording)}."""
    out: Dict[str, list] = {name: [0, 0.0, True] for name in classes}
    clock = time.perf_counter
    for name, args, stream in objects:
        obj = classes[name](*args)
        calls = [(getattr(obj, op), op_args) for op, op_args, _ in stream]
        t0 = clock()
        results = [fn(*op_args) for fn, op_args in calls]
        dt = clock() - t0
        entry = out[name]
        entry[0] += len(calls)
        entry[1] += dt
        entry[2] = entry[2] and results == [r for _, _, r in stream]
    return {name: tuple(v) for name, v in out.items()}
