"""Dense float64 tensors with reverse-mode differentiation on a flat tape.

The tape is define-by-run: while gradients are enabled, every
differentiable operation appends one record, and `backward` replays the
records in reverse order (creation order is topological order by
construction). `backward` consumes the tape: it takes each record off
before running its rule, and holds neither the record nor its output
while the rule runs, and each rule frees what it saved at its last
read. A fused rule may also recompute what is cheap rather than save
it, and write its gradients over arrays it saved (see `layers`). So
records and saved arrays are freed at their last read, and the next
pass records a fresh tape; `reset_tape()` drops a tape that no
`backward` consumes. Model layers are fused ops of one record each, so a
default-model training step records 12 (see `pipeline`). The tape and
the grad mode (`no_grad`) belong to the thread that runs the op.

`concat_branches(branches, x)` is `concat([f(x) for f in branches])`
as one record whose branches may run concurrently: all but the last on
one worker thread, started on first use, while the calling thread runs
the last, in the forward pass and again in the backward replay.

A backward rule may also hand back a leaf's gradient, such as a weight
gradient, as a `Deferred` job: no later rule reads it, so it can be
computed while the replay goes on to the input gradients, and
`backward` adds the leaf gradients up only after the replay ends, in
replay order. `Adam.step` updates the first half of its tensors (by
size) on the worker while the calling thread updates the rest.
`run_all(tasks, floats)` shares any list of independent tasks between
the two threads, such as the chunks of one eval call
(`pipeline.eval_logits`).

All of these queue their work on the worker as `_Job`s under one rule:
a job that has not started when its result is needed is cancelled and
run by the thread that needs it. There is one worker thread, so a job
it waits on has either finished or not started, and it never waits on
its own queue. The worker takes a task list from the front while the
calling thread takes it from the back.

Each of these runs on the worker only when the array it is sized by
holds at least BRANCH_THREAD_MIN_FLOATS floats, so that numpy releases
the GIL for most of its time, and when the process may run on two or
more CPUs; otherwise it runs in order on the calling thread. Either way
every array op is the same call on the same operands, and every sum is
taken in the order a serial run takes it, so results are bitwise equal
to a one-thread run. Pin BLAS to one thread (`pin_blas_threads`, which
`bioie`'s command line calls, or `OPENBLAS_NUM_THREADS=1`): a second
BLAS thread competes with the worker for the same cores, and OpenBLAS
splits some products by its thread count, which changes their last
bits.

Only rank-preserving elementwise broadcasting with scalars is supported;
everything else requires exactly matching shapes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NondeterministicFunction",
    "LossNotRecorded",
    "make_op",
    "recording",
    "reset_tape",
    "tape_size",
    "no_grad",
    "backward",
    "add",
    "sub",
    "hadamard",
    "matmul",
    "tanh",
    "sigmoid",
    "identity",
    "concat",
    "concat_branches",
    "run_all",
    "Deferred",
    "softmax",
    "dropout",
    "max_pool_over_time",
    "cross_entropy",
    "take_rows",
    "transpose",
    "reshape",
    "add_rowvec",
    "sum_all",
    "Adam",
    "grad_check",
]


# glibc mallopt parameters (malloc.h) and the values `keep_freed_arrays`
# sets: 32 MiB is glibc's cap on the mmap threshold.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20


def keep_freed_arrays() -> bool:
    """Let glibc reuse the memory of freed arrays instead of returning it
    to the OS; False where the C library has no `mallopt`.

    Every training step and every eval forward allocates and frees the
    same few-MB arrays. By default glibc serves arrays above a threshold
    (128 KiB at start, raised by later frees) with a fresh mmap, and
    trims the heap whenever more than twice that threshold lies free at
    its top, so each pass faults its working set in again. On a 2 vCPU
    VM that took 60k-300k minor faults per `train_long` benchmark epoch,
    2k-17k per 80-instance inference pass, and varied with the order of
    earlier allocations. Fixed thresholds keep arrays up to 32 MiB on
    the heap and keep up to 256 MiB of freed heap, so the next pass
    reuses it. One arena serves every thread, so the `concat_branches`
    worker allocates from and frees into the same heap rather than an
    arena of its own that keeps its own freed memory. Called once when
    this module loads."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_ARENA_MAX, 1))


keep_freed_arrays()


# OpenBLAS's thread-count setter and getter under the names its builds
# export: numpy's wheels, other 64-bit integer builds, the plain build.
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_threads():
    """The thread-count setter and getter, as `ctypes` functions, of the
    OpenBLAS that numpy's wheel bundles (`numpy.libs/*openblas*`); None
    where numpy has none that exports them (a conda, MKL or distribution
    numpy, for example)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREADS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                get_threads.argtypes, get_threads.restype = (), ctypes.c_int
                return set_threads, get_threads
    return None


def pin_blas_threads() -> int | None:
    """Set the OpenBLAS that numpy loaded to one thread, and return the
    thread count read back from it; None, changing nothing, where
    `openblas_threads` finds no such OpenBLAS.

    OpenBLAS splits a large product between its threads, and the split
    changes the product's last bits, so a fixed seed gives fixed bits
    only for a fixed thread count. By default that count is the caller's
    `OPENBLAS_NUM_THREADS`, or else the number of CPUs. `bioie`'s command
    line calls this before any work; importing the library does not, so
    embedding code keeps control of its own threads."""
    found = openblas_threads()
    if found is None:
        return None
    set_threads, get_threads = found
    set_threads(1)
    return get_threads()


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NondeterministicFunction(RuntimeError):
    """Raised by grad_check when two evaluations of f disagree."""


class LossNotRecorded(RuntimeError):
    """Raised by backward when no record on the calling thread's tape
    made the loss: a backward has already consumed it, or the tape was
    reset."""


class Tensor:
    """A dense float64 array with an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def sum(self):
        return sum_all(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Tape

class _Record:
    __slots__ = ("out", "rule", "size")

    def __init__(self, out: Tensor, rule, size: int = 1):
        self.out = out
        self.rule = rule
        self.size = size  # records it stands for, branch tapes included


class _ThreadState(threading.local):
    """The running thread's tape and grad mode."""

    def __init__(self):
        self.tape: list[_Record] = []
        self.grad = True


_STATE = _ThreadState()


def reset_tape() -> None:
    """Drop all recorded operations; leaf gradients are untouched."""
    _STATE.tape.clear()


def tape_size() -> int:
    """Records on the tape, counting those on `concat_branches` branch
    tapes."""
    return sum(rec.size for rec in _STATE.tape)


@contextlib.contextmanager
def no_grad():
    """Disable recording; ops executed inside produce constant tensors."""
    state = _STATE
    prev = state.grad
    state.grad = False
    try:
        yield
    finally:
        state.grad = prev


def recording(*tensors: Tensor) -> bool:
    """Whether an op over these inputs gets a tape record, so that a fused
    op can skip keeping intermediates its backward rule would need."""
    return _STATE.grad and any(t.requires_grad for t in tensors)


def make_op(data: np.ndarray, parents, rule) -> Tensor:
    """Create an op output and record its backward rule.

    `rule(g)` receives the output gradient and must return an iterable of
    (parent_tensor, gradient_array) pairs, one per parent that needs a
    gradient; the gradient of a parent that is a leaf may be a `Deferred`
    instead. No rule may write into its `g` or into an array it returns.
    `backward` runs each rule once, so a rule may drop what it saved at
    its last read. Recording is skipped when gradients are globally
    disabled or no parent requires them.
    """
    track = recording(*parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out.is_leaf = False
        _STATE.tape.append(_Record(out, rule))
    return out


def backward(loss: Tensor) -> None:
    """Populate grad on every requires_grad leaf reachable from `loss`,
    consuming the calling thread's tape (a leaf loss is a no-op).

    Repeated forward-and-backward passes without `zero_grad` accumulate;
    a second call on the same loss, or one after `reset_tape`, raises
    LossNotRecorded. Intermediate tensors never retain gradients. Leaf
    gradients are added up after the replay, in replay order, once every
    `Deferred` job has finished. If a rule or a job raises, the rest of
    the tape is dropped and every job queued on the worker finishes
    before the error propagates.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss.is_leaf:
        return
    tape = _STATE.tape
    if not any(rec.out is loss for rec in reversed(tape)):
        raise LossNotRecorded(
            "backward: no record on this thread's tape made the loss (a "
            "backward consumed it, or the tape was reset); record a fresh "
            "forward pass")
    _STATE.tape = []
    try:
        pairs = _replay(tape, loss, np.ones_like(loss.data))
        # The worker runs its queue from the front; waiting from the back
        # runs the jobs still queued there on this thread meanwhile.
        for _, contrib in reversed(pairs):
            if isinstance(contrib, Deferred):
                contrib.result()
        for i, (leaf, contrib) in enumerate(pairs):
            pairs[i] = None  # frees each gradient once it has been added
            if isinstance(contrib, Deferred):
                contrib = contrib.result()
            # A first contribution is copied, since a rule may return its
            # `g` or a view of it; later ones add in place.
            if leaf.grad is None:
                leaf.grad = np.array(contrib, dtype=np.float64)
            else:
                leaf.grad += contrib
    except BaseException:
        tape.clear()
        _drain()
        raise


def _replay(tape: list[_Record], out: Tensor, g: np.ndarray,
            crossing: bool = False) -> list:
    """Replay `tape` in reverse from the gradient `g` of `out`, buffering
    the gradients of intermediates, and return the gradients of the
    leaves as (tensor, gradient) pairs in replay order. Each record is
    popped off `tape` before its rule runs, and while the rule runs the
    replay holds neither the record, its output, its `g` nor the last
    rule's results: the rule frees what it saved at its last read. With
    `crossing`, the pairs hold the gradients of every tensor this tape
    did not create, leaves included. Jobs for leaves are not waited on
    here, so the replay goes on while they run. A `Deferred` gradient of
    an intermediate is resolved at once, by this thread if its job has
    not started (`_Job`)."""
    inner = {id(rec.out) for rec in tape} if crossing else None
    buffers: dict[int, np.ndarray] = {id(out): g}
    pairs = []
    del out, g
    while tape:
        rec = tape.pop()
        key, rule = id(rec.out), rec.rule
        rec = parent = contrib = buf = None
        if key not in buffers:
            continue
        for parent, contrib in rule(buffers.pop(key)):
            if not parent.requires_grad:
                continue
            if parent.is_leaf or (inner is not None and id(parent) not in inner):
                pairs.append((parent, contrib))
                continue
            if isinstance(contrib, Deferred):
                contrib = contrib.result()
            # No buffer is written in place, so a rule may return its `g`
            # or a view of it, and one array may feed two buffers.
            key = id(parent)
            buf = buffers.get(key)
            if buf is None:
                buffers[key] = np.asarray(contrib, dtype=np.float64)
            else:
                buffers[key] = buf + contrib
    return pairs


# ---------------------------------------------------------------------------
# Elementwise ops

def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a broadcast gradient back onto a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(np.sum(g), dtype=np.float64).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)

    def rule(g):
        return [(a, _reduce_to(g, a.shape)), (b, _reduce_to(g, b.shape))]

    return make_op(a.data + b.data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)

    def rule(g):
        return [(a, _reduce_to(g, a.shape)), (b, _reduce_to(-g, b.shape))]

    return make_op(a.data - b.data, (a, b), rule)


def hadamard(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("hadamard", a, b)
    # Each operand's gradient reads only the other's data.
    factors = [(t, o.data) for t, o in ((a, b), (b, a)) if t.requires_grad]

    def rule(g):
        return [(t, _reduce_to(g * o, t.shape)) for t, o in factors]

    return make_op(a.data * b.data, (a, b), rule)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; either operand may carry a
    leading batch axis, as with `np.matmul`. A 2-D operand is shared by
    every batch element, so its gradient sums over the batch."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.data.ndim not in (2, 3) or b.data.ndim not in (2, 3)
            or a.shape[-1] != b.shape[-2]
            or (a.data.ndim == b.data.ndim == 3 and a.shape[0] != b.shape[0])):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def rule(g):
        pairs = []
        if a.requires_grad:
            ga = g @ _swap_last(bd)
            pairs.append((a, ga.sum(axis=0) if ga.ndim > ad.ndim else ga))
        if b.requires_grad:
            if bd.ndim < ad.ndim:
                # One product over every row of the batch.
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _swap_last(ad) @ g
                if gb.ndim > bd.ndim:
                    gb = gb.sum(axis=0)
            pairs.append((b, gb))
        return pairs

    return make_op(ad @ bd, (a, b), rule)


# ---------------------------------------------------------------------------
# Activations

def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Stable logistic on a raw array. Inputs are clipped to +/-60 before
    exponentiation, which avoids overflow and changes outputs by at most
    ~1e-26 in the saturated tails."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def rule(g):
        grad = out_data * out_data
        np.subtract(1.0, grad, out=grad)
        grad *= g
        return [(x, grad)]

    return make_op(out_data, (x,), rule)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = sigmoid_values(x.data)

    def rule(g):
        return [(x, g * out_data * (1.0 - out_data))]

    return make_op(out_data, (x,), rule)


def identity(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def rule(g):
        return [(x, g)]

    return make_op(x.data.copy(), (x,), rule)


# ---------------------------------------------------------------------------
# Structural ops

def _concat_layout(tensors: list[Tensor], axis: int) -> tuple[int, np.ndarray]:
    """The concatenation axis of `tensors` and each tensor's offset
    along it after the first; raises ShapeError on a mismatch."""
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    ndim = tensors[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    ax = axis % ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(
            i != ax and other[i] != ref[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat: shape {t.shape} does not conform to {tensors[0].shape} "
                f"off axis {ax}"
            )
    return ax, np.cumsum([t.shape[ax] for t in tensors])[:-1]


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    ax, offsets = _concat_layout(tensors, axis)

    def rule(g):
        pieces = np.split(g, offsets, axis=ax)
        return [(t, piece) for t, piece in zip(tensors, pieces)]

    return make_op(np.concatenate([t.data for t in tensors], axis=ax), tensors, rule)


# Floats from which work may run on the worker thread: a
# `concat_branches` input, a `Deferred` job's operand, or the tensors of
# one `Adam.step`. Below it, numpy calls are too short to release the
# GIL for most of their time, and the hand-off costs more than the
# second thread saves (see CHANGES.md for the sweep that set it).
BRANCH_THREAD_MIN_FLOATS = 1 << 17


@functools.cache
def _worker() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="bioie-branch")


def _offload(floats: int) -> bool:
    """Whether work sized by `floats` floats goes to the worker thread."""
    if floats < BRANCH_THREAD_MIN_FLOATS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _drain() -> None:
    """Wait until everything queued on the worker so far has run."""
    if _worker.cache_info().currsize:
        _worker().submit(int).result()


class _Job:
    """One call `fn()`, the only unit of work that reaches the worker
    thread: run here at once, or with `offload` queued on the worker.

    `wait()` returns `(value, error)` once the call has run. A job that
    has not started by then is cancelled and run by the waiting thread;
    one that has started is waited for. Each job has exactly one thread
    that waits on it, which may wait on it more than once."""

    __slots__ = ("fn", "future", "outcome")

    def __init__(self, fn, offload: bool):
        self.fn, self.future, self.outcome = fn, None, None
        if offload:
            self.future = _worker().submit(self.run)
        else:
            self.run()

    def run(self) -> None:
        fn, self.fn = self.fn, None  # frees the operands once it has run
        try:
            self.outcome = fn(), None
        except BaseException as err:
            self.outcome = None, err

    def wait(self) -> tuple:
        if self.future is not None:
            if self.future.cancel():
                self.run()
            else:
                self.future.result()
            self.future = None
        return self.outcome

    def result(self):
        value, err = self.wait()
        if err is not None:
            raise err
        return value


def run_all(tasks: list, floats: int) -> list:
    """The result of each task, in order, for tasks whose work is each
    sized by `floats` floats. When that passes the size rule
    (`_offload`), all but the last are queued on the worker thread while
    the calling thread runs the last, then waited on from the back.
    Every task finishes before the first error, in task order, is
    raised."""
    offload = _offload(floats)
    jobs = [_Job(task, offload) for task in tasks[:-1]]
    jobs += [_Job(task, False) for task in tasks[-1:]]
    outcomes = [job.wait() for job in reversed(jobs)][::-1]
    for _, err in outcomes:
        if err is not None:
            raise err
    return [value for value, _ in outcomes]


class Deferred:
    """A gradient that a backward rule hands back as a job, for a leaf
    such as a weight: `fn()` computes it from arrays that nothing writes
    any more. The job starts when the rule creates it: on the worker
    thread when `operand`, the array it is sized by, holds at least
    BRANCH_THREAD_MIN_FLOATS floats and the process may use two CPUs,
    otherwise inline. `d[key]` is a Deferred for `fn()[key]` from the
    same job, so one product can serve several tensors.

    `result()` waits for the job, and runs it on the calling thread if
    it has not started (`_Job`). Only the thread that called `backward`
    resolves the gradients of leaves, after its replay ends (see
    `backward`)."""

    __slots__ = ("_job", "_keys")

    def __init__(self, fn, operand: np.ndarray):
        self._job = _Job(fn, _offload(operand.size))
        self._keys = ()

    def __getitem__(self, key) -> Deferred:
        part = object.__new__(Deferred)
        part._job, part._keys = self._job, self._keys + (key,)
        return part

    def result(self) -> np.ndarray:
        value = self._job.result()
        for key in self._keys:
            value = value[key]
        return value


def concat_branches(branches, x: Tensor, axis: int = -1) -> Tensor:
    """`concat([f(x) for f in branches], axis)` as one tape record, with
    the branches run concurrently when that pays (module docstring).

    Each branch runs under the caller's grad mode and records on a tape
    of its own, which the record keeps. Every branch finishes before an
    error is raised, the first in branch order. The rule replays and
    consumes the branch tapes, concurrently under the same rule as the
    forward pass, and returns the gradients that cross a branch tape,
    its leaves' and `x`'s, in the order a serial replay of `concat`
    would make them: the last branch's first, each in its own reverse
    order, a `Deferred` one still unresolved. `backward` then adds them up exactly as it would
    have, so values and gradients are bitwise equal to `concat`'s.
    Branches must not share mutable state, such as a random generator.
    A branch may itself call `concat_branches` or `run_all`."""
    grad = _STATE.grad

    def record(f):
        state = _STATE  # the running thread's
        saved = state.tape, state.grad
        state.tape, state.grad = [], grad
        try:
            return as_tensor(f(x)), state.tape
        finally:
            state.tape, state.grad = saved

    outs, tapes = zip(*run_all([functools.partial(record, f) for f in branches],
                               x.size))
    ax, offsets = _concat_layout(list(outs), axis)
    out = Tensor(np.concatenate([t.data for t in outs], axis=ax),
                 requires_grad=recording(*outs))
    if not out.requires_grad:
        return out

    def rule(g):
        pieces = np.split(g, offsets, axis=ax)
        # A branch output that its own tape did not create, such as `x`
        # itself, gets its piece before any replay, as from `concat`.
        first, replays = [], []
        for t, piece, tape in zip(outs, pieces, tapes):
            if any(rec.out is t for rec in tape):
                replays.append(functools.partial(_replay, tape, t, piece, True))
            else:
                first.append((t, piece))
        crossing = run_all(replays, x.size)
        return first + [pair for part in reversed(crossing) for pair in part]

    out.is_leaf = False
    _STATE.tape.append(_Record(out, rule, 1 + sum(
        rec.size for tape in tapes for rec in tape)))
    return out


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes (the matrix transpose of each batch element)."""
    x = as_tensor(x)
    if x.data.ndim not in (2, 3):
        raise ShapeError(
            f"transpose expects a matrix or a batch of them, got shape {x.shape}")

    def rule(g):
        return [(x, _swap_last(g))]

    return make_op(_swap_last(x.data).copy(), (x,), rule)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)

    def rule(g):
        return [(x, g.reshape(x.shape))]

    return make_op(x.data.reshape(shape).copy(), (x,), rule)


def take_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix; gradients scatter-add back to the table."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got shape {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"take_rows: index out of range [0, {table.shape[0]}) in {idx.tolist()}"
        )

    def rule(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return [(table, full)]

    return make_op(table.data[idx], (table,), rule)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a (1, d) row vector to every row of an (n, d) matrix or of
    each matrix in a (B, n, d) batch."""
    x, v = as_tensor(x), as_tensor(v)
    if x.data.ndim not in (2, 3) or v.shape != (1, x.shape[-1]):
        raise ShapeError(f"add_rowvec: shapes {x.shape} and {v.shape} do not align")

    def rule(g):
        return [(x, g), (v, g.reshape(-1, g.shape[-1]).sum(axis=0, keepdims=True))]

    return make_op(x.data + v.data, (x, v), rule)


def sum_all(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def rule(g):
        return [(x, np.full_like(x.data, float(g)))]

    return make_op(np.asarray(x.data.sum()), (x,), rule)


# ---------------------------------------------------------------------------
# Softmax-family ops

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    # Forward and backward each fill one fresh array in place: on
    # attention-sized inputs, allocating temporaries costs more than the
    # arithmetic.
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def rule(g):
        grad = g * out_data
        inner = grad.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=grad)
        grad *= out_data
        return [(x, grad)]

    return make_op(out_data, (x,), rule)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax probability of the target class."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes), got {logits.shape}")
    b, c = logits.shape
    if t.shape != (b,):
        raise ShapeError(f"cross_entropy: {b} rows but {t.shape} targets")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ValueError(f"cross_entropy: target out of range [0, {c})")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
    loss = (lse - logits.data[np.arange(b), t]).mean()

    def rule(g):
        p = np.exp(logits.data - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), t] -= 1.0
        return [(logits, p * (float(g) / b))]

    return make_op(np.asarray(loss), (logits,), rule)


def max_pool_over_time(x: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Per-dimension max over the rows (time axis) of an (n, d) matrix, or
    of each matrix in a (B, n, d) batch; gradient flows to the first
    argmax. A constant per-row `bias`, shaped as `x` but one wide, such
    as a large negative number at padded positions, is added before the
    max in a temporary that the record does not keep: the values and the
    gradient are those of `add` then the pool, in one record."""
    x = as_tensor(x)
    if x.data.ndim not in (2, 3):
        raise ShapeError(
            f"max_pool_over_time expects (n, d) or (B, n, d), got {x.shape}")
    if x.shape[-2] < 1:
        raise ShapeError("max_pool_over_time: empty sequence")
    if bias is not None and np.shape(bias) != x.shape[:-1] + (1,):
        raise ShapeError(
            f"max_pool_over_time: bias {np.shape(bias)} does not fit {x.shape}")
    biased = x.data if bias is None else x.data + bias
    arg = np.expand_dims(np.argmax(biased, axis=-2), -2)

    def rule(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, arg, np.expand_dims(g, -2), axis=-2)
        return [(x, full)]

    return make_op(np.take_along_axis(biased, arg, axis=-2).squeeze(-2), (x,), rule)


def dropout_mask(rng: np.random.Generator, p: float,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability p, else 1/(1-p).
    Draws `rng.random(shape)` once."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return (rng.random(shape) >= p) * (1.0 / (1.0 - p))


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    x = as_tensor(x)
    if mode == "eval" or p == 0.0:
        return x
    mask = dropout_mask(rng, p, x.shape)

    def rule(g):
        return [(x, g * mask)]

    return make_op(x.data * mask, (x,), rule)


# ---------------------------------------------------------------------------
# Optimizer

class Adam:
    """Adam with bias correction; `step` consumes and clears gradients.

    When the tensors hold at least BRANCH_THREAD_MIN_FLOATS floats in all
    (and the process may use two CPUs), `step` updates the first half of
    them, cut by cumulative size in list order, on the worker thread
    while the calling thread updates the rest. Each tensor's update is
    elementwise and its own, so the results are bitwise the same."""

    def __init__(self, params, names=None, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params: list[Tensor] = list(params)
        self.names = list(names) if names is not None else [
            f"param{i}" for i in range(len(self.params))
        ]
        if len(self.names) != len(self.params):
            raise ValueError("Adam: names and params length mismatch")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        sizes = np.array([p.size for p in self.params], dtype=np.int64)
        self._floats = int(sizes.sum())
        # The worker's share: the tensors whose middle lies in the first
        # half of the floats.
        middles = np.cumsum(sizes) - sizes / 2
        self._half = int(np.searchsorted(middles, self._floats / 2))

    def step(self) -> None:
        """One update of every tensor; raises before changing anything if
        a tensor has no gradient."""
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                raise ValueError(f"Adam.step: parameter '{name}' has no gradient")
        self.t += 1
        every = range(len(self.params))
        halves = (every[:self._half], every[self._half:])
        run_all([functools.partial(self._update, half) for half in halves],
                self._floats)
        for p in self.params:
            p.grad = None

    def _update(self, indices: range) -> None:
        """m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2, and
        p <- p - lr (m / b1c) / (sqrt(v / b2c) + eps), with the bias
        corrections b1c and b2c. Two scratch arrays per tensor hold every
        intermediate: each op is the one the formula makes, and a product's
        operands commute exactly, so the results are bitwise the formula's."""
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for i in indices:
            p, m, v = self.params[i], self.m[i], self.v[i]
            g = p.grad
            tmp = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(m))
            m *= self.beta1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            v *= self.beta2
            v += tmp
            step = np.divide(m, b1c, out=np.empty_like(m))
            step *= self.lr
            np.divide(v, b2c, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step /= tmp
            p.data -= step

    def state_arrays(self) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
        return self.t, self.m, self.v

    def load_state(self, t: int, m: list[np.ndarray], v: list[np.ndarray]) -> None:
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError("Adam.load_state: moment count mismatch")
        for i, p in enumerate(self.params):
            if m[i].shape != p.data.shape or v[i].shape != p.data.shape:
                raise ValueError(f"Adam.load_state: shape mismatch on '{self.names[i]}'")
        self.t = int(t)
        self.m = [a.copy() for a in m]
        self.v = [a.copy() for a in v]


# ---------------------------------------------------------------------------
# Gradient checking

def grad_check(f, x: Tensor, epsilon=1e-5, samples: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic scalar-valued function of `x`; it is
    evaluated twice at the same point to detect nondeterminism. `x` is
    perturbed in place and restored. When `samples` is given, only that
    many randomly chosen coordinates are checked. The tape is reset as a
    side effect.

    `epsilon` may be a sequence of step sizes; each coordinate is then
    cross-validated and scored by its best-conditioned step. Near-zero
    gradients make a single small step roundoff-dominated even when the
    analytic value is right, which a larger confirming step exposes.
    """
    epsilons = ((epsilon,) if isinstance(epsilon, (int, float))
                else tuple(epsilon))
    reset_tape()
    with no_grad():
        y1 = float(f(x).data)
        y2 = float(f(x).data)
    if y1 != y2:
        raise NondeterministicFunction(
            f"f(x) is not deterministic: {y1!r} != {y2!r} at the same point"
        )

    prev_req, prev_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        reset_tape()
        backward(f(x))
        analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
        analytic = analytic.reshape(-1).copy()
    finally:
        x.requires_grad = prev_req
        x.grad = prev_grad
        reset_tape()

    flat = x.data.reshape(-1)
    coords = np.arange(flat.size)
    if samples is not None and samples < flat.size:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = gen.choice(flat.size, size=samples, replace=False)

    worst = 0.0
    for k in coords:
        orig = flat[k]
        best = math.inf
        for eps in epsilons:
            flat[k] = orig + eps
            with no_grad():
                fp = float(f(x).data)
            flat[k] = orig - eps
            with no_grad():
                fm = float(f(x).data)
            flat[k] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(analytic[k]), abs(numeric), 1e-8)
            best = min(best, abs(analytic[k] - numeric) / denom)
        worst = max(worst, best)
    return worst
