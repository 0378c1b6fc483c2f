"""Synthetic trace generation calibrated to the paper's workload statistics.

For each workload the generator synthesises per-warp instruction traces whose

* read/write mix matches the Table II read ratio,
* per-page read re-access count matches Fig. 5b (paper average ~42),
* per-page write redundancy matches Fig. 5c (paper average ~65),
* locality mixes sequential streaming (CSR/neighbour-list scans) with
  irregular frontier accesses, controlled by ``sequential_fraction``.

Traces are deterministic for a given workload and
:class:`~repro.workloads.trace.TraceKnobs` so tests and benchmarks are
reproducible.  The order of the random draws is the trace contract: every
pinned trace, recorded trace file and result digest follows from it.  The
draws come from a pure-Python PCG64 (:class:`_Draws`), seeded as
``np.random.default_rng(seed)`` seeds it, which must return exactly what
that Generator's scalar ``random()`` and ``integers(low, high)`` return;
``tests/workloads/test_generators.py::TestDraws`` holds it to numpy.

A trace holds one :class:`~repro.gpu.warp.Instruction` per distinct memory
access: a repeat, at another position or in another warp, is the same
object, so an instruction of a generated trace must not be mutated.
"""

from __future__ import annotations

import gc
import hashlib
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from repro.gpu.coalescer import PRECOMPUTED_SEGMENT_BYTES
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import AccessType
from repro.workloads.trace import TraceKnobs, WorkloadSpec, WorkloadTrace

PAGE_SIZE = 4096
LINE_SIZE = 128
WORD_SIZE = 4
_THREADS = 32


class StridedAddresses(Sequence):
    """The 32 thread addresses of a generated memory instruction, as a pattern.

    Thread ``t`` reads the word at ``base + (t % lines) * 128 +
    (t // lines) * 4``: the warp spreads over ``lines`` consecutive 128 B
    lines from ``base``, and ``lines == 1`` is the contiguous ``base + 4t``
    run.  Only the two numbers are stored; an address is computed when it is
    read.  It compares equal to any sequence of the same 32 ints (a replayed
    trace's ``array('q')``, a list) and pickles as ``(base, lines)``.
    """

    __slots__ = ("base", "lines")

    def __init__(self, base: int, lines: int) -> None:
        self.base = base
        self.lines = lines

    def __len__(self) -> int:
        return _THREADS

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[t] for t in range(*index.indices(_THREADS))]
        if index < 0:
            index += _THREADS
        if not 0 <= index < _THREADS:
            raise IndexError("thread index out of range")
        lines = self.lines
        return self.base + (index % lines) * LINE_SIZE + (index // lines) * WORD_SIZE

    def __iter__(self) -> Iterator[int]:
        base, lines = self.base, self.lines
        for t in range(_THREADS):
            yield base + (t % lines) * LINE_SIZE + (t // lines) * WORD_SIZE

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StridedAddresses):
            return self.base == other.base and self.lines == other.lines
        if isinstance(other, Sequence):
            return len(other) == _THREADS and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return StridedAddresses, (self.base, self.lines)

    def __repr__(self) -> str:
        return f"StridedAddresses(base={self.base}, lines={self.lines})"


#: 64-bit outputs generated per block.  A block of 1,024 costs about as much
#: per output and holds four times the memory (its lanes take 32 KiB a value).
_DRAW_BLOCK = 256

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: The LCG multiplier of PCG64 (PCG's default 128-bit multiplier).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_for(name: str, seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _seed_words(seed: int) -> List[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``.

    The seed's 32-bit words (least significant first) are hashed into a pool
    of four words, which is hashed out into eight 32-bit words, read in
    little-endian pairs.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = mix(pool[target], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for index in range(8):
        value = pool[index % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


def _pcg64_seed(seed: int) -> Tuple[int, int]:
    """The ``(state, increment)`` of numpy's ``PCG64(seed)``.

    ``pcg64_set_seed`` with the first two seed words as the initial state
    and the last two as the stream.
    """
    words = _seed_words(seed)
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = (inc + (words[0] << 64 | words[1])) & _MASK128
    return (state * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def _jump_lanes(inc: int) -> Tuple[int, int]:
    """``M**k`` and ``(1 + M + ... + M**(k-1)) * inc``, mod 2**128, in lane ``k - 1``.

    Lane ``k - 1`` is bits ``256(k-1)`` to ``256k - 1``, for ``k`` from 1 to
    ``_DRAW_BLOCK`` (a power of two), so ``powers * state + increments``
    holds in lane ``k - 1`` the LCG state ``k`` steps after ``state``, plus
    a multiple of 2**128.  Lanes ``n`` to ``2n - 1`` follow from the first
    ``n``: with ``S(k) = 1 + ... + M**(k-1)``, ``M**(n+k) = M**n * M**k`` and
    ``S(n+k) = S(n) + M**n * S(k)``.
    """
    powers, increments, ones, lanes = _PCG64_MULTIPLIER, inc, 1, 1
    while lanes < _DRAW_BLOCK:
        shift = 256 * lanes
        power, total = powers >> shift - 256, increments >> shift - 256
        mask = (ones << 128) - ones
        powers |= (powers * power & mask) << shift
        increments |= (increments * power + total * ones & mask) << shift
        ones |= ones << shift
        lanes *= 2
    return powers, increments


#: Each byte value's top six bits: a state's rotation is its sixteenth byte's.
_TOP_SIX_BITS = bytes(byte >> 2 for byte in range(256))


def _pcg64_blocks(state: int, inc: int) -> Iterator[List[int]]:
    """PCG64 (XSL-RR 128/64) outputs from ``state``, ``_DRAW_BLOCK`` at a time.

    Each output advances the 128-bit LCG, folds the new state's halves
    together and rotates the fold right by the state's top six bits.  All
    of a block's states come from one big-int multiply over 256-bit lanes
    (see :func:`_jump_lanes`); a lane cannot carry into the next, since
    ``(2**128 - 1)**2 + 2**128 < 2**256``, and the multiple of 2**128 it
    holds above its state is never read.  The folds are one big-int xor,
    read back as the first word of each lane, and the rotations are the
    lanes' sixteenth bytes.  Only the rotate runs once per output:
    ``x * (2**64 + 1)`` holds ``x`` twice, so a shift reads the rotation.
    """
    powers, increments = _jump_lanes(inc)
    size, last = 32 * _DRAW_BLOCK, 256 * (_DRAW_BLOCK - 1)
    spread, mask64, mask128 = (1 << 64) + 1, _MASK64, _MASK128
    while True:
        states = powers * state + increments
        folds = array("Q", (states >> 64 ^ states).to_bytes(size, "little"))[0::4]
        if sys.byteorder == "big":
            folds.byteswap()
        rotations = states.to_bytes(size, "little")[15::32].translate(_TOP_SIX_BITS)
        state = states >> last & mask128
        yield [fold * spread >> rotation & mask64 for fold, rotation in zip(folds, rotations)]


class _Draws:
    """The scalar draws of ``np.random.default_rng(seed)``, in pure Python.

    ``random()`` and ``integers(low, high)`` return the values the
    Generator's scalar methods return for the same call sequence, reading
    the PCG64 outputs from :func:`_pcg64_blocks`.  A double is the top 53
    bits of one output.  A bounded integer uses numpy's Lemire rejection
    method: a span of up to 2**32 values draws 32-bit halves, low half
    first, and keeps the high half for the next such draw, across
    ``random()`` calls too, as PCG64's own buffer does; a larger span draws
    whole outputs; a span of one value draws nothing.  A negative seed
    raises :class:`ValueError`, as numpy's does.
    """

    __slots__ = ("_next_raw", "_half")

    def __init__(self, seed: int) -> None:
        self._next_raw = chain.from_iterable(_pcg64_blocks(*_pcg64_seed(seed))).__next__
        self._half: Optional[int] = None

    def random(self) -> float:
        return (self._next_raw() >> 11) * (1.0 / (1 << 53))

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span <= 1:
            if span < 1:
                raise ValueError(f"low >= high ({low} >= {high})")
            return low
        if span <= 1 << 32:
            while True:
                half = self._half
                if half is None:
                    output = self._next_raw()
                    self._half = output >> 32
                    half = output & 0xFFFFFFFF
                else:
                    self._half = None
                product = half * span
                leftover = product & 0xFFFFFFFF
                # Lemire: a leftover under 2**32 % span (< span) redraws.
                if leftover >= span or leftover >= (1 << 32) % span:
                    return low + (product >> 32)
        product = self._next_raw() * span
        if (product & 0xFFFFFFFFFFFFFFFF) < span:
            threshold = (1 << 64) % span
            while (product & 0xFFFFFFFFFFFFFFFF) < threshold:
                product = self._next_raw() * span
        return low + (product >> 64)


@dataclass
class TraceGenerator:
    """Generates :class:`WorkloadTrace` objects for a workload specification."""

    spec: WorkloadSpec
    knobs: TraceKnobs = TraceKnobs()

    def __post_init__(self) -> None:
        self._draws = _Draws(_seed_for(self.spec.name, self.knobs.seed))

    # -- derived sizes --------------------------------------------------------
    @property
    def total_warps(self) -> int:
        knobs = self.knobs
        return max(1, int(knobs.num_sms * knobs.warps_per_sm * knobs.scale))

    @property
    def instructions_per_warp(self) -> int:
        return max(4, int(self.knobs.memory_instructions_per_warp * self.knobs.scale))

    @property
    def total_memory_instructions(self) -> int:
        return self.total_warps * self.instructions_per_warp

    @property
    def footprint_pages(self) -> int:
        return max(16, int(self.spec.footprint_pages * self.knobs.scale))

    def _hot_read_pages(self) -> int:
        """Distinct read pages sized so the mean re-access matches Fig. 5b."""
        total_reads = self.total_memory_instructions * self.spec.read_ratio
        return max(4, int(total_reads / max(1.0, self.spec.read_reaccess)))

    def _hot_write_pages(self) -> int:
        """Distinct written pages sized so write redundancy matches Fig. 5c."""
        total_writes = self.total_memory_instructions * self.spec.write_ratio
        if total_writes < 1:
            return 1
        return max(1, int(total_writes / max(1.0, self.spec.write_redundancy)))

    # -- address synthesis ------------------------------------------------------
    def _zipf_rank(self, num_pages: int) -> int:
        """Draw a popularity rank with a Zipf-like skew.

        Both branches consume exactly one RNG draw, so traces with
        ``alpha < 1`` stay bit-identical to the historical generator while
        ``alpha >= 1`` (kv-style skew) gets a correct truncated-Zipf inverse
        CDF — the power-law shortcut's exponent flips sign at 1 and would
        collapse every draw onto the least popular rank.
        """
        alpha = self.spec.zipf_alpha
        u = self._draws.random()
        if alpha < 1.0:
            # Inverse-CDF of a truncated power law: cheap and good enough.
            rank = int(num_pages * (u ** (1.0 / (1.0 - alpha + 1e-9))))
        elif abs(alpha - 1.0) < 1e-9:
            rank = int(num_pages ** u) - 1
        else:
            beta = 1.0 - alpha
            rank = int(((num_pages ** beta - 1.0) * u + 1.0) ** (1.0 / beta)) - 1
        return min(num_pages - 1, max(0, rank))

    def _hot_page_list(self, count: int, footprint: int, salt: int) -> List[int]:
        """Hot pages scattered uniformly over the footprint.

        High-degree vertices of a graph are spread across the CSR arrays, not
        packed at low addresses, so the hot set must span many flash blocks —
        that spread is what lets the accumulated plane parallelism absorb the
        irregular traffic.
        """
        count = max(1, min(count, footprint))
        stride = max(1, footprint // count)
        return [(index * stride + salt) % max(1, footprint) for index in range(count)]

    # -- main entry point ---------------------------------------------------------
    def generate(self) -> WorkloadTrace:
        """Build the trace with the cyclic GC paused.

        A build allocates an ``Instruction``, address pattern and segment
        tuple per distinct access and a ``WarpTrace`` per warp; none of
        them can form a cycle, yet the collector would rescan them all
        dozens of times while the trace grows.  GC comes back on afterwards
        only if it was on when the build started.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._build_trace()
        finally:
            if was_enabled:
                gc.enable()

    def _build_trace(self) -> WorkloadTrace:
        trace = WorkloadTrace(spec=self.spec)
        footprint = self.footprint_pages
        hot_read_list = self._hot_page_list(
            min(self._hot_read_pages(), footprint), footprint, salt=3
        )
        hot_write_list = self._hot_page_list(
            min(self._hot_write_pages(), footprint), footprint, salt=17
        )
        base = self.knobs.address_space_offset

        # PC values: one per "static load/store site"; graph kernels have a
        # small number of hot loads, which is what makes the PC-indexed
        # predictor effective.  Streaming loads, irregular loads and stores use
        # disjoint PC ranges — they are different static instructions — and
        # each co-running application gets its own PC space.
        num_pcs = max(2, 2 * self.spec.kernels)
        pc_base = 0x100000 * (1 + _seed_for(self.spec.name, None) % 61)
        read_pcs = [pc_base + 0x1000 + 8 * i for i in range(num_pcs)]
        irregular_pcs = [pc_base + 0x4000 + 8 * i for i in range(num_pcs)]
        write_pcs = [pc_base + 0x8000 + 8 * i for i in range(max(1, num_pcs // 2))]

        # Loop-invariant names, bound once for the per-instruction loop.
        random = self._draws.random
        integers = self._draws.integers
        zipf_rank = self._zipf_rank
        read_ratio = self.spec.read_ratio
        sequential_fraction = self.spec.sequential_fraction
        instructions_per_warp = self.instructions_per_warp
        compute_ops = self.spec.compute_per_memory
        read_counts = trace.page_read_counts
        write_counts = trace.page_write_counts
        hot_reads = len(hot_read_list)
        hot_writes = len(hot_write_list)
        irregular_count = len(irregular_pcs)
        write_count = len(write_pcs)
        read, write = AccessType.READ, AccessType.WRITE
        lines_per_page = PAGE_SIZE // LINE_SIZE
        # Precomputed segments are only valid when bases are line aligned (an
        # unaligned address_space_offset shifts the 128 B segment boundaries)
        # and the precompute granularity is the coalescer contract; fall back
        # to the coalescer otherwise.
        aligned = base % LINE_SIZE == 0 and LINE_SIZE == PRECOMPUTED_SEGMENT_BYTES
        # One Instruction per distinct (pc, first address, lines, access): the
        # rest of the record is the same for the whole trace, and hot pages are
        # rewritten dozens of times (Fig. 5c), so a repeat shares the object.
        # The key packs the four into one int (lines < 8, pc < pc_span): an
        # int is not tracked by the cyclic GC, and a tuple per instruction
        # adds a full collection to a paper-scale build.
        built: Dict[int, Instruction] = {}
        pc_span = max(read_pcs + irregular_pcs + write_pcs) + 1

        warp_counter = 0
        num_sms = self.knobs.num_sms
        for sm in range(num_sms):
            warps_here = self.total_warps // num_sms + (
                1 if sm < self.total_warps % num_sms else 0
            )
            for _ in range(warps_here):
                warp = WarpTrace(warp_id=warp_counter, sm_id=sm)
                # Each warp streams its own slice of the footprint: sequential
                # accesses advance one 128 B line at a time (CSR/neighbour-list
                # scans stay inside a 4 KB flash page for 32 iterations), and
                # irregular accesses jump to hot pages.  The streaming load has
                # one static PC per warp, which is what makes the PC-indexed
                # predictor of Section IV-B effective.
                stream_page = integers(0, max(1, footprint - 1))
                stream_line = 0
                stream_pc = read_pcs[warp_counter % len(read_pcs)]
                instructions = warp.instructions
                for _ in range(instructions_per_warp):
                    is_read = random() < read_ratio
                    sequential = random() < sequential_fraction
                    if is_read:
                        if sequential:
                            page = stream_page
                            line = stream_line
                            stream_line += 1
                            if stream_line >= lines_per_page:
                                stream_line = 0
                                stream_page = (stream_page + 1) % footprint
                            pc = stream_pc
                        else:
                            page = hot_read_list[zipf_rank(hot_reads)]
                            line = integers(0, lines_per_page)
                            pc = irregular_pcs[integers(0, irregular_count)]
                        access = read
                        read_counts[page] = read_counts.get(page, 0) + 1
                    else:
                        page = hot_write_list[zipf_rank(hot_writes)]
                        line = integers(0, lines_per_page)
                        pc = write_pcs[integers(0, write_count)]
                        access = write
                        write_counts[page] = write_counts.get(page, 0) + 1
                    # A coalesced access spreads the warp over one line; an
                    # irregular access scatters over 2-4 lines (frontier-style),
                    # drawn at this exact point of the RNG stream to stay
                    # bit-identical to the historical generator.
                    first = base + page * PAGE_SIZE + line * LINE_SIZE
                    lines = 1 if sequential else integers(2, 5)
                    key = ((first << 3 | lines) << 1 | is_read) * pc_span + pc
                    instruction = built.get(key)
                    if instruction is None:
                        if not aligned:
                            segments = None
                        elif lines == 1:
                            segments = (first,)  # the same int as the pattern's base
                        else:
                            segments = tuple(range(first, first + lines * LINE_SIZE, LINE_SIZE))
                        instruction = built[key] = Instruction(
                            pc, compute_ops, StridedAddresses(first, lines), access, segments
                        )
                    instructions.append(instruction)
                trace.warps.append(warp)
                warp_counter += 1

        trace.footprint_pages = footprint
        return trace


def generate_workload(spec: WorkloadSpec, knobs: TraceKnobs = TraceKnobs()) -> WorkloadTrace:
    """Convenience wrapper building a :class:`TraceGenerator` and running it."""
    return TraceGenerator(spec, knobs).generate()
