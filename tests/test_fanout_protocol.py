"""``repro.fanout.protocol`` on its own: no simulator, no thread, no process.

(a) Any valid interleaving of "finish a ready task" and "deliver a finished
block to one consumer" releases every task exactly once and never early;
the preconditions are checked from the task graph's source arrays, not
from the state's counters. (b) The executor-side recipient rule
(``consumers`` + ``remote_ranks``) against the independent predictors in
``repro.analysis``. Release *order* is pinned elsewhere: schedule replay
through ``BlockCholesky.run_schedule`` and the simulator goldens.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.comm_volume import communication_volume
from repro.analysis.memory import memory_usage
from repro.fanout.protocol import FanoutState, remote_ranks
from repro.fanout.tasks import BDIV, BFAC, BMOD
from repro.machine.params import PARAGON


@pytest.fixture(params=["grid12_pipeline", "random_spd_pipeline"])
def tg(request):
    return request.getfixturevalue(request.param)[5]


def _run_interleaving(tg, rng):
    """Drive one random valid interleaving; returns the final state."""
    state = FanoutState(tg)
    released: set[int] = set()
    ready: list[int] = []
    pending: list[tuple[int, int]] = []  # (finished block, consumer id)
    delivered: set[tuple[int, int]] = set()
    mods_done = np.zeros(tg.nblocks, dtype=np.int64)

    def release(tid):
        if tid is None:
            return
        assert tid not in released, f"task {tid} released twice"
        released.add(tid)
        ready.append(tid)

    def check_ready(tid):
        kind, b = int(tg.task_kind[tid]), int(tg.task_block[tid])
        if kind == BMOD:
            for s in (int(tg.task_src1[tid]), int(tg.task_src2[tid])):
                assert s < 0 or (s, tid) in delivered, "BMOD before a source"
            return
        assert mods_done[b] == tg.nmod[b], "BFAC/BDIV before its last BMOD"
        if kind == BDIV:
            d = int(tg.diag_block[tg.block_J[b]])
            assert (d, b) in delivered, "BDIV before its diagonal"

    seeds = [int(t) for t in state.seeds()]
    expect = [
        int(t) for t in np.flatnonzero(tg.task_kind == BFAC)
        if tg.nmod[tg.task_block[t]] == 0
    ]
    assert sorted(seeds) == expect
    for tid in seeds:
        release(tid)

    while ready or pending:
        if ready and (not pending or rng.random() < 0.5):
            tid = ready.pop(rng.randrange(len(ready)))
            check_ready(tid)
            b = int(tg.task_block[tid])
            if tg.task_kind[tid] == BMOD:
                mods_done[b] += 1
                release(state.mod_finished(b))
            else:
                ids, blocks = state.consumers(b)
                diag = tg.block_I[b] == tg.block_J[b]
                assert np.array_equal(
                    blocks, ids if diag else tg.task_block[ids]
                )
                pending.extend((b, int(c)) for c in ids)
        else:
            b, c = pending.pop(rng.randrange(len(pending)))
            delivered.add((b, c))
            release(state.delivered(b, c))

    assert released == set(range(tg.ntasks))
    return state


def test_every_interleaving_releases_each_task_once(tg):
    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def run(seed):
        state = _run_interleaving(tg, random.Random(seed))
        assert not state.mods_remaining.any()
        assert not state.missing.any()
        assert state.diag_ready[tg.block_I != tg.block_J].all()
        assert not state.diag_ready[tg.diag_block].any()

    run()


@pytest.mark.parametrize("P", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_recipients_match_the_independent_predictors(tg, P, seed):
    owners = np.random.default_rng(seed).integers(0, P, tg.nblocks)
    state = FanoutState(tg)
    messages = 0
    received = np.zeros(P, dtype=np.int64)
    for b in range(tg.nblocks):
        dests = remote_ranks(owners[state.consumers(b)[1]], owners[b])
        messages += dests.size
        received[dests] += int(tg.block_words[b]) * PARAGON.word_bytes
    assert messages == communication_volume(tg, owners).messages
    assert np.array_equal(
        received, memory_usage(tg, owners, P).received_bound_bytes
    )
