"""The block kernel: what updates one strand block (paper §5.5).

``run_block(idx, max_steps) -> (counts, seconds)`` runs the strands with
ids ``idx`` for up to ``max_steps`` super-steps, writing their
state and status **in place** into the arrays the kernel is bound to, and
reports one row per step taken: ``counts`` — int64 ``(steps, 3)``, active /
stabilized / died — and ``seconds`` — float64 ``(steps,)``.  Blocks index
disjoint strands, so concurrent calls on different blocks are safe.

Two implementations: the bound
:meth:`repro.runtime.native.NativeUpdate.run_range`, and
:class:`NumpyKernel` over the generated NumPy module's ``update`` — the one
the in-process schedulers and the process pool's workers both call.
"""

from __future__ import annotations

import numpy as np

from repro.obs import clock
from repro.runtime.ops import recording

#: status codes returned by compiled update functions
RUNNING, STABILIZE, DIE = 0, 1, 2


class Ctx:
    """The context object generated functions receive."""

    def __init__(self, images: dict, dtype):
        self.images = images
        self.dtype = dtype


class NumpyKernel:
    """gather → ``update`` → write-back over the bound state arrays.

    The aliasing contract: ``update`` results may alias each other or an
    input state array (``t = a; a = b; b = t`` returns its inputs swapped,
    a never-assigned variable comes back as itself, a component read is a
    view); no slot is overwritten before every result that aliases it has
    been read.  ``update`` returns one result per declared state variable,
    in state order, then the status; hidden immutable extras
    (method-referenced strand parameters) ride at the tail of ``state``
    and are never written.
    """

    def __init__(self, update, ctx, global_values, state, status,
                 recorder=None):
        self._update, self._ctx, self._g = update, ctx, tuple(global_values)
        self._state, self._status = state, status
        #: receives, through the ``runtime.ops`` gather hook of the thread
        #: running a block, what the block's strand rows read
        self._recorder = recorder
        self._bound = {id(arr) for arr in (*state, status)}

    def _read(self, result, slot: np.ndarray) -> np.ndarray:
        """``result`` in a form no write to a bound array can change."""
        result = np.asarray(result)
        if result is slot or (result.flags.owndata
                              and id(result) not in self._bound):
            return result  # pass-through (nothing to write), or fresh
        return result.copy()  # another slot, or a view: read it now

    def run_block(self, idx: np.ndarray, max_steps: int = 1):
        """One super-step over ``idx``: a NumPy block comes back after
        every step (``per_step.numpy`` in the run plan), so more than one
        is never asked for."""
        if self._recorder is None:
            return self._step(idx)
        with recording(self._recorder, idx):
            return self._step(idx)

    def _step(self, idx: np.ndarray):
        t0 = clock()
        state, status = self._state, self._status
        n = idx.shape[0]
        if n == status.shape[0]:
            # one block covers every strand, so idx is the identity: hand
            # update the state arrays themselves instead of fancy-index
            # gathering a copy of each one
            *new, code = self._update(self._ctx, *self._g, *state)
            new = [self._read(r, s) for r, s in zip(new, state)]
            code = self._read(code, status)
            for s, r in zip(state, new):
                if r is not s:
                    s[...] = r
            status[...] = code
        else:
            # the gathered copies are private and results can alias only
            # those: scattering in slot order overwrites nothing unread
            *new, code = self._update(self._ctx, *self._g,
                                      *[s[idx] for s in state])
            for s, r in zip(state, new):
                s[idx] = r
            status[idx] = code
            code = np.asarray(code)
        if code.ndim == 0:  # constant-folded: one code for every lane
            code = np.broadcast_to(code, (n,))
        # classify only when somebody left: on quiet steps (the common
        # case mid-convergence) one comparison is the whole tally
        running = np.count_nonzero(code == RUNNING)
        stable = np.count_nonzero(code == STABILIZE) if running < n else 0
        counts = np.array([[n, stable, n - running - stable]], dtype=np.int64)
        return counts, np.array([clock() - t0])
