"""NW — a blocked wavefront dynamic program in the style of Rodinia's
Needleman-Wunsch.

Rodinia processes the DP matrix in waves of B×B blocks along the
anti-diagonal, each block solved cooperatively in local memory.  Our
regular source language has neither in-place updates nor the diagonal
slicing the paper notes is inexpressible even in Futhark, so — like the
paper's own port — we reproduce the *parallel structure*: the carried state
is the bottom boundary row of every block on the previous two
anti-diagonals (regular ``[nb][B]`` arrays, edges clamped), and each wave
maps over the ``nb`` diagonal blocks, solving each B×B block as a
sequential loop of max-plus ``scanomap``s over its rows (the NW left-
dependency ``cell = max(left+gap, up+gap, diag+sub)`` is exactly a max-plus
scan).

Table 1: D1 edge length 2048, D2 edge length 1024 (block edge 16).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    f32,
    iota,
    let_,
    loop_,
    map_,
    max_,
    min_,
    scanomap_,
    size_e,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = ["nw_program", "nw_sizes", "nw_inputs", "nw_reference", "BLOCK", "GAP"]

BLOCK = 16
GAP = -1.0

DATASETS = {"D1": dict(edge=2048), "D2": dict(edge=1024)}


def nw_sizes(name: str) -> dict[str, int]:
    edge = DATASETS[name]["edge"]
    return dict(nb=edge // BLOCK, B=BLOCK, numWaves=2 * (edge // BLOCK) - 1)


def nw_program() -> Program:
    nb, B = SizeVar("nb"), SizeVar("B")
    subs = v("subs")  # [nb][B][B] substitution scores per diagonal block

    def block_step(up_row, left_col, sub_block):
        """Solve one B×B block from its upper boundary row and left
        boundary column: B sequential row steps, each a max-plus scan.
        Returns the block's new bottom boundary row."""
        return loop_(
            [up_row],
            size_e("B"),
            lambda r, prev: scanomap_(
                lambda a, b: max_(a + GAP, b),
                lambda p, s: max_(p + GAP, left_col[r] + s),
                f32(-1e30),
                prev,
                sub_block[r],
            ),
        )

    def wave(state, prev_state):
        return map_(
            lambda bi: block_step(
                state[min_(bi, size_e("nb") - 1)],
                prev_state[max_(bi - 1, 0)],
                subs[bi],
            ),
            iota(size_e("nb")),
        )

    body = let_(
        map_(lambda blk: blk[size_e("B") - 1], subs),
        lambda init_rows: loop_(
            [init_rows, init_rows],
            size_e("numWaves"),
            lambda w, state, prev_state: (wave(state, prev_state), state),
        ),
    )
    return Program("nw", [("subs", array_of(F32, nb, B, B))], body)


def nw_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "subs": rng.uniform(-2, 2, (sizes["nb"], sizes["B"], sizes["B"])).astype(
            np.float32
        )
    }


def nw_reference(inputs: dict, sizes: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    subs = inputs["subs"]
    nb, B, _ = subs.shape
    gap = np.float32(GAP)

    def block_step(up_row, left_col, sub_block):
        prev = up_row.copy()
        for r in range(B):
            nxt = np.empty(B, dtype=np.float32)
            acc = np.float32(-1e30)
            for j in range(B):
                elem = np.float32(
                    max(
                        np.float32(prev[j] + gap),
                        np.float32(left_col[r] + sub_block[r, j]),
                    )
                )
                acc = np.float32(max(np.float32(acc + gap), elem))
                nxt[j] = acc
            prev = nxt
        return prev

    state = subs[:, B - 1, :].copy()
    prev_state = state.copy()
    for _ in range(sizes["numWaves"]):
        new = np.empty((nb, B), dtype=np.float32)
        for bi in range(nb):
            up = state[min(bi, nb - 1)]
            left = prev_state[max(bi - 1, 0)]
            new[bi] = block_step(up, left, subs[bi])
        state, prev_state = new, state
    return state, prev_state
