"""Blocking diagnostics: dgemm tile shapes and arena padding.

What a panel width buys or costs is geometric, so these metrics measure
geometry directly:

* :func:`dgemm_tile_stats` — per BMOD task, the update it performs is
  ``L(I,K) @ L(J,K)^T``: an ``m x k`` by ``k x n`` product where
  ``m``/``n`` are the dense row counts of the two source blocks and ``k``
  is panel K's width. Median/max ``m * n`` (the tile area the fused kernel
  sweeps) is the "bigger dgemm tiles" half of the blocking win; wider
  panels also raise ``k``, the reuse dimension.
* :func:`arena_padding_stats` — the shm transport's shared store (the
  numeric plan's slab layout, :mod:`repro.runtime.arena`) keeps each
  diagonal block as its whole ``w x w`` square, so its dead words are the
  diagonal blocks' strict upper triangles, ``w (w - 1) / 2`` per panel:
  wider panels cost more of them.

:func:`blocking_report` bundles both with the partition's width profile —
the dict the bench records per workload.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.tasks import BMOD

__all__ = ["dgemm_tile_stats", "arena_padding_stats", "blocking_report"]


def _block_extents(tg) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (rows, cols) logical extents, a diagonal block ``w x w``."""
    part = tg.workmodel.structure.partition
    widths = np.asarray(part.widths, dtype=np.int64)
    J = np.asarray(tg.block_J, dtype=np.int64)
    diag = np.asarray(tg.block_I, dtype=np.int64) == J
    cols = widths[J]
    words = np.asarray(tg.block_words, dtype=np.int64)
    rows = np.where(diag, cols, words // np.maximum(cols, 1))
    return rows, cols


def dgemm_tile_stats(tg) -> dict:
    """Shape statistics of the BMOD update tiles a task graph performs.

    For ``BMOD(I, J, K)`` with sources ``(I, K)`` and ``(J, K)``, the tile
    is ``m x n`` with inner dimension ``k``: ``m = rows(I, K)``,
    ``n = rows(J, K)``, ``k = width(K)``. All statistics are unweighted
    over BMOD tasks (each task is one kernel invocation).
    """
    rows, cols = _block_extents(tg)
    mask = np.asarray(tg.task_kind) == BMOD
    s1 = np.asarray(tg.task_src1)[mask]
    s2 = np.asarray(tg.task_src2)[mask]
    if s1.size == 0:
        return {
            "bmod_tasks": 0,
            "median_tile_mn": 0.0,
            "max_tile_mn": 0,
            "median_tile_k": 0.0,
            "mean_tile_mn": 0.0,
        }
    m = rows[s1]
    n = rows[s2]
    k = cols[s1]
    area = m * n
    return {
        "bmod_tasks": int(s1.size),
        "median_tile_mn": float(np.median(area)),
        "max_tile_mn": int(area.max()),
        "median_tile_k": float(np.median(k)),
        "mean_tile_mn": float(area.mean()),
    }


def arena_padding_stats(tg) -> dict:
    """Dead-space accounting of the shm transport's shared store: the
    logical payload of every block (``tg.block_words``) and the strict
    upper triangles of the diagonal squares, in bytes."""
    rows, cols = _block_extents(tg)
    diag = np.asarray(tg.block_I) == np.asarray(tg.block_J)
    payload = 8 * int(np.asarray(tg.block_words, dtype=np.int64).sum())
    padding = 8 * int((cols[diag] * (cols[diag] - 1) // 2).sum())
    total = payload + padding
    return {
        "nblocks": int(rows.shape[0]),
        "payload_bytes": payload,
        "padding_bytes": padding,
        "total_bytes": total,
        "padding_pct": 100.0 * padding / total if total else 0.0,
    }


def blocking_report(tg) -> dict:
    """Geometry summary of a partition: widths + tiles + padding."""
    part = tg.workmodel.structure.partition
    widths = np.asarray(part.widths, dtype=np.int64)
    return {
        "npanels": int(widths.size),
        "width_min": int(widths.min()) if widths.size else 0,
        "width_median": float(np.median(widths)) if widths.size else 0.0,
        "width_max": int(widths.max()) if widths.size else 0,
        "tiles": dgemm_tile_stats(tg),
        "arena": arena_padding_stats(tg),
    }
