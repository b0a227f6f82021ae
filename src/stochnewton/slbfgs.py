"""Limited-memory BFGS machinery driven by averaged iterates.

Correction pairs are harvested every ``l`` iterations: the last ``l``
iterates are averaged into ``w_j``, the pair is ``s_j = w_j - w_{j-1}`` and
``y_j = B_T(w_j) s_j`` where ``B_T`` is a subsampled Hessian over a fresh
batch (supplied by the caller as a Hessian-vector callback).  Because ``y``
comes from an SPD operator acting on ``s``, curvature ``s^T y > 0`` holds
whenever ``s != 0``; insertion still guards against degenerate pairs.

The inverse-Hessian approximation is the product of BFGS updates over the
stored pairs (oldest to newest), seeded with ``(s^T y / ||y||^2) I`` from the
most recent pair.  It is applied matrix-free by the two-loop recursion.
An empty memory acts as the identity, which is exactly the
gradient-direction warmup of the finite-sum solver.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import Vector

# a pair is rejected unless s^T y >= CURVATURE_FLOOR * ||s|| ||y||
CURVATURE_FLOOR = 1e-12


class LbfgsMemory:
    """FIFO ``pairs`` of at most ``m`` ``(s, y, 1/s^T y)``, plus the averaging state."""

    def __init__(self, m: int = 10, update_interval: int = 5):
        if m < 1:
            raise ValueError("memory size m must be >= 1")
        if update_interval < 1:
            raise ValueError("update interval l must be >= 1")
        self.m = m
        self.l = update_interval
        self.pairs: list[tuple[Vector, Vector, float]] = []  # (s, y, rho)
        self._window: list[Vector] = []
        self._w_prev: Optional[Vector] = None
        self.pairs_rejected = 0

    def insert_pair(self, s: Vector, y: Vector) -> bool:
        """Insert ``(s, y)`` unless the curvature guard rejects it."""
        sy = float(s @ y)
        ns = float(np.linalg.norm(s))
        ny = float(np.linalg.norm(y))
        if sy <= 0.0 or sy < CURVATURE_FLOOR * ns * ny:
            self.pairs_rejected += 1
            return False
        self.pairs.append((s.copy(), y.copy(), 1.0 / sy))
        if len(self.pairs) > self.m:
            self.pairs.pop(0)
        return True

    def record_iterate(self, x: Vector,
                       hvp: Callable[[Vector, Vector], Vector]) -> bool:
        """Feed one iterate; harvest a pair once per ``l`` calls.

        ``hvp(w, s)`` must return the subsampled Hessian at ``w`` applied to
        ``s`` (the caller owns the batch choice).  Returns True when a new
        pair was stored.
        """
        self._window.append(np.asarray(x, dtype=np.float64).copy())
        if len(self._window) < self.l:
            return False
        w = np.mean(self._window, axis=0)
        self._window.clear()
        inserted = False
        if self._w_prev is not None:
            s = w - self._w_prev
            if np.any(s):
                y = hvp(w, s)
                inserted = self.insert_pair(s, y)
            else:
                self.pairs_rejected += 1
        self._w_prev = w
        return inserted

    def apply_inverse_hessian(self, v: Vector) -> Vector:
        """Return ``H v`` via the two-loop recursion (O(m n) per call)."""
        q = np.asarray(v, dtype=np.float64).copy()
        if not self.pairs:
            return q
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        s_m, y_m, _ = self.pairs[-1]
        gamma = float(s_m @ y_m) / float(y_m @ y_m)
        r = gamma * q
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ r)
            r += (a - b) * s
        return r
