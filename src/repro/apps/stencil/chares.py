"""The stencil block chare.

Each :class:`StencilBlock` owns one rectangular section of the mesh plus
a one-cell ghost halo.  Per time step it

1. sends its boundary vectors to its (up to four) neighbors,
2. waits — *message-driven*, not blocking the PE — for the neighbors'
   ghost vectors tagged with the current step,
3. applies the Jacobi update, charges the modeled compute cost, and
   moves on.

Because a block only depends on its own neighbors, blocks on one PE
advance independently; while a block adjoining the cluster seam waits
out the WAN latency, the PE executes its other blocks — the paper's §4
mechanism, observable directly in the traces.

A neighbor can run at most one step ahead (it needs our ghosts to go
further), so at most two steps' ghosts are ever buffered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.stencil.costs import DEFAULT_STENCIL_COSTS, StencilCostModel
from repro.apps.stencil.decomposition import OPPOSITE, BlockDecomposition
from repro.apps.stencil.kernel import jacobi_step_into
from repro.apps.stencil.reference import jacobi_step_percell
from repro.core.chare import Chare
from repro.core.ids import ChareID
from repro.core.method import entry
from repro.errors import ConfigurationError

#: Payload modes: "real" moves and updates actual numbers; "modeled"
#: skips the arithmetic but keeps every message, size and cost identical.
PAYLOAD_MODES = ("real", "modeled")

#: Kernel flavors: "numpy" runs the vectorized block kernel into a
#: preallocated scratch buffer; "percell" runs the scalar per-cell
#: reference arithmetic (bit-identical values, orders of magnitude
#: slower — the baseline the kernel speedup is measured against).
KERNEL_MODES = ("numpy", "percell")


@dataclass(frozen=True)
class StencilRunConfig:
    """Per-run settings shared by every block."""

    steps: int
    payload: str = "real"
    costs: StencilCostModel = field(default_factory=lambda: DEFAULT_STENCIL_COSTS)
    #: Gather the final interiors back to the driver (validation runs).
    gather_mesh: bool = False
    #: Which implementation performs the Jacobi arithmetic (real payload
    #: only; virtual-time cost always comes from ``costs``).
    kernel: str = "numpy"

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigurationError(f"negative steps {self.steps}")
        if self.payload not in PAYLOAD_MODES:
            raise ConfigurationError(
                f"payload must be one of {PAYLOAD_MODES}, got {self.payload!r}")
        if self.kernel not in KERNEL_MODES:
            raise ConfigurationError(
                f"kernel must be one of {KERNEL_MODES}, got {self.kernel!r}")


class StencilBlock(Chare):
    """One mesh block of the five-point stencil decomposition."""

    def __init__(self, bi: int, bj: int, decomp: BlockDecomposition,
                 config: StencilRunConfig, initial: Optional[np.ndarray],
                 done_targets: Tuple[Any, Any, Any]) -> None:
        super().__init__()
        self.bi = bi
        self.bj = bj
        self.decomp = decomp
        self.config = config
        self.neighbors = decomp.neighbors(bi, bj)
        self.done_targets = done_targets  # (times_cb, checksum_cb, mesh_cb)
        #: Virtual costs fixed by the block's shape, charged per step or
        #: per ghost: the same floats the cost model returns each time.
        costs = config.costs
        self._ghost_cost = {side: costs.ghost_cost(decomp.ghost_bytes(side))
                            for side in self.neighbors}
        self._compute_cost = costs.compute_cost(decomp.block_rows,
                                                decomp.block_cols)
        self._send_cost = costs.send_cost(len(self.neighbors))

        h, w = decomp.block_rows, decomp.block_cols
        if config.payload == "real":
            if initial is None or initial.shape != (h, w):
                raise ConfigurationError(
                    f"block ({bi},{bj}) expects a {h}x{w} initial array")
            self.u = np.zeros((h + 2, w + 2), dtype=np.float64)
            self.u[1:-1, 1:-1] = initial
            self._fixed = self._capture_fixed_boundary()
            #: Reused per-step output buffer for the in-place kernel.
            self._scratch = np.empty((h, w), dtype=np.float64)
        else:
            self.u = None
            self._fixed = {}
            self._scratch = None

        self.step = 0
        self._started = False
        self._ghost_buf: Dict[Tuple[int, str], Any] = {}
        #: Ghosts buffered per step: the step can run once its count
        #: reaches the number of neighbors.
        self._arrivals: Dict[int, int] = {}
        self.completed_at: List[float] = []
        self._finished = False

    def _bind(self, rts, cid) -> None:
        super()._bind(rts, cid)
        #: Per-neighbor send plan (canonical id, side, opposite side, wire
        #: bytes), built on the first send (the neighbors register after
        #: this block) and again after a checkpoint restore rebinds it.
        self._ghost_plan: Optional[List[Tuple[ChareID, str, str, int]]] \
            = None

    # -- fixed (Dirichlet) global boundary ----------------------------------

    def _capture_fixed_boundary(self) -> Dict[str, np.ndarray]:
        """Snapshot the mesh-boundary cells this block owns (never updated)."""
        fixed: Dict[str, np.ndarray] = {}
        interior = self.u[1:-1, 1:-1]
        if self.bi == 0:
            fixed["north"] = interior[0, :].copy()
        if self.bi == self.decomp.brows - 1:
            fixed["south"] = interior[-1, :].copy()
        if self.bj == 0:
            fixed["west"] = interior[:, 0].copy()
        if self.bj == self.decomp.bcols - 1:
            fixed["east"] = interior[:, -1].copy()
        return fixed

    def _reapply_fixed_boundary(self) -> None:
        interior = self.u[1:-1, 1:-1]
        for side, values in self._fixed.items():
            if side == "north":
                interior[0, :] = values
            elif side == "south":
                interior[-1, :] = values
            elif side == "west":
                interior[:, 0] = values
            else:
                interior[:, -1] = values

    # -- entry methods ------------------------------------------------------------

    @entry
    def start(self) -> None:
        """Kick off the run: publish step-0 boundaries (or finish).

        Neighbors may boot earlier (the start broadcast arrives
        staggered) and their step-0 ghosts may already be buffered; a
        block must not consume them — let alone advance — before its own
        start has published its step-0 boundaries, or it would later
        re-send under a stale step tag.  ``_drain_ready_steps`` is
        therefore gated on ``_started``.
        """
        self._started = True
        if self.config.steps == 0:
            self._finish()
            return
        self._send_ghosts()
        self._drain_ready_steps()

    @entry
    def ghost(self, step: int, side: str, vec: Any) -> None:
        """A neighbor's boundary vector for *step* arrived."""
        key = (step, side)
        if key in self._ghost_buf:
            raise ConfigurationError(
                f"block ({self.bi},{self.bj}) got duplicate ghost {key}")
        self._ghost_buf[key] = vec
        self._arrivals[step] = self._arrivals.get(step, 0) + 1
        self.charge(self._ghost_cost[side])
        self._drain_ready_steps()

    # -- the per-step pipeline -------------------------------------------------------

    def _ready(self) -> bool:
        if self._finished or not self._started:
            return False
        return self._arrivals.get(self.step, 0) == len(self.neighbors)

    def _drain_ready_steps(self) -> None:
        """Advance as many steps as buffered ghosts permit (usually one)."""
        while self._ready():
            self._advance_step()
            if self._finished:
                return

    def _advance_step(self) -> None:
        cfg = self.config
        self._arrivals.pop(self.step, None)
        for side in self.neighbors:
            vec = self._ghost_buf.pop((self.step, side))
            if cfg.payload == "real":
                self._install_ghost(side, vec)

        if cfg.payload == "real":
            if cfg.kernel == "percell":
                self.u[1:-1, 1:-1] = jacobi_step_percell(self.u)
            else:
                jacobi_step_into(self.u, self._scratch)
                self.u[1:-1, 1:-1] = self._scratch
            self._reapply_fixed_boundary()
        self.charge(self._compute_cost)

        self.step += 1
        self.completed_at.append(self.now)
        if self.step >= cfg.steps:
            self._finish()
        else:
            self._send_ghosts()

    def _install_ghost(self, side: str, vec: np.ndarray) -> None:
        if side == "north":
            self.u[0, 1:-1] = vec
        elif side == "south":
            self.u[-1, 1:-1] = vec
        elif side == "west":
            self.u[1:-1, 0] = vec
        else:
            self.u[1:-1, -1] = vec

    def _boundary(self, side: str) -> Optional[np.ndarray]:
        if self.config.payload != "real":
            return None
        interior = self.u[1:-1, 1:-1]
        if side == "north":
            return interior[0, :].copy()
        if side == "south":
            return interior[-1, :].copy()
        if side == "west":
            return interior[:, 0].copy()
        return interior[:, -1].copy()

    def _send_ghosts(self) -> None:
        """Publish this block's current boundaries to all neighbors.

        Sends through :meth:`Runtime.send` directly using the
        precomputed plan — equivalent to
        ``self.thisProxy[nbr].ghost(...)`` per neighbor, minus the
        per-send proxy/BoundEntry allocations on the hottest app loop.
        """
        rts = self._require_rts()
        plan = self._ghost_plan
        if plan is None:
            collection = self._id.collection
            plan = self._ghost_plan = [
                (rts.chare_id(collection, nbr), side, OPPOSITE[side],
                 self.decomp.ghost_bytes(side) + 64)
                for side, nbr in self.neighbors.items()]
        step = self.step
        self.charge(self._send_cost)
        tag = f"ghost s{step}"
        for target, side, opposite, size in plan:
            rts.send(target, "ghost",
                     (step, opposite, self._boundary(side)), {},
                     size=size, tag=tag)

    # -- completion -------------------------------------------------------------------

    def _finish(self) -> None:
        self._finished = True
        times_cb, checksum_cb, mesh_cb = self.done_targets
        times = np.array(self.completed_at, dtype=np.float64)
        self.contribute(times, "max", times_cb)
        if self.config.payload == "real":
            self.contribute(float(self.u[1:-1, 1:-1].sum()), "sum",
                            checksum_cb)
        else:
            self.contribute(0.0, "sum", checksum_cb)
        if self.config.gather_mesh:
            payload = (self.u[1:-1, 1:-1].copy()
                       if self.config.payload == "real" else None)
            self.contribute(payload, "concat", mesh_cb)

    def pack_size(self) -> int:
        if self.u is None:
            return 512
        return int(self.u.nbytes) + 512
