"""The Cell chare: owns atoms, integrates, multicasts coordinates.

Per time step a cell (paper §4):

1. multicasts its atoms' coordinates to the cell-pair objects that
   depend on it (its 26 neighbour pairs plus its self-pair);
2. receives one force contribution from each of those pairs —
   message-driven, so the PE runs other cells/pairs meanwhile;
3. when all contributions are in, folds them (in deterministic sorted
   pair order), integrates, and starts the next step.

Cross-cluster pairs make some contributions arrive a WAN round-trip
late; the scheduler fills that gap with "subset A" objects (paper's
term) whose dependencies are cluster-local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.leanmd.costs import DEFAULT_LEANMD_COSTS, LeanMDCostModel
from repro.apps.leanmd.geometry import CellGrid, CellIndex, PairIndex
from repro.apps.leanmd.integrator import integrate, kinetic_energy
from repro.apps.leanmd.system import CellState, MdParams
from repro.core.chare import Chare
from repro.core.collectives import group_targets_by_pe, send_grouped
from repro.core.method import entry
from repro.errors import ConfigurationError

PAYLOAD_MODES = ("real", "modeled")


@dataclass(frozen=True)
class LeanMDRunConfig:
    """Per-run settings shared by all cells and pairs."""

    steps: int
    atoms_per_cell: int
    payload: str = "real"
    costs: LeanMDCostModel = field(default_factory=lambda: DEFAULT_LEANMD_COSTS)
    gather_positions: bool = False

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigurationError(f"negative steps {self.steps}")
        if self.atoms_per_cell <= 0:
            raise ConfigurationError("atoms_per_cell must be positive")
        if self.payload not in PAYLOAD_MODES:
            raise ConfigurationError(f"bad payload {self.payload!r}")


class Cell(Chare):
    """One interaction cell of the LeanMD decomposition."""

    def __init__(self, cidx: CellIndex, grid: CellGrid, params: MdParams,
                 config: LeanMDRunConfig, state: Optional[CellState],
                 done_targets: Tuple[Any, Any, Any, Any]) -> None:
        super().__init__()
        self.cidx = cidx
        self.grid = grid
        self.params = params
        self.config = config
        self.done_targets = done_targets  # (times, ke, pe, positions)
        self.my_pairs: List[PairIndex] = grid.pairs_of_cell(cidx)
        self.box = np.array(grid.shape, dtype=np.float64) * params.cutoff

        if config.payload == "real":
            if state is None or state.natoms != config.atoms_per_cell:
                raise ConfigurationError(
                    f"cell {cidx} expects {config.atoms_per_cell} atoms")
            self.positions = state.positions.copy()
            self.velocities = state.velocities.copy()
            self.charges = state.charges.copy()
        else:
            self.positions = None
            self.velocities = None
            self.charges = None

        self.step = 0
        self._section = None
        self._force_buf: Dict[int, Dict[PairIndex, Any]] = {}
        self._pot_buf: Dict[int, float] = {}
        self.times: List[float] = []
        self.ke_trace: List[float] = []
        self.pe_trace: List[float] = []
        self._finished = False

    @property
    def natoms(self) -> int:
        return self.config.atoms_per_cell

    # -- entry methods -----------------------------------------------------

    @entry
    def setup(self, pairs_proxy, ready_target) -> None:
        """Bind the multicast section over this cell's pair objects.

        Contributes to a readiness reduction; the driver broadcasts
        :meth:`go` from its callback, so no cell can see ``go`` before
        every cell finished ``setup`` (a small ``go`` message could
        otherwise overtake the larger ``setup`` broadcast on the wire).
        """
        self._section = pairs_proxy.section(self.my_pairs)
        self.contribute(None, "nop", ready_target)

    @entry
    def go(self) -> None:
        """Start the run (after :meth:`setup`)."""
        if self._section is None:
            raise ConfigurationError(
                f"cell {self.cidx} started before setup()")
        if self.config.steps == 0:
            self._finish()
            return
        self._multicast_coords()

    @entry
    def forces_from(self, step: int, pair_idx: tuple, forces: Any,
                    potential: float) -> None:
        """One pair object's force contribution for *step* arrived."""
        pair_idx = tuple(pair_idx)
        buf = self._force_buf.setdefault(step, {})
        if pair_idx in buf:
            raise ConfigurationError(
                f"cell {self.cidx} got duplicate forces from {pair_idx} "
                f"at step {step}")
        buf[pair_idx] = forces
        self._pot_buf[step] = self._pot_buf.get(step, 0.0) + potential
        self.charge(self.config.costs.force_recv_cost(self.natoms))
        if step == self.step and len(buf) == len(self.my_pairs):
            self._integrate_step()

    # -- internals ------------------------------------------------------------

    def _multicast_coords(self) -> None:
        rts = self._require_rts()
        # Group once: the grouping prices the multicast and routes it.
        section = self._section
        groups = group_targets_by_pe(rts, section._collection,
                                     section._indices)
        self.charge(self.config.costs.multicast_cost(len(groups)))
        payload = (self.positions.copy()
                   if self.config.payload == "real" else None)
        send_grouped(rts, section._collection, "coords",
                     groups, (self.step, self.cidx, payload), {},
                     self.natoms * 24 + 64, None, f"coords s{self.step}")

    def _integrate_step(self) -> None:
        cfg = self.config
        contributions = self._force_buf.pop(self.step)
        potential = self._pot_buf.pop(self.step, 0.0)
        self.charge(cfg.costs.integrate_cost(self.natoms))

        if cfg.payload == "real":
            # Deterministic fold: sorted pair order, not arrival order,
            # so results do not depend on latency or mapping.
            total = np.zeros((self.natoms, 3))
            for pidx in sorted(contributions):
                total += contributions[pidx]
            self.positions, self.velocities = integrate(
                self.positions, self.velocities, total, self.box,
                self.params)
            self.ke_trace.append(kinetic_energy(self.velocities,
                                                self.params))
        else:
            self.ke_trace.append(0.0)
        self.pe_trace.append(potential)

        self.step += 1
        self.times.append(self.now)
        if self.step >= cfg.steps:
            self._finish()
        else:
            self._multicast_coords()

    def _finish(self) -> None:
        self._finished = True
        times_cb, ke_cb, pe_cb, pos_cb = self.done_targets
        self.contribute(np.array(self.times, dtype=np.float64), "max",
                        times_cb)
        self.contribute(np.array(self.ke_trace, dtype=np.float64), "sum",
                        ke_cb)
        self.contribute(np.array(self.pe_trace, dtype=np.float64), "sum",
                        pe_cb)
        if self.config.gather_positions:
            payload = None
            if self.config.payload == "real":
                payload = (self.positions.copy(), self.velocities.copy())
            self.contribute(payload, "concat", pos_cb)

    def pack_size(self) -> int:
        if self.positions is None:
            return 1024
        return int(self.positions.nbytes + self.velocities.nbytes
                   + self.charges.nbytes) + 1024
