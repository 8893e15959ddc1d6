"""The correlated Context-based Address Predictor (CAP) — Section 3.

Two-level organisation (Figure 3):

* **Load Buffer (LB)** — per-static-load, set-associative, indexed/tagged
  by the load IP.  Each entry keeps the (truncated) immediate offset, the
  shift-xor compressed history of recent *base* addresses, a saturating
  confidence counter, and the control-flow-indication field.
* **Link Table (LT)** — indexed by the history's low bits; stores the
  predicted base address, an optional tag (high history bits) and the PF
  anti-pollution bits.

Global correlation (Section 3.3): the LB records only the 8 LSBs of the
load's immediate offset; histories and links are formed over *base
addresses* ``base = addr - (offset & 0xFF)`` with the address MSBs kept
intact.  The predicted address is reconstructed with a truncated 8-bit
adder (no carry past bit 7), exactly as the paper's hardware does.

The prediction/training rules live in :class:`CAPComponent`, operating on
a :class:`CAPState`, so the hybrid predictor (Section 3.7) can embed the
same component over its shared Load Buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..common.bitops import mask
from ..common.sat_counter import SaturatingCounter
from ..common.tables import SetAssociativeTable
from .base import AddressPredictor, Prediction, lb_key
from .confidence import CFI_LAST, ControlFlowIndication
from .history import HistoryFunction
from .link_table import LinkTable, LinkTableConfig

__all__ = [
    "CORRELATION_BASE",
    "CORRELATION_REAL",
    "CORRELATION_DELTA",
    "CAPConfig",
    "CAPState",
    "CAPComponent",
    "CAPPredictor",
]

_MASK32 = mask(32)

#: Histories/links over base addresses — the paper's global-correlation
#: scheme (default).
CORRELATION_BASE = "base"
#: Histories/links over raw effective addresses — no global correlation
#: (Figure 9's comparison point).
CORRELATION_REAL = "real"
#: Histories/links over deltas between successive accesses — the
#: alternative Section 3.3 mentions and rejects for aliasing reasons.
CORRELATION_DELTA = "delta"


@dataclass(frozen=True)
class CAPConfig:
    """Full parameterisation of a CAP predictor.

    Defaults are the paper's baseline (Section 4.2): 4K-entry 2-way LB,
    4K-entry direct-mapped LT, base-address correlation, 8-bit LT tags,
    PF bits, control-flow indications, history length 4.
    """

    lb_entries: int = 4096
    lb_ways: int = 2
    lt: LinkTableConfig = field(default_factory=LinkTableConfig)
    history_length: int = 4
    offset_bits: int = 8
    correlation: str = CORRELATION_BASE
    confidence_threshold: int = 2
    confidence_max: Optional[int] = None
    hysteresis: bool = False
    cfi_mode: str = CFI_LAST
    cfi_bits: int = 4
    drop_low_bits: int = 2

    def __post_init__(self) -> None:
        if self.correlation not in (
            CORRELATION_BASE, CORRELATION_REAL, CORRELATION_DELTA,
        ):
            raise ValueError(f"unknown correlation mode {self.correlation!r}")
        if not 0 < self.offset_bits <= 32:
            raise ValueError("offset_bits must be in (0, 32]")
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")

    def with_lt(self, **overrides) -> "CAPConfig":
        """Copy of this config with Link-Table fields overridden."""
        return replace(self, lt=replace(self.lt, **overrides))

    @property
    def history_bits(self) -> int:
        """Total history width (LT index + tag bits)."""
        return self.lt.history_bits


class CAPState:
    """Per-static-load CAP fields (lives in a Load Buffer entry).

    ``spec_history``/``pending``/``suppress`` carry the Section 5 pipelined
    model: between prediction and verification the history advances
    *speculatively* with the predicted links (so pointer chains keep
    predicting down the pipe), and a verified misprediction repairs the
    speculative history and withholds speculation while the wrong-path
    instances drain — the "domino effect" of Section 5.2.
    """

    __slots__ = (
        "offset", "history", "confidence", "cfi", "last_addr",
        "spec_history", "pending", "suppress",
    )

    def __init__(self, config: CAPConfig, offset: int) -> None:
        # Only the offset's LSBs are recorded (Section 3.3) — this is both
        # the space saving and what prevents LT aliasing between different
        # structures (the MSBs of the address stay in the base).
        self.offset = offset & mask(config.offset_bits)
        self.history = 0
        self.confidence = SaturatingCounter(
            threshold=config.confidence_threshold,
            maximum=config.confidence_max,
            hysteresis=config.hysteresis,
        )
        self.cfi = ControlFlowIndication(config.cfi_mode, config.cfi_bits)
        self.last_addr: Optional[int] = None  # used by the delta mode
        # Pipelined (speculative) state.
        self.spec_history = 0
        self.pending = 0
        self.suppress = 0


class CAPComponent:
    """CAP prediction/training logic plus the Link Table it owns."""

    def __init__(self, config: CAPConfig | None = None) -> None:
        self.config = config or CAPConfig()
        self.link_table = LinkTable(self.config.lt)
        self.history_fn = HistoryFunction(
            width=self.config.history_bits,
            length=self.config.history_length,
            drop_low_bits=self.config.drop_low_bits,
        )
        self._offset_mask = mask(self.config.offset_bits)
        # Attribution sink (attached by eval.runner.instrument_predictor).
        self.probe: Optional[Any] = None

    # -- base-address arithmetic (truncated adders, Section 3.3) -----------

    def base_of(self, addr: int, offset: int) -> int:
        """Base address: subtract the offset LSBs, keep the address MSBs."""
        om = self._offset_mask
        return (addr & ~om) | ((addr - (offset & om)) & om)

    def addr_of(self, base: int, offset: int) -> int:
        """Rebuild the effective address with no carry past the offset bits."""
        om = self._offset_mask
        return (base & ~om) | ((base + (offset & om)) & om)

    def _link_value(self, state: CAPState, actual: int) -> Optional[int]:
        """The value recorded in histories and the LT for this resolution."""
        mode = self.config.correlation
        if mode == CORRELATION_BASE:
            return self.base_of(actual, state.offset)
        if mode == CORRELATION_REAL:
            return actual
        # Delta mode: needs a previous address.
        if state.last_addr is None:
            return None
        return (actual - state.last_addr) & _MASK32

    def _predicted_addr(self, state: CAPState, link: int) -> Optional[int]:
        """Effective address implied by a stored link for this load."""
        mode = self.config.correlation
        if mode == CORRELATION_BASE:
            return self.addr_of(link, state.offset)
        if mode == CORRELATION_REAL:
            return link
        if state.last_addr is None:
            return None
        return (state.last_addr + link) & _MASK32

    # -- prediction -----------------------------------------------------------

    def predict(
        self,
        state: CAPState,
        ghr: int,
        speculative_mode: bool = False,
    ) -> Prediction:
        """CAP's prediction for a load whose LB entry is ``state``.

        In ``speculative_mode`` the lookup uses (and advances) the
        speculative history, so a chain of in-flight predictions for the
        same static load walks the Link Table links forward before any of
        them verifies.
        """
        history = state.spec_history if speculative_mode else state.history
        if speculative_mode:
            state.pending += 1
        link, tag_ok = self.link_table.lookup(history)
        if link is None:
            return Prediction(source="cap", ghr=ghr)
        address = self._predicted_addr(state, link)
        if address is None:
            return Prediction(source="cap", ghr=ghr)
        if speculative_mode:
            # Advance the speculative context with the *predicted* link.
            state.spec_history = self.history_fn.update(state.spec_history, link)
        speculative = (
            tag_ok
            and state.confidence.confident
            and state.cfi.allows(ghr)
            and not (speculative_mode and state.suppress > 0)
        )
        if self.probe is not None and not speculative:
            # Attribute the veto to the first mechanism in the confidence
            # cascade that withheld speculation, mirroring the short-circuit
            # order above.  A tag mismatch was already emitted by the Link
            # Table lookup itself; ``confident``/``allows`` are pure reads,
            # so re-evaluating them here cannot perturb predictor state.
            if tag_ok:
                if not state.confidence.confident:
                    self.probe.confidence_veto()
                elif not state.cfi.allows(ghr):
                    self.probe.cfi_veto()
                else:
                    self.probe.drain_suppression()
        return Prediction(
            address=address, speculative=speculative, source="cap", ghr=ghr,
        )

    # -- training ---------------------------------------------------------------

    def train(
        self,
        state: CAPState,
        actual: int,
        predicted_addr: Optional[int],
        ghr_at_predict: int,
        speculated: bool,
        update_lt: bool = True,
        speculative_mode: bool = False,
    ) -> None:
        """Train on a resolved load.

        ``predicted_addr`` is what this component predicted for the very
        instance now resolving (``None`` when it had no prediction);
        ``speculated`` says whether that prediction drove a speculative
        access (for CFI training); ``update_lt`` implements the hybrid's
        selective LT update policies (Section 4.3).
        """
        correct: Optional[bool] = None
        if predicted_addr is not None:
            correct = predicted_addr == actual
            state.confidence.update(correct)
            bad_pattern = state.cfi.record(ghr_at_predict, correct, speculated)
            if bad_pattern and self.probe is not None:
                self.probe.cfi_bad_pattern()

        value = self._link_value(state, actual)
        if value is not None:
            if update_lt:
                # The pre-update history is the context that led here.
                self.link_table.update(state.history, value)
            state.history = self.history_fn.update(state.history, value)
        state.last_addr = actual

        if speculative_mode:
            state.pending = max(0, state.pending - 1)
            if state.suppress > 0:
                state.suppress -= 1
            if not correct:
                # The speculative context diverged (wrong link, or no
                # prediction was made so it never advanced): repair it from
                # the architectural history and stop speculating until the
                # wrong-path instances have drained.  There is no catch-up
                # for context predictors (Section 5.2).
                state.spec_history = state.history
                state.suppress = state.pending
                if self.probe is not None:
                    self.probe.spec_rollback()
        else:
            state.spec_history = state.history
            state.pending = 0
            state.suppress = 0

    # HistoryFunction is a pure function object (update() computes a new
    # history value without touching self), so reset() has nothing to clear
    # on it; the linter cannot see through the call and assumes mutation.
    def reset(self) -> None:  # repro-lint: disable=R001
        """Clear the Link Table (LB entries are owned by the caller)."""
        self.link_table.clear()


class CAPPredictor(AddressPredictor):
    """Stand-alone CAP: its own Load Buffer plus a :class:`CAPComponent`."""

    #: Batch-kernel capability flag (see :mod:`repro.kernels`); the
    #: dispatcher additionally declines when ``speculative_mode`` is set.
    supports_batch = True

    def __init__(self, config: CAPConfig | None = None) -> None:
        super().__init__()
        self.config = config or CAPConfig()
        self.component = CAPComponent(self.config)
        self.load_buffer: SetAssociativeTable[CAPState] = SetAssociativeTable(
            self.config.lb_entries, self.config.lb_ways
        )
        self.speculative_mode = False

    def predict(self, ip: int, offset: int) -> Prediction:
        state = self.load_buffer.lookup(lb_key(ip))
        if state is None:
            if self.probe is not None:
                self.probe.lb_miss()
            state = CAPState(self.config, offset)
            if self.speculative_mode:
                # This very instance is now in flight.
                state.pending = 1
            self.load_buffer.insert(lb_key(ip), state)
            return Prediction(source="cap", ghr=self.ghr)
        return self.component.predict(
            state, self.ghr, speculative_mode=self.speculative_mode
        )

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        state = self.load_buffer.lookup(lb_key(ip))
        if state is None:
            state = CAPState(self.config, offset)
            self.load_buffer.insert(lb_key(ip), state)
        self.component.train(
            state,
            actual,
            predicted_addr=prediction.address,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative,
            speculative_mode=self.speculative_mode,
        )

    def predict_batch(self, batch):
        """Pure batch solver (see :mod:`repro.kernels.cap`)."""
        from ..kernels.cap import plan_cap

        return plan_cap(self, batch)

    def update_batch(self, batch, result) -> None:
        """Commit a batch result's end state into the live tables."""
        from ..kernels.cap import commit_cap

        commit_cap(self, batch, result)

    def reset(self) -> None:
        super().reset()
        self.load_buffer.clear()
        self.component.reset()

    @property
    def name(self) -> str:
        return "cap"
