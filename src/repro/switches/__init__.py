"""Baseline switch models and the input-queued VOQ fabric.

The flat 2D Swizzle-Switch and the 3D folded switch are matrix
crossbars with embedded per-output LRG arbitration, which is Hi-Rise
with one layer: :class:`SwizzleSwitch2D` and :class:`FoldedSwitch3D`
build a :class:`repro.core.HiRiseSwitch` on a one-layer configuration.
Folding redistributes inputs/outputs over layers without changing the
datapath or arbitration, so the two are cycle-identical; the
differences (TSV count, wire loading, clock frequency) live in
:mod:`repro.physical`.

:class:`VOQSwitch` is the input-queued counterpoint: virtual output
queues per input scheduled by iSLIP or a maximum-weight-matching
oracle (:mod:`repro.arbitration.islip` / :mod:`repro.arbitration.mwm`),
selected via ``config.arbitration`` like every Hi-Rise scheme.

:func:`make_switch` is the scheme-dispatching factory the harness
uses: it builds a :class:`repro.core.HiRiseSwitch` for the paper's
schemes and a :class:`VOQSwitch` for the VOQ schemes, passing the
observability hooks through unchanged.
"""

from typing import Optional

from repro.switches.swizzle2d import FoldedSwitch3D, SwizzleSwitch2D
from repro.switches.voq import VOQStage, VOQSwitch

__all__ = [
    "SwizzleSwitch2D",
    "FoldedSwitch3D",
    "VOQStage",
    "VOQSwitch",
    "make_switch",
]


def make_switch(
    config,
    tracer: Optional[object] = None,
    faults: Optional[object] = None,
    invariants: Optional[object] = None,
    perf: Optional[object] = None,
):
    """Build the switch model that implements ``config.arbitration``.

    VOQ schemes (``config.uses_voq``) get a :class:`VOQSwitch`; every
    Hi-Rise scheme gets the fast :class:`repro.core.HiRiseSwitch`.  The
    opt-in hooks are forwarded unchanged, so callers wire tracing,
    faults, invariants, and perf counters identically for both families.
    """
    if config.uses_voq:
        return VOQSwitch(
            config,
            tracer=tracer,
            faults=faults,
            invariants=invariants,
            perf=perf,
        )
    from repro.core.hirise import HiRiseSwitch

    return HiRiseSwitch(
        config,
        tracer=tracer,
        faults=faults,
        invariants=invariants,
        perf=perf,
    )
