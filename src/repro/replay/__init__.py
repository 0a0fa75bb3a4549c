"""Trace replay fidelity verification.

The Record-and-Replay strategy (paper Sec. IV-A-1, [16]-[19]): collected
traces are "fed back into replay tools to replicate the I/O behavior of
the original application".  A replay is
:func:`repro.simulate.tracesim.trace_to_workload` run through
:func:`repro.simulate.execsim.run_workload` with a
:class:`~repro.monitoring.tracer.RecorderTracer` observing it;
:mod:`repro.replay.verify` quantifies how faithful the replay was --
the validation step ScalaIOExtrap [16], [17] and hfplayer [18], [19]
emphasise.
"""

from repro.replay.verify import FidelityReport, verify_fidelity

__all__ = [
    "FidelityReport",
    "verify_fidelity",
]
