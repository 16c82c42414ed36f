"""The live monitor's timing defaults.

One definition of each number, in a module that imports nothing, so the
CLI parser can print them in its help without loading the monitor.
:mod:`repro.obs.heartbeat` and :mod:`repro.obs.monitor` re-export them.
"""

__all__ = [
    "DEFAULT_BEAT_INTERVAL",
    "DEFAULT_STRAGGLER_AFTER",
    "DEFAULT_STALL_AFTER",
    "DEFAULT_BEAT_TIMEOUT",
]

#: Default seconds between heartbeat file rewrites.
DEFAULT_BEAT_INTERVAL = 0.2
#: A rank whose state is frozen this long is a straggler suspect.
DEFAULT_STRAGGLER_AFTER = 1.0
#: ... and this long, a stall.  Keep well under the bounded-recv
#: detection timeout (default 60 s): diagnosis must precede detection.
DEFAULT_STALL_AFTER = 3.0
#: Missing beats for this long mean the process itself is dead.
DEFAULT_BEAT_TIMEOUT = 5.0
