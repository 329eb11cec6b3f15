"""Supervisor synthesis and per-event localization for discrete-event
systems with infinite behavior."""
