"""Former name of `kernels`, kept as an alias because `perfbench/tracer.py`
imports it."""

from .kernels import *  # noqa: F401,F403
