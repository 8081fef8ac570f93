"""Empty layer.

mgale asserts and reports only exact finite quantities on the grid, so
no code declares how an infinite tail continues.  The module stays only
because ``perfbench/tracer.py``'s ``LAYERS`` imports ``mgale.tails``;
dropping the layer there, and then this file, is a benchmark-only
change (ROADMAP item 4).
"""

__all__: list = []
