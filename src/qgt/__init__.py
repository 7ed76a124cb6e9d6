"""Sparse-graph quantitative group testing.

Measurements count defectives with small integer weights; decoding peels
low-count tests with a syndrome decoder and propagates resolved items
through the pooling graph.

The package root exports nothing, so importing one submodule loads only what
that submodule needs: import the submodules themselves (``from qgt import
codec``).
"""
