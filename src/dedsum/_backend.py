"""The kernel seam: the names the evaluator and the search call through.

:mod:`dedsum.dedekind` and :mod:`dedsum.search` look ``eval_parts`` and
``scan_parts`` up here at call time.  The benchmark (``bench/``) reads
``kernel`` and ``kernel_name()`` and patches ``eval_parts`` and
``scan_parts`` to time them, so these names stay.
"""

from __future__ import annotations

from . import _kernel_py as kernel

eval_parts = kernel.normalized_sum_parts
scan_parts = kernel.scan_slice


def kernel_name() -> str:
    return "pure"
