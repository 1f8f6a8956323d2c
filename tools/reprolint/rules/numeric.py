"""Family N: numeric hygiene.

PR 1's precision bugs came from narrow accumulators — ``float32``
partial sums and ``int32`` counters that silently wrapped or lost
low-order bits on paper-scale worlds.  Addresses are ``uint32`` and
hit totals are ``uint64``/``float64`` by design; anything *narrower*
is suspect unless the author says why:

- N401 — constructing an array (or scalar) with a narrow dtype
  (``int8/16/32``, ``uint8/16``, ``float16/32``);
- N402 — ``.astype`` to a narrow dtype.
- N403 — whole-array concatenation (``np.concatenate`` / ``np.vstack``
  / ``np.hstack``) inside the out-of-core store and its streaming
  analysis paths, where an unbounded concatenate silently re-creates
  the O(addresses) memory profile the store exists to avoid.

All rules accept an *intent comment* on the flagged line (any
trailing comment) as the author's explicit statement, mirroring the
"astype without explicit intent comment" contract in the issue — a
narrowing (or a concatenation you can read the bound for) is not a
silent one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.astutil import (
    call_name,
    dotted_name,
    string_constant,
    walk_calls,
)
from tools.reprolint.findings import Finding
from tools.reprolint.registry import Rule, rule

_NUMERIC_SCOPE = ("src/repro",)

_NARROW_DTYPES = {
    "int8", "int16", "int32", "uint8", "uint16", "float16", "float32",
}


def _narrow_dtype_of(node: ast.expr) -> str | None:
    """The narrow dtype an expression names, if any.

    Matches ``np.int32`` / ``numpy.float32`` attribute references and
    ``"int32"`` string literals (the two spellings ``dtype=`` accepts).
    """
    name = None
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None and dotted.split(".")[0] in ("np", "numpy"):
            name = dotted.split(".")[-1]
    literal = string_constant(node)
    if literal is not None:
        name = literal
    if name in _NARROW_DTYPES:
        return name
    return None


@rule
class NarrowDtypeConstruction(Rule):
    rule_id = "N401"
    summary = "narrow-dtype array construction without an intent comment"
    scope = _NUMERIC_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            name = call_name(node)
            if name is None:
                continue
            dtype: str | None = None
            parts = name.split(".")
            # Direct scalar/array constructors: np.int32(x), np.float32(x).
            if parts[0] in ("np", "numpy") and parts[-1] in _NARROW_DTYPES:
                dtype = parts[-1]
            # dtype= keyword on any call: np.zeros(n, dtype=np.float32),
            # np.array(..., dtype="int16"), arr.view(dtype=...) etc.
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    found = _narrow_dtype_of(keyword.value)
                    if found is not None:
                        dtype = found
            if dtype is None:
                continue
            if module.has_comment(node.lineno):
                continue  # the author stated intent on the line
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"narrow dtype {dtype} construction: accumulators must be "
                "float64/int64/uint64 (PR 1 precision bugs); if the "
                "narrowing is deliberate, say why in a comment on this "
                "line",
            )


@rule
class NarrowAstype(Rule):
    rule_id = "N402"
    summary = "astype to a narrow dtype without an intent comment"
    scope = _NUMERIC_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr != "astype":
                continue
            if not node.args:
                continue
            dtype = _narrow_dtype_of(node.args[0])
            if dtype is None:
                continue
            if module.has_comment(node.lineno):
                continue
            yield self.finding(
                module, node.lineno, node.col_offset,
                f".astype({dtype}) narrows without a stated reason: add "
                "an intent comment on this line or widen the dtype",
            )


_STREAMING_SCOPE = (
    "src/repro/core/store.py",
    "src/repro/core/fold.py",
    "src/repro/core/metrics.py",
    "src/repro/core/churn.py",
    "src/repro/core/analyze.py",
)

_CONCAT_CALLS = {"concatenate", "vstack", "hstack"}


@rule
class StreamingConcatenation(Rule):
    rule_id = "N403"
    summary = "whole-array concatenation in a streaming path without an intent comment"
    scope = _STREAMING_SCOPE

    def check(self, module) -> Iterator[Finding]:
        for node in walk_calls(module.tree):
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] not in ("np", "numpy") or parts[-1] not in _CONCAT_CALLS:
                continue
            if module.has_comment(node.lineno):
                continue  # the author stated the memory bound on the line
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"np.{parts[-1]} in a streaming path: whole-array "
                "concatenation re-creates the O(addresses) footprint the "
                "out-of-core store avoids; if this one is bounded (one "
                "shard, per-/24 slices), say so in a comment on this line",
            )
