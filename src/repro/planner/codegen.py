"""Code generation: fused batched tile kernels and human-readable reports.

The paper's system emits Scala source at compile time; this module is
the Python analogue, in two parts:

* :func:`generate_fused_kernel` — turns one preserve-tiling rule (5.1:
  a head value and residual guards over joined scans) into the *source
  text* of a single per-partition NumPy function: coordinate
  projection, index grids, tile realignment, the vectorized head value,
  guard masks, and boundary clipping to the declared extent, on a
  leading batch axis — every statement runs once per batch of
  same-shaped tiles (a :class:`~repro.engine.batch.TileBatch` partition
  as it is stored), not once per tile.  Elementwise ufuncs are exact
  per element however the elements are batched, so a fused run is
  bit-identical to evaluating the head over the whole dense operands.
  Expressions render through
  :func:`repro.planner.kernels.emit_vectorized_source`, the same text
  ``compile_vectorized`` compiles for the other rules.

* :func:`explain` — the inspectable compilation report ``SacSession``
  exposes to users.

Generated sources are fingerprinted (sha1 of the text) and compiled at
most once per fingerprint through the bounded :class:`KernelCache`;
lookups report hit/miss counters into the engine's
:class:`~repro.engine.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, free_vars, to_source
from ..engine.batch import TileBatch, in_input_order, tile_groups
from ..engine.substrate import LruCache
from .kernels import (
    KernelUnsupported, _div, emit_vectorized_source, literal_source,
)
from .plan import Plan


# ----------------------------------------------------------------------
# Fused per-partition kernel generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FusedKernel:
    """Source text of one fused chain, plus its cache identity.

    ``mode`` records the record format the generated function consumes:
    ``"tiles"`` iterates a generator's raw ``(coords, tile)`` records
    (the whole single-generator chain collapsed to one hop), while
    ``"joined"`` iterates ``(out_coords, (tile, ...))`` records after
    the tile join (compute + clip fused, the join untouched).
    """

    source: str
    fingerprint: str
    mode: str


class _Emitter:
    """Tiny indented line buffer."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")


#: Upper bound on the float64 output bytes one ufunc chain computes: a
#: batch runs in slices of at most this many bytes (views, no copy), so
#: the chain's temporaries stay in cache; a tile above half of it is a
#: slice of one.  Chosen by the tile 4 → 200 sweep recorded in
#: docs/INTERNALS.md "Kernel fusion"; not an option.
_CHUNK_BYTES = 1 << 17


def _tuple_source(items: Sequence[str]) -> str:
    """``items`` as the source of a tuple display (or unpacking target)."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def generate_fused_kernel(
    setup: Any,
    out_classes: Sequence[int],
    builder: str,
    args: tuple,
) -> FusedKernel:
    """Emit the per-partition source for one preserve-tiling query.

    The generated function has one body over batches: a
    :class:`~repro.engine.batch.TileBatch` partition is one batch as it
    is, a record list is grouped by operand dtype and shape
    (:func:`~repro.engine.batch.tile_groups`).  Per batch, the drop and
    trim tests are array comparisons on the coordinates, and the
    head's statements run once per slice of at most
    :data:`_CHUNK_BYTES`.  A batch with nothing dropped or trimmed comes
    back as a batch over the new values; anything else as records, the
    slices' per-tile views, in input record order.

    Raises :class:`KernelUnsupported` when any piece of the chain has no
    source form — rule 5.1 then does not apply to that query.
    """
    info = setup.info
    gens = setup.gens
    n = setup.tile_size
    if builder == "tiled":
        declared = (int(args[0]), int(args[1]))
    elif builder == "tiled_vector":
        declared = (int(args[0]),)
    else:
        raise KernelUnsupported(f"builder {builder!r}")
    if len(declared) != len(out_classes):
        raise KernelUnsupported("output rank mismatch")

    position = {cls: pos for pos, cls in enumerate(out_classes)}
    identity = list(range(len(out_classes)))
    rank = len(identity)
    dims = [setup.class_dim[cls] for cls in out_classes]
    axis_maps = [
        [position[cls] for cls in gen.axis_classes] for gen in gens
    ]

    used = free_vars(info.head_value)
    for guard in info.residual_guards:
        used |= free_vars(guard)
    used_index_vars = sorted(
        var for var, cls in setup.classes.items()
        if var in used and cls in position
    )
    needs_grids = bool(used_index_vars) or any(
        axis_map != identity for axis_map in axis_maps
    )

    # Variable spellings inside the generated scope.  Constants are
    # embedded as literals (``literal_source`` round-trips the scalar
    # types ``const_env`` holds exactly), so the fingerprint
    # distinguishes kernels closed over different constants; tile-local
    # bindings shadow constants, as in the reference interpreter.
    names: dict[str, str] = {
        name: literal_source(value)
        for name, value in setup.const_env.items()
    }
    for slot, var in enumerate(used_index_vars):
        names[var] = f"_ix{slot}"
    operands: list[int] = []
    for k, gen in enumerate(gens):
        if gen.value_var is not None and gen.value_var in used:
            names[gen.value_var] = f"_v{k}"
            operands.append(k)

    value_src = emit_vectorized_source(info.head_value, names)
    mask_srcs = [
        emit_vectorized_source(guard, names)
        for guard in info.residual_guards
    ]

    mode = "tiles" if len(gens) == 1 else "joined"
    if mode == "tiles":
        # Output coordinate = projection of the tile coordinate; a
        # repeated class (e.g. an ``i == j`` diagonal) must agree on
        # both axes or the tile contributes nothing.
        first_axis: dict[int, int] = {}
        conflicts: list[tuple[int, int]] = []
        for axis, cls in enumerate(gens[0].axis_classes):
            pos = position[cls]
            if pos in first_axis:
                conflicts.append((axis, first_axis[pos]))
            else:
                first_axis[pos] = axis
        if set(first_axis) != set(identity):
            raise KernelUnsupported("output dimension not bound by the scan")
        columns = [first_axis[pos] for pos in identity]
    else:
        conflicts = []
        columns = identity
    # Only a matrix chain over one scan can hand its input batch on.
    batch_out = mode == "tiles" and builder == "tiled"

    # A tile whose block coordinate reaches ceil(declared / n) on the
    # output axis its column feeds lies wholly outside the declared
    # output: dropped either way, so its compute is skipped.  Only a
    # declared extent short of the traversed one has such tiles.
    outside = any(declared[pos] < dims[pos] for pos in identity)
    row_tests, any_tests = [], []
    if outside:
        row_tests.append("(_c >= _LIMITS).any(axis=1)")
        any_tests.append("(_c >= _LIMITS).any()")
    for axis, first in conflicts:
        row_tests.append(f"(_c[:, {axis}] != _c[:, {first}])")
        any_tests.append(f"{row_tests[-1]}.any()")

    out = _Emitter()
    if outside:
        feeds = (
            [position[cls] for cls in gens[0].axis_classes]
            if mode == "tiles" else identity
        )
        limits = [str(-(-declared[pos] // n)) for pos in feeds]
        out.emit(f"_LIMITS = np.array({_tuple_source(limits)})")
        out.emit("")
        out.emit("")
    out.emit("def _fused_partition(_part):")
    out.depth += 1
    out.emit(
        f"_groups = _tile_groups(_part, {_tuple_source([str(k) for k in operands])}"
        f"{', True' if mode == 'joined' else ''})"
    )
    if batch_out:
        out.emit("_batched = type(_part) is _TileBatch")
    out.emit("_pieces = []")
    out.emit("for _rows, _c, _vs in _groups:")
    out.depth += 1
    if row_tests:
        out.emit(f"if {' or '.join(any_tests)}:")
        out.depth += 1
        if batch_out:
            out.emit("_batched = False")
        out.emit(f"_keep = np.flatnonzero(~({' | '.join(row_tests)}))")
        out.emit("if not len(_keep):")
        out.emit("    continue")
        out.emit("_rows = _keep if _rows is None else _rows[_keep]")
        out.emit("_c = _c[_keep]")
        out.emit("_vs = [_v[_keep] for _v in _vs]")
        out.depth -= 1
    for pos in identity:
        out.emit(f"_k{pos} = _c[:, {columns[pos]}]")

    # The statements evaluate at the traversed extent: ``n`` short of
    # the last block of the traversed dimension (a group's tiles agree
    # on it: they share their shapes).
    extent = []
    for pos in identity:
        if dims[pos] % n:
            out.emit(f"_e{pos} = min({n}, {dims[pos]} - int(_k{pos}[0]) * {n})")
            extent.append(f"_e{pos}")
        else:
            extent.append(str(n))
    # Trimming to the declared output happens after, like
    # ``_result_storage``: only the block the declared dimension ends
    # inside is cut, to what is left of it.
    cuts = [
        pos for pos in identity
        if declared[pos] < dims[pos] and declared[pos] % n
    ]
    for pos in cuts:
        out.emit(
            f"_cut{pos} = np.flatnonzero(_k{pos} == {declared[pos] // n}).tolist()"
        )
    if cuts and batch_out:
        out.emit(f"if {' or '.join(f'_cut{pos}' for pos in cuts)}:")
        out.emit("    _batched = False")
    if needs_grids:
        for pos in identity:
            grid = f"np.arange({extent[pos]})"
            if rank > 1:
                spread = ", ".join("-1" if p == pos else "1" for p in identity)
                grid += f".reshape({spread})"
            out.emit(f"_l{pos} = {grid}")

    # -- One ufunc chain per slice of at most _CHUNK_BYTES ----------------
    out.emit("_t = len(_k0)")
    out.emit(f"_per = {_CHUNK_BYTES} // (8 * {' * '.join(extent)}) or 1")
    out.emit("_vals = []")
    out.emit("for _lo in range(0, _t, _per):")
    out.depth += 1
    out.emit("_hi = _lo + _per")
    out.emit("_b = min(_per, _t - _lo)")
    out.emit(f"_shape = (_b, {', '.join(extent)})")
    ones = ", 1" * rank
    for slot, var in enumerate(used_index_vars):
        pos = position[setup.classes[var]]
        out.emit(
            f"_ix{slot} = _l{pos} + _k{pos}[_lo:_hi].reshape(_b{ones}) * {n}"
        )
    for column, k in enumerate(operands):
        if axis_maps[k] == identity:
            out.emit(f"_v{k} = _vs[{column}][_lo:_hi]")
        else:
            index = ", ".join(f"_l{dim}" for dim in axis_maps[k])
            out.emit(f"_v{k} = _vs[{column}][_lo:_hi][:, {index}]")
    out.emit(f"_val = np.asarray({value_src}, dtype=np.float64)")
    out.emit("if _val.shape != _shape:")
    out.emit("    _val = np.broadcast_to(_val, _shape).copy()")
    if mask_srcs:
        out.emit("_mask = np.ones(_shape, dtype=bool)")
        for mask_src in mask_srcs:
            out.emit(f"_mask &= np.asarray({mask_src}, dtype=bool)")
        out.emit("_val = np.where(_mask, _val, 0.0)")
    out.emit("_vals.append(_val)")
    out.depth -= 1

    # -- Output: the batch itself, or records in input order --------------
    if batch_out:
        coords = "_c" if columns == identity else "np.stack((_k0, _k1), axis=1)"
        out.emit("if _batched:")
        out.emit(
            f"    return _TileBatch({coords}, "
            "_vals[0] if len(_vals) == 1 else np.concatenate(_vals))"
        )
    if builder == "tiled_vector":
        out.emit("_keys = _k0.tolist()")  # TiledVector blocks: a bare int key
    else:
        out.emit("_keys = list(zip(_k0.tolist(), _k1.tolist()))")
    out.emit("_tiles = [_tile for _val in _vals for _tile in _val]")
    for pos in cuts:
        index = ", ".join([":"] * pos + [f":{declared[pos] % n}"])
        out.emit(f"for _i in _cut{pos}:")
        out.emit(f"    _tiles[_i] = _tiles[_i][{index}]")
    out.emit("_pieces.append((_rows, list(zip(_keys, _tiles))))")
    out.depth -= 1
    out.emit("return _in_order(_pieces)")

    source = "\n".join(out.lines) + "\n"
    fingerprint = hashlib.sha1(source.encode()).hexdigest()[:16]
    return FusedKernel(source=source, fingerprint=fingerprint, mode=mode)


# ----------------------------------------------------------------------
# Bounded kernel cache
# ----------------------------------------------------------------------


class KernelCache:
    """Compile each fused source once per fingerprint, LRU-bounded.

    The bound, the counters and the lock are the substrate's
    :class:`~repro.engine.substrate.LruCache`; compilation happens
    outside its lock (a racing double compile of the same fingerprint
    is harmless and keeps lookups from serializing behind ``exec``).
    Hit/miss lookups are mirrored into the engine's metrics when a
    registry is passed, so ``--metrics`` and the benchmark harness can
    report kernel-cache behavior.
    """

    def __init__(self, maxsize: int = 128):
        self._cache = LruCache(maxsize)

    def get(
        self,
        fingerprint: str,
        source: str,
        metrics: Optional[Any] = None,
    ) -> Callable:
        fn = self._cache.get(fingerprint)
        if fn is not None:
            if metrics is not None:
                metrics.record_kernel_cache_hit()
            return fn
        namespace: dict[str, Any] = {
            "np": np, "_div": _div, "_TileBatch": TileBatch,
            "_tile_groups": tile_groups, "_in_order": in_input_order,
        }
        code = compile(source, f"<sac-fused:{fingerprint}>", "exec")
        exec(code, namespace)
        fn = namespace["_fused_partition"]
        self._cache.put(fingerprint, fn)
        if metrics is not None:
            metrics.record_kernel_cache_miss()
        return fn

    def stats(self) -> dict[str, int]:
        return self._cache.stats()


#: Process-wide cache: fused sources are pure functions of the plan, so
#: sessions share compilations (fingerprints embed every constant).
KERNEL_CACHE = KernelCache()


def get_fused_kernel(
    fingerprint: str, source: str, metrics: Optional[Any] = None
) -> Callable:
    """The per-partition callable for one fused chain, cached."""
    return KERNEL_CACHE.get(fingerprint, source, metrics)


# ----------------------------------------------------------------------
# Compilation reports
# ----------------------------------------------------------------------


def explain(
    plan: Plan,
    original: Optional[Expr] = None,
    normalized: Optional[Expr] = None,
) -> str:
    """Render a full compilation report for one query."""
    sections = []
    if original is not None:
        sections.append("query:\n  " + to_source(original))
    # Compare *rendered* source, not AST equality: normalization
    # alpha-renames, so a tree can differ by ``==`` while printing the
    # very same text — repeating it would be noise.
    if normalized is not None and (
        original is None or to_source(normalized) != to_source(original)
    ):
        sections.append("normalized:\n  " + to_source(normalized))
    sections.append(plan.explain())
    return "\n".join(sections)
