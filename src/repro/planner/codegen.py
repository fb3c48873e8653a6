"""Code generation: fused batched tile kernels and human-readable reports.

The paper's system emits Scala source at compile time; this module is
the Python analogue, in two parts:

* :func:`generate_fused_kernel` — turns one preserve-tiling chain
  (MapTiles / Filter over scans) into the *source text* of a single
  per-partition NumPy function.  The text reproduces, statement for
  statement, what :func:`repro.planner.lower._lower_map_tiles` and
  ``_result_storage`` do across five or six Python-level RDD hops —
  coordinate projection, index grids, tile realignment, the vectorized
  head value, guard masks, and boundary clipping — but on a leading
  batch axis: a partition's same-shaped tiles are stacked and every
  statement runs once per stack, not once per tile.  Elementwise ufuncs
  are exact per element however the elements are batched, so a fused
  run is bit-identical to the interpreted chain.  Expressions render
  through :func:`repro.planner.kernels.emit_vectorized_source`, the
  same text ``compile_vectorized`` compiles for the interpreter chain.

* :func:`explain` — the inspectable compilation report ``SacSession``
  exposes to users.

Generated sources are fingerprinted (sha1 of the text) and compiled at
most once per fingerprint through the bounded :class:`KernelCache`;
lookups report hit/miss counters into the engine's
:class:`~repro.engine.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, free_vars, to_source
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
    """Tiny indented line buffer (the ``local_codegen`` idiom)."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")


#: Upper bound on the float64 output bytes one stacked chunk computes.
#: Up to it a partition's same-shaped tiles are copied into one
#: ``(B, h, w)`` array and the ufunc chain runs once; a tile above half
#: of it is a chunk of one (``tile[None]``, no copy), where the per-call
#: overhead is already negligible and a stack would only double memory.
#: Chosen by the tile 4 → 200 sweep recorded in docs/INTERNALS.md
#: "Kernel fusion"; not an option.
_CHUNK_BYTES = 1 << 17


def _tuple_source(items: Sequence[str]) -> str:
    """``items`` as the source of a tuple display (or unpacking target)."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _stack(tiles: Sequence[np.ndarray]) -> np.ndarray:
    """Same-shaped tiles as one array with a leading batch axis."""
    if len(tiles) == 1:
        return tiles[0][None]
    return np.concatenate(tiles).reshape((len(tiles),) + tiles[0].shape)


def generate_fused_kernel(
    setup: Any,
    out_classes: Sequence[int],
    builder: str,
    args: tuple,
) -> FusedKernel:
    """Emit the per-partition source for one preserve-tiling chain.

    The generated function makes two passes over a partition.  The
    first groups the records by ``(operand dtype, operand shape,
    trimmed output extent)`` — integer arithmetic on the coordinates
    only — so a group's members agree on every shape the statements
    see.  The second stacks each group, in chunks of at most
    :data:`_CHUNK_BYTES`, onto a leading batch axis and runs the
    interpreter's statements once per chunk; the output records are the
    chunk's per-tile views, in input record order.

    Raises :class:`KernelUnsupported` when any piece of the chain has no
    source form — the caller (the ``fusion`` pass) then leaves the
    interpreter chain in place for exactly that query.
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
    index_positions = sorted(
        {position[setup.classes[var]] for var in used_index_vars}
    )
    needs_grids = bool(used_index_vars) or any(
        axis_map != identity for axis_map in axis_maps
    )

    # Variable spellings inside the generated scope.  Constants are
    # embedded as literals (``literal_source`` round-trips the scalar
    # types ``const_env`` holds exactly), so the fingerprint
    # distinguishes kernels closed over different constants; tile-local
    # bindings shadow constants exactly as the interpreter's env merge
    # does.
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
    out = _Emitter()
    out.emit("def _fused_partition(_part):")
    out.depth += 1
    out.emit("_groups = {}")
    out.emit("_count = 0")

    # -- Pass 1: one record at a time, coordinates only -----------------
    if mode == "tiles":
        gen = gens[0]
        # Output coordinate = projection of the tile coordinate; a
        # repeated class (e.g. an ``i == j`` diagonal) must agree on
        # both axes or the tile contributes nothing.
        first_axis: dict[int, int] = {}
        conflicts: list[tuple[int, int]] = []
        for axis, cls in enumerate(gen.axis_classes):
            pos = position[cls]
            if pos in first_axis:
                conflicts.append((axis, first_axis[pos]))
            else:
                first_axis[pos] = axis
        if set(first_axis) != set(identity):
            raise KernelUnsupported("output dimension not bound by the scan")
        out.emit("for _coords, _t0 in _part:")
        out.depth += 1
        for axis, first in conflicts:
            out.emit(f"if _coords[{axis}] != _coords[{first}]:")
            out.emit("    continue")
        for pos in identity:
            out.emit(f"_k{pos} = _coords[{first_axis[pos]}]")
    else:
        out.emit("for _oc, _tiles in _part:")
        out.depth += 1
        for pos in identity:
            out.emit(f"_k{pos} = _oc[{pos}]")
        for k in operands:
            out.emit(f"_t{k} = _tiles[{k}]")

    # Tiles wholly outside the declared output are dropped either way;
    # skipping their compute changes nothing observable.
    drop = " or ".join(
        f"_k{pos} * {n} >= {declared[pos]}" for pos in identity
    )
    out.emit(f"if {drop}:")
    out.emit("    continue")
    for k in operands:
        out.emit(f"if type(_t{k}) is not _ndarray:")
        out.emit(f"    _t{k} = np.asarray(_t{k})")
    # The output tile's trimmed extent along each axis: ``n`` for every
    # block short of the last full one, else what is left of the
    # smaller of the traversed and the declared dimension.
    key_parts = [f"_t{k}.dtype, _t{k}.shape" for k in operands]
    for pos in identity:
        limit = min(dims[pos], declared[pos])
        key_parts.append(
            f"{n} if _k{pos} < {limit // n} else {limit} - _k{pos} * {n}"
        )
    out.emit(f"_key = {_tuple_source(key_parts)}")
    out.emit("_group = _groups.get(_key)")
    out.emit("if _group is None:")
    out.emit("    _group = _groups[_key] = []")
    if builder == "tiled_vector":
        out_key = "_k0"  # TiledVector blocks are keyed by a bare int
    elif mode == "joined":
        out_key = "_oc"
    else:
        out_key = _tuple_source([f"_k{pos}" for pos in identity])
    # Column layout of a group member; pass 2 reads columns by number.
    fields = ["_count", out_key]
    coord_col = {pos: len(fields) + c for c, pos in enumerate(index_positions)}
    fields += [f"_k{pos}" for pos in index_positions]
    tile_col = {k: len(fields) + c for c, k in enumerate(operands)}
    fields += [f"_t{k}" for k in operands]
    out.emit(f"_group.append(({', '.join(fields)}))")
    out.emit("_count += 1")
    out.depth -= 1

    # -- Pass 2: one ufunc chain per stacked chunk ------------------------
    out.emit("_order = []")
    out.emit("_records = []")
    key_names = [f"_d{k}, _s{k}" for k in operands]
    key_names += [f"_h{pos}" for pos in identity]
    out.emit(f"for {_tuple_source(key_names)}, _group in _groups.items():")
    out.depth += 1
    # The kernels evaluate at the traversed extent (input dimensions),
    # exactly like ``_tile_shape``; trimming to the declared output
    # happens after, like ``_result_storage``.
    slack = [max(0, dims[pos] - declared[pos]) for pos in identity]
    extent = [f"_h{pos}" for pos in identity]
    for pos in identity:
        if slack[pos]:
            out.emit(f"_e{pos} = min({n}, _h{pos} + {slack[pos]})")
            extent[pos] = f"_e{pos}"
    if needs_grids:
        for pos in identity:
            grid = f"np.arange({extent[pos]})"
            if rank > 1:
                spread = ", ".join("-1" if p == pos else "1" for p in identity)
                grid += f".reshape({spread})"
            out.emit(f"_l{pos} = {grid}")
    out.emit(f"_per = {_CHUNK_BYTES} // (8 * {' * '.join(extent)}) or 1")
    out.emit("for _lo in range(0, len(_group), _per):")
    out.depth += 1
    out.emit("_cols = list(zip(*_group[_lo:_lo + _per]))")
    out.emit("_b = len(_cols[0])")
    out.emit(f"_shape = (_b, {', '.join(extent)})")
    ones = ", 1" * rank
    for slot, var in enumerate(used_index_vars):
        pos = position[setup.classes[var]]
        out.emit(
            f"_ix{slot} = _l{pos} + "
            f"np.array(_cols[{coord_col[pos]}]).reshape(_b{ones}) * {n}"
        )
    for k in operands:
        stacked = f"_stack(_cols[{tile_col[k]}])"
        if axis_maps[k] == identity:
            out.emit(f"_v{k} = {stacked}")
        else:
            index = ", ".join(f"_l{dim}" for dim in axis_maps[k])
            out.emit(f"_v{k} = {stacked}[:, {index}]")

    out.emit(f"_val = np.asarray({value_src}, dtype=np.float64)")
    out.emit("if _val.shape != _shape:")
    out.emit("    _val = np.broadcast_to(_val, _shape).copy()")
    if mask_srcs:
        out.emit("_keep = np.ones(_shape, dtype=bool)")
        for mask_src in mask_srcs:
            out.emit(f"_keep &= np.asarray({mask_src}, dtype=bool)")
        out.emit("_val = np.where(_keep, _val, 0.0)")
    if any(slack):
        bounds = ", ".join(f"_h{pos}" for pos in identity)
        out.emit(f"if (_b, {bounds}) != _shape:")
        slices = ", ".join(f":_h{pos}" for pos in identity)
        out.emit(f"    _val = _val[:, {slices}]")
    out.emit("_order.extend(_cols[0])")
    out.emit("_records.extend(zip(_cols[1], _val))")
    out.depth -= 2
    # Groups interleave in the input, so put the records back in input
    # order (a single group is already in it).
    out.emit("if len(_groups) > 1:")
    out.emit("    _out = [None] * _count")
    out.emit("    for _i, _record in zip(_order, _records):")
    out.emit("        _out[_i] = _record")
    out.emit("    return _out")
    out.emit("return _records")

    source = "\n".join(out.lines) + "\n"
    fingerprint = hashlib.sha1(source.encode()).hexdigest()[:16]
    return FusedKernel(source=source, fingerprint=fingerprint, mode=mode)


# ----------------------------------------------------------------------
# Bounded kernel cache
# ----------------------------------------------------------------------


class KernelCache:
    """Compile each fused source once per fingerprint, LRU-bounded.

    Thread-safe; compilation happens outside the lock (a racing double
    compile of the same fingerprint is harmless and keeps lookups from
    serializing behind ``exec``).  Hit/miss lookups are mirrored into
    the engine's metrics when a registry is passed, so ``--metrics``
    and the benchmark harness can report kernel-cache behavior.
    """

    def __init__(self, maxsize: int = 128):
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Callable]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        fingerprint: str,
        source: str,
        metrics: Optional[Any] = None,
    ) -> Callable:
        with self._lock:
            fn = self._entries.get(fingerprint)
            if fn is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                if metrics is not None:
                    metrics.record_kernel_cache_hit()
                return fn
        namespace: dict[str, Any] = {
            "np": np, "_div": _div, "_ndarray": np.ndarray, "_stack": _stack,
        }
        code = compile(source, f"<sac-fused:{fingerprint}>", "exec")
        exec(code, namespace)
        fn = namespace["_fused_partition"]
        with self._lock:
            self.misses += 1
            self._entries[fingerprint] = fn
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        if metrics is not None:
            metrics.record_kernel_cache_miss()
        return fn

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


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
