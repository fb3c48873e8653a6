"""The two-level plan IR: explicit operator DAGs between AST and RDDs.

The planner used to decide *and* build in one motion: each translation
rule returned an executable closure, so the chosen plan could never be
inspected, compared, snapshot-tested, or rewritten after the fact.  This
module gives every plan an explicit shape instead:

* a **logical** DAG describes what the comprehension computes (scans,
  filters, a group-by or a head map) independent of any strategy;
* a **physical** DAG describes how the chosen rule executes it
  (tile replication, broadcast, SUMMA cogroup, coordinate fallback),
  annotated with tiling classes, :class:`~repro.storage.stats.DensityStats`,
  partitioner facts, and the cost model's estimates.

Nodes are records — ``op`` + children + annotations, plus, on the
physical level, the typed fields their lowerer executes (one
:class:`IRNode` subclass per operator that owns code) — so passes
(:mod:`repro.planner.passes`) can rewrite them and the single lowering
site (:mod:`repro.planner.lower`) turns each node, applied to its
lowered children, into its piece of the RDD program.
:meth:`IRNode.identity_fingerprint` hashes the semantic signatures
(``sig``) together with the identity of the storages a plan reads
(``identity``), so two plans share a fingerprint only when re-executing
one would read the very same distributed data — the key common-subplan
reuse is allowed to use.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine import RDD
    from ..storage.stats import DensityStats
    from .analysis import CompInfo
    from .codegen import FusedKernel
    from .groupby_join import GbjMatch
    from .tiling import ResolvedGen, TiledSetup

#: Operator vocabulary.  Logical and physical trees draw from the same
#: set; ``level`` tells them apart.
OP_SCAN = "Scan"
OP_MAP_TILES = "MapTiles"
OP_FUSED_KERNEL = "FusedKernel"
OP_FILTER = "Filter"
OP_GROUP_BY = "GroupBy"
OP_GROUP_BY_JOIN = "GroupByJoin"
OP_TILED_REDUCE = "TiledReduce"
OP_REPLICATE = "Replicate"
OP_BROADCAST = "Broadcast"
OP_ASSEMBLE = "Assemble"
OP_COORDINATE = "Coordinate"
OP_REDUCE = "Reduce"
OP_COLLECT = "Collect"

LOGICAL = "logical"
PHYSICAL = "physical"


@dataclass(eq=False)
class IRNode:
    """One operator in a plan DAG.

    ``sig`` carries the node's *semantic* signature (hashable, repr-
    stable values only); ``identity`` carries runtime object identities
    (storage ``id()``s) that distinguish structurally equal plans over
    different data.  ``attrs`` is free-form annotation space — tiling
    classes, density stats, cost estimates — that nothing executes;
    what is executed lives in the typed fields of the subclasses below.
    """

    op: str
    level: str = PHYSICAL
    children: tuple["IRNode", ...] = ()
    sig: tuple = ()
    identity: tuple = ()
    attrs: dict[str, Any] = field(default_factory=dict)
    label: str = ""
    #: Memoized :meth:`render` string; anything that rewrites
    #: ``children`` (only :func:`dedupe_dag` today) must reset it.
    _render_memo: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------

    def walk(self) -> Iterator["IRNode"]:
        """Pre-order walk, visiting each shared (CSE'd) node once."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children))

    def render(self) -> str:
        """Compact single-line rendering, e.g. ``Assemble(GroupByJoin(...))``.

        Deterministic across runs (no object ids); shared subtrees are
        rendered once and referenced as ``&N`` afterwards so CSE merges
        show up in pass traces.
        """
        if self._render_memo is not None:
            return self._render_memo
        counts: dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            counts[id(node)] = counts.get(id(node), 0) + 1
            if counts[id(node)] == 1:
                stack.extend(node.children)
        shared: dict[int, int] = {}

        def go(node: "IRNode") -> str:
            if id(node) in shared:
                return f"&{shared[id(node)]}"
            if counts[id(node)] > 1:
                shared[id(node)] = len(shared) + 1
                prefix = f"&{shared[id(node)]}="
            else:
                prefix = ""
            head = node.op if not node.label else f"{node.op}[{node.label}]"
            if not node.children:
                return prefix + head
            inner = ", ".join(go(child) for child in node.children)
            return f"{prefix}{head}({inner})"

        self._render_memo = go(self)
        return self._render_memo

    def identity_fingerprint(self) -> str:
        """Hash of shape + the identities of the storages read.

        Only equal for plans that would re-read the very same storage
        objects — the precondition for reusing a lowered subplan (and
        its shuffle outputs) instead of rebuilding it.
        """
        return _digest(self._canonical())

    def _canonical(self) -> tuple:
        return (
            self.op,
            self.level,
            self.label,
            repr(self.sig),
            repr(self.identity),
            tuple(child._canonical() for child in self.children),
        )

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe export of the DAG (shared nodes become ``ref``s)."""
        seen: dict[int, str] = {}

        def go(node: "IRNode") -> dict[str, Any]:
            key = seen.get(id(node))
            if key is not None:
                return {"ref": key}
            seen[id(node)] = key = f"n{len(seen)}"
            out: dict[str, Any] = {"id": key, "op": node.op, "level": node.level}
            if node.label:
                out["label"] = node.label
            if node.sig:
                out["sig"] = [_json_safe(part) for part in node.sig]
            annotations = {
                name: _json_safe(value)
                for name, value in sorted(node.attrs.items())
                if name in _EXPORTED_ATTRS
            }
            if annotations:
                out["attrs"] = annotations
            if node.children:
                out["children"] = [go(child) for child in node.children]
            return out

        return go(self)


#: Node attributes worth exporting in ``to_dict`` (the rest are
#: driver-side annotations: descriptions, estimates, pass marks).
_EXPORTED_ATTRS = {
    "rule", "strategy", "storage", "dims", "classes", "partitioner",
    "stats", "tile_size", "monoid", "builder", "cse", "cse_merged",
    "adaptive_install", "record_estimate", "reusable", "sparse",
    "fingerprint", "fused_ops",
}


def _digest(payload: Any) -> str:
    return hashlib.sha1(repr(payload).encode()).hexdigest()[:16]


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(part) for part in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


# ----------------------------------------------------------------------
# Physical operators: the typed fields each node's lowerer executes
# ----------------------------------------------------------------------


@dataclass(eq=False, kw_only=True)
class ScanNode(IRNode):
    """Leaf: ``records()`` is the generator's tile-record RDD — under
    ``Coordinate``, its :class:`~repro.planner.rdd_rules.ElementSource`
    of column batches; logical scans carry none."""

    op: str = OP_SCAN
    records: Optional[Callable[[], Any]] = None


@dataclass(eq=False, kw_only=True)
class FusedKernelNode(IRNode):
    """5.1: the tile join on the output coordinate + one generated
    per-partition kernel (head value, guard masks, clipping)."""

    op: str = OP_FUSED_KERNEL
    kernel: FusedKernel
    setup: TiledSetup
    out_classes: Sequence[int]


@dataclass(eq=False, kw_only=True)
class ReplicateNode(IRNode):
    """flatMap each tile to the ``(destination, …)`` records ``fan_out``
    lists: I_f(K) in 5.2, the cells of a row or column band in 5.4."""

    op: str = OP_REPLICATE
    fan_out: Callable[[tuple], list]


@dataclass(eq=False, kw_only=True)
class GroupByNode(IRNode):
    """5.2: groupByKey + the masked scatter into destination tiles."""

    op: str = OP_GROUP_BY
    assemble: Callable[[tuple], tuple]


@dataclass(eq=False, kw_only=True)
class TiledReduceNode(IRNode):
    """5.3: tile join, ``compute`` per joined tuple, reduceByKey(``fold``
    = ⊗′), ``finish`` (the residual f′) per key."""

    op: str = OP_TILED_REDUCE
    setup: TiledSetup
    out_classes: Sequence[int]
    compute: Callable[[dict, tuple], tuple]
    fold: Callable[[tuple, tuple], tuple]
    finish: Callable[[tuple, tuple], Any]


@dataclass(eq=False, kw_only=True)
class BroadcastNode(IRNode):
    """5.4: collect the small side, keyed by its join coordinate."""

    op: str = OP_BROADCAST
    join_axis: int
    key_axis: int


@dataclass(eq=False, kw_only=True)
class GroupByJoinNode(IRNode):
    """5.4: SUMMA cogroup of two bands replicated to the cells of the
    ``grid`` processor grid (``side is None``), or the large side
    streamed past the broadcast ``side``."""

    op: str = OP_GROUP_BY_JOIN
    match: GbjMatch
    side: Optional[str] = None
    reduce_partitions: Optional[int] = None
    grid: Optional[tuple[int, int]] = None


@dataclass(eq=False, kw_only=True)
class AssembleNode(IRNode):
    """Root of every tiled rule: clip the tile RDD into the builder."""

    op: str = OP_ASSEMBLE
    tile_size: int
    builder: str
    args: tuple
    out_stats: Optional[DensityStats]


@dataclass(eq=False, kw_only=True)
class CoordinateNode(IRNode):
    """Section 4 over element records, one column batch per partition.
    ``join_order``: per folded generator, its index and the (joined-side,
    own-side) key expressions — no keys means a cartesian product;
    ``width``: the shuffle width, chosen when the node is lowered."""

    op: str = OP_COORDINATE
    info: CompInfo
    builder: Optional[str]
    args: tuple
    join_order: Sequence[tuple[int, list, list]]
    width: Optional[int] = None


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------


def partitioner_signature(partitioner: Any) -> Any:
    """Repr-stable description of a partitioner for node signatures."""
    if partitioner is None:
        return None
    return (type(partitioner).__name__,) + tuple(
        sorted((k, repr(v)) for k, v in vars(partitioner).items())
    )


def scan_storage_node(
    name: str, storage: Any, level: str = PHYSICAL
) -> ScanNode:
    """A ``Scan`` leaf over one named environment binding.

    Captures the storage's class, dimensions, tile partitioning, and
    density statistics in the signature (they steer plan choice), and
    the storage's object identity in ``identity`` (it gates reuse).
    """
    sig: tuple = (type(storage).__name__,)
    attrs: dict[str, Any] = {"storage": type(storage).__name__}
    for attr in ("rows", "cols", "length", "tile_size"):
        dim = getattr(storage, attr, None)
        if isinstance(dim, int):
            sig += ((attr, dim),)
    tiles = getattr(storage, "tiles", None)
    if tiles is None:
        tiles = getattr(storage, "blocks", None)
    if tiles is not None and hasattr(tiles, "num_partitions"):
        part_sig = partitioner_signature(tiles.partitioner)
        sig += (("partitions", tiles.num_partitions), ("partitioner", part_sig))
        attrs["partitioner"] = part_sig
    stats = getattr(storage, "stats", None)
    if stats is not None:
        density = getattr(stats, "density", None)
        block_density = getattr(stats, "block_density", None)
        if density is not None:
            sig += (("density", density, block_density),)
            attrs["stats"] = str(stats)
    return ScanNode(
        level=level,
        sig=sig,
        identity=(id(storage),),
        attrs=attrs,
        label=name,
    )


def scan_gen_node(gen: ResolvedGen, level: str = PHYSICAL) -> ScanNode:
    """A ``Scan`` leaf for one resolved tiled generator.

    The node owns ``gen``'s tile records (what lowering reads); its axis
    classes and dimensions are also recorded as node attributes so the
    tree carries the tiling facts the rules decided with.
    """
    name = "?"
    if gen.index_vars:
        name = ",".join(gen.index_vars)
    node = scan_storage_node(name, gen.storage, level=level)
    node.records = gen.tile_records
    node.sig += (
        ("axes", tuple(gen.axis_classes)),
        ("dims", tuple(gen.axis_dims)),
        ("sparse", gen.sparse),
        ("stats", gen.stats.density, gen.stats.block_density),
    )
    node.attrs["classes"] = tuple(gen.axis_classes)
    node.attrs["dims"] = tuple(gen.axis_dims)
    node.attrs["sparse"] = gen.sparse
    node.attrs["stats"] = str(gen.stats)
    return node


@dataclass
class PassTraceEntry:
    """One pass's before/after record, kept on the finished plan."""

    name: str
    note: str = ""
    changed: bool = False
    before: str = ""
    after: str = ""

    def summary(self) -> str:
        text = f"{self.name}: {self.note or 'no change'}"
        return text + (" [rewrote plan]" if self.changed else "")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def dedupe_dag(root: IRNode) -> tuple[IRNode, int]:
    """Merge structurally *and* identity-equal subtrees into shared nodes.

    Returns the (possibly rewritten) root and the number of subtree
    occurrences that now reference a previously seen node.  Only safe
    when equal fingerprints mean "reads the same storages", which
    :meth:`IRNode.identity_fingerprint` guarantees.
    """
    canon: dict[str, IRNode] = {}
    merged = 0

    def go(node: IRNode) -> IRNode:
        nonlocal merged
        node.children = tuple(go(child) for child in node.children)
        node._render_memo = None
        key = node.identity_fingerprint()
        kept = canon.get(key)
        if kept is None:
            canon[key] = node
            return node
        if kept is not node:
            merged += 1
        return kept

    return go(root), merged
