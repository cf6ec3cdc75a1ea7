"""R*-tree [Beckmann et al., SIGMOD 1990] built from scratch.

The multidimensional index of Section 5.1: embedded ``2d+1``-dimensional
gene points are inserted one by one with the full R* insertion algorithm --
least-overlap-enlargement subtree choice at the leaf level, forced
reinsertion of the 30% most distant entries on first overflow per level,
and the topological choose-axis / choose-index split otherwise.

After loading, :meth:`RStarTree.finalize` computes the ``V_f`` / ``V_d``
bit-vector signatures bottom-up (the paper's node-level bit-ORs). Each
node is one page; the :class:`~repro.index.pagemanager.PageManager`
records node reads so queries report I/O exactly as the paper does.

This is the reference implementation of the paper's build (Fig. 13 and
the bulk-load ablation time it); the engine itself packs its index with
:meth:`repro.index.arraystore.ArrayStore.pack`, and
:meth:`~repro.index.arraystore.ArrayStore.from_tree` compacts a finalized
tree into the same array layout.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import InternalError, ValidationError
from .arraystore import min_dist_many, min_fill
from .bitvector import signature
from .invertedfile import SOURCE_SALT
from .mbr import MBR
from .node import LeafEntry, Node
from .pagemanager import PageManager

__all__ = ["RStarTree"]

#: Fraction of entries removed on forced reinsert (the paper [1] uses 30%).
_REINSERT_FRACTION = 0.3


class RStarTree:
    """In-memory R*-tree over fixed-dimension points.

    Parameters
    ----------
    dim:
        Dimensionality of the indexed points (``2d+1`` for IM-GRN).
    max_entries:
        Node capacity ``M`` (page fan-out). ``m`` is ``0.4 * M`` per the
        R*-tree paper.
    pages:
        Page manager used for I/O accounting; a private one is created when
        omitted.
    bitvector_bits:
        Width ``B`` of the gene/source signatures computed by
        :meth:`finalize`.
    """

    def __init__(
        self,
        dim: int,
        max_entries: int = 16,
        pages: PageManager | None = None,
        bitvector_bits: int = 64,
    ):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        if max_entries < 4:
            raise ValidationError(f"max_entries must be >= 4, got {max_entries}")
        self.dim = dim
        self.max_entries = max_entries
        self.min_entries = min_fill(max_entries)
        self.pages = pages if pages is not None else PageManager()
        self.bitvector_bits = bitvector_bits
        self.root = self._new_node(level=0)
        self._size = 0
        self._finalized = False
        self._reinserted_levels: set[int] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        return self.root.level + 1

    def insert(
        self, point: np.ndarray, gene_id: int, source_id: int, payload: int
    ) -> None:
        """Insert one embedded point.

        Raises
        ------
        ValidationError
            If the point dimensionality is wrong, the point contains
            NaN/inf (a NaN coordinate fails every ``low <= point``
            comparison and would silently vanish from every search), or
            the tree was finalized.
        """
        if self._finalized:
            raise ValidationError("cannot insert into a finalized tree")
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"point shape {point.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(point)):
            raise ValidationError(
                f"point contains NaN/inf coordinates: {point.tolist()}"
            )
        entry = LeafEntry(point, gene_id, source_id, payload)
        self._reinserted_levels = set()
        self._insert_at_level(entry, level=0)
        self._size += 1

    def finalize(self) -> None:
        """Compute ``V_f`` / ``V_d`` signatures bottom-up and freeze the tree."""
        self._compute_signatures(self.root)
        self._finalized = True

    def delete(self, payload: int) -> bool:
        """Remove the leaf entry carrying ``payload``; returns found-ness.

        Implements the classic R-tree deletion with tree condensation:
        locate the leaf, remove the entry, and if the leaf (or any
        ancestor) underflows, dissolve it and re-insert its orphaned
        entries at their original level. The root is collapsed when it
        holds a single child.
        """
        found = self._find_leaf(self.root, payload)
        if found is None:
            return False
        leaf, entry = found
        leaf.entries.remove(entry)
        self._size -= 1
        self._condense(leaf)
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0]
            self.root.parent = None
        if self._finalized:
            # Signatures can only be stale-superset after a delete, which
            # is sound; recompute to keep them tight.
            self._compute_signatures(self.root)
        return True

    def _find_leaf(self, node: Node, payload: int):
        if node.is_leaf:
            for entry in node.entries:
                if entry.payload == payload:
                    return node, entry
            return None
        for child in node.entries:
            result = self._find_leaf(child, payload)
            if result is not None:
                return result
        return None

    def _condense(self, node: Node) -> None:
        """Dissolve underflowing nodes upward, re-inserting orphans."""
        orphans: list[tuple] = []  # (entry, container level)
        current = node
        while current is not self.root:
            parent = current.parent
            assert parent is not None
            if len(current.entries) < self.min_entries:
                parent.entries.remove(current)
                orphans.extend(
                    (entry, current.level) for entry in current.entries
                )
            current = parent
        self._refresh_all_mbrs(self.root)
        for entry, level in orphans:
            if isinstance(entry, Node):
                entry.parent = None
            self._reinserted_levels = set()
            self._insert_at_level(entry, level)

    def _refresh_all_mbrs(self, node: Node) -> None:
        if not node.is_leaf:
            for child in node.entries:
                self._refresh_all_mbrs(child)
        node.recompute_mbr()

    def search(self, box: MBR) -> list[LeafEntry]:
        """All leaf entries whose point lies inside ``box`` (test oracle).

        An empty tree (``root.mbr is None``) returns ``[]`` without
        charging any page access; finalization is not required (the
        search uses geometry only, never signatures). The per-node
        child/entry tests run as one whole-node NumPy comparison instead
        of a Python loop over children.
        """
        results: list[LeafEntry] = []
        if self.root.mbr is None:
            return results
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.pages.access(node.page_id)
            if not node.entries:
                continue
            if node.is_leaf:
                points = np.stack([entry.point for entry in node.entries])
                inside = np.all(points >= box.low, axis=1) & np.all(
                    points <= box.high, axis=1
                )
                results.extend(
                    node.entries[int(i)] for i in np.nonzero(inside)[0]
                )
            else:
                lows, highs = self._child_corners(node.entries)
                hits = np.all(lows <= box.high, axis=1) & np.all(
                    box.low <= highs, axis=1
                )
                stack.extend(node.entries[int(i)] for i in np.nonzero(hits)[0])
        return results

    def nearest(self, point: np.ndarray, k: int = 1) -> list[tuple[float, LeafEntry]]:
        """The ``k`` nearest leaf entries to ``point`` (best-first search).

        Classic Hjaltason/Samet incremental nearest-neighbor traversal:
        a priority queue ordered by MinDist expands nodes only when they
        could still contain a closer entry than the current k-th best.
        Returns ``(distance, entry)`` pairs sorted by distance. Page
        accesses are charged per expanded node.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"point shape {point.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(point)):
            raise ValidationError(
                f"query point contains NaN/inf coordinates: {point.tolist()}"
            )
        if self.root.mbr is None:
            return []
        import heapq
        import itertools as _it

        tie = _it.count()
        heap: list[tuple[float, int, object]] = [
            (self._min_dist(self.root.mbr, point), next(tie), self.root)
        ]
        results: list[tuple[float, LeafEntry]] = []
        while heap:
            dist, _t, item = heapq.heappop(heap)
            if len(results) >= k and dist > results[-1][0]:
                break
            if isinstance(item, LeafEntry):
                results.append((dist, item))
                results.sort(key=lambda pair: pair[0])
                del results[k:]
                continue
            node: Node = item  # type: ignore[assignment]
            self.pages.access(node.page_id)
            if node.is_leaf:
                for entry in node.entries:
                    delta = entry.point - point
                    heapq.heappush(
                        heap, (float(np.sqrt(delta @ delta)), next(tie), entry)
                    )
            else:
                # One vectorized MinDist call over all children; per-row
                # it performs the exact scalar ``_min_dist`` operations,
                # so heap ordering (and page accounting) is unchanged.
                lows, highs = self._child_corners(node.entries)
                dists = min_dist_many(lows, highs, point)
                for child, child_dist in zip(node.entries, dists):
                    heapq.heappush(heap, (float(child_dist), next(tie), child))
        return results

    @staticmethod
    def _min_dist(box: MBR, point: np.ndarray) -> float:
        """MinDist: smallest possible distance from ``point`` into ``box``."""
        clamped = np.clip(point, box.low, box.high)
        delta = clamped - point
        return float(np.sqrt(delta @ delta))

    def iter_entries(self) -> Iterator[LeafEntry]:
        """Iterate all leaf entries (no I/O accounting)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.entries)

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate all nodes, top-down (no I/O accounting)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.entries)

    def check_invariants(self) -> None:
        """Validate structural invariants; raises :class:`InternalError`.

        Checks: MBR containment, level consistency, fan-out bounds
        (except the root), parent pointers, and -- when finalized --
        signature containment.
        """
        self._check_node(self.root, is_root=True)

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> Node:
        return Node(level, self.pages.allocate())

    def _choose_subtree(self, target_level: int, box: MBR) -> Node:
        node = self.root
        while node.level > target_level:
            children: list[Node] = node.entries
            if node.level == target_level + 1 and target_level == 0:
                child = self._least_overlap_child(children, box)
            else:
                child = self._least_enlargement_child(children, box)
            node = child
        return node

    @staticmethod
    def _child_corners(children: list[Node]) -> tuple[np.ndarray, np.ndarray]:
        lows = np.stack([c.mbr.low for c in children])
        highs = np.stack([c.mbr.high for c in children])
        return lows, highs

    @classmethod
    def _least_enlargement_child(cls, children: list[Node], box: MBR) -> Node:
        """R* internal-level heuristic: minimize area enlargement.

        Extents are normalized by a shared per-axis scale before the
        ``2d+1``-way product: a raw product underflows to ``0.0`` for
        high-dim/degenerate boxes and collapses the ranking into
        arbitrary ties. Dividing every box by the same positive scale
        multiplies all areas (and enlargement differences) by one common
        constant, so the ordering is preserved while staying in a
        representable range. Remaining exact ties break on margin.
        """
        lows, highs = cls._child_corners(children)
        extents = highs - lows
        grown_extents = np.maximum(highs, box.high) - np.minimum(lows, box.low)
        scale = grown_extents.max(axis=0)
        scale[scale == 0.0] = 1.0
        areas = np.prod(extents / scale, axis=1)
        grown_areas = np.prod(grown_extents / scale, axis=1)
        enlargement = grown_areas - areas
        margins = extents.sum(axis=1)
        order = np.lexsort((margins, areas, enlargement))
        return children[int(order[0])]

    @classmethod
    def _least_overlap_child(cls, children: list[Node], box: MBR) -> Node:
        """R* leaf-level heuristic: minimize overlap enlargement.

        Vectorized: the F x F pairwise overlap matrices (before and after
        growing each child by ``box``) are computed with one broadcast.
        All extents are normalized by a shared per-axis scale first --
        see :meth:`_least_enlargement_child` for why (raw ``2d+1``-way
        products underflow to ``0.0``); ties break on margin.
        """
        lows, highs = cls._child_corners(children)
        grown_lows = np.minimum(lows, box.low)
        grown_highs = np.maximum(highs, box.high)
        scale = (grown_highs - grown_lows).max(axis=0)
        scale[scale == 0.0] = 1.0

        def pairwise_overlap(a_lows, a_highs):
            inter_low = np.maximum(a_lows[:, None, :], lows[None, :, :])
            inter_high = np.minimum(a_highs[:, None, :], highs[None, :, :])
            extents = np.clip(inter_high - inter_low, 0.0, None)
            return np.prod(extents / scale, axis=2)

        before = pairwise_overlap(lows, highs)
        after = pairwise_overlap(grown_lows, grown_highs)
        np.fill_diagonal(before, 0.0)
        np.fill_diagonal(after, 0.0)
        overlap_delta = after.sum(axis=1) - before.sum(axis=1)
        extents = highs - lows
        areas = np.prod(extents / scale, axis=1)
        enlargement = np.prod((grown_highs - grown_lows) / scale, axis=1) - areas
        margins = extents.sum(axis=1)
        order = np.lexsort((margins, areas, enlargement, overlap_delta))
        return children[int(order[0])]

    def _insert_at_level(self, entry, level: int) -> None:
        """Insert a LeafEntry (level 0) or subtree Node at ``level``."""
        node = self._choose_subtree(level, entry.mbr)
        node.entries.append(entry)
        if isinstance(entry, Node):
            entry.parent = node
        self._extend_upward(node, entry.mbr)
        while len(node.entries) > self.max_entries:
            node = self._overflow_treatment(node)
            if node is None:
                break

    def _extend_upward(self, node: Node, box: MBR) -> None:
        current: Node | None = node
        while current is not None:
            if current.mbr is None:
                current.mbr = box.copy()
            else:
                current.mbr.extend(box)
            current = current.parent

    def _tighten_upward(self, node: Node) -> None:
        current: Node | None = node
        while current is not None:
            current.recompute_mbr()
            current = current.parent

    def _overflow_treatment(self, node: Node) -> Node | None:
        """Handle an overfull node; returns the parent if it now overflows."""
        if node is not self.root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._reinsert(node)
            return None
        return self._split(node)

    def _reinsert(self, node: Node) -> None:
        """Forced reinsert: evict the 30% entries farthest from the node center."""
        assert node.mbr is not None
        count = max(1, int(round(_REINSERT_FRACTION * len(node.entries))))
        node.entries.sort(key=lambda e: node.mbr.center_distance(e.mbr))
        evicted = node.entries[-count:]
        del node.entries[-count:]
        self._tighten_upward(node)
        # Far-reinsert order: farthest first (maximizes restructuring).
        for entry in reversed(evicted):
            if isinstance(entry, Node):
                entry.parent = None
            self._insert_at_level(entry, node.level)

    def _split(self, node: Node) -> Node | None:
        """R* topological split; returns the parent when it overflows."""
        group_a, group_b = self._choose_split(node.entries)
        sibling = self._new_node(node.level)
        node.entries = group_a
        sibling.entries = group_b
        if not node.is_leaf:
            for child in node.entries:
                child.parent = node
            for child in sibling.entries:
                child.parent = sibling
        node.recompute_mbr()
        sibling.recompute_mbr()

        if node is self.root:
            new_root = self._new_node(level=node.level + 1)
            new_root.entries = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr()
            self.root = new_root
            return None

        parent = node.parent
        assert parent is not None
        parent.entries.append(sibling)
        sibling.parent = parent
        self._tighten_upward(parent)
        if len(parent.entries) > self.max_entries:
            return parent
        return None

    def _choose_split(self, entries: list) -> tuple[list, list]:
        """Choose split axis by minimum margin sum, then the distribution
        with minimum overlap (ties: minimum total area, then margin).

        Vectorized with prefix/suffix corner sweeps: for a sorted order,
        the MBR of every prefix (and suffix) group comes from running
        min/max arrays, so evaluating all distributions of one order costs
        ``O(F * dim)`` instead of ``O(F^2 * dim)``.
        """
        m = self.min_entries
        total = len(entries)
        lows = np.stack([e.mbr.low for e in entries])
        highs = np.stack([e.mbr.high for e in entries])
        # Shared per-axis scale: keeps the 2d+1-way area/overlap products
        # out of underflow (see _least_enlargement_child) while preserving
        # the ordering every comparison below depends on.
        scale = highs.max(axis=0) - lows.min(axis=0)
        scale[scale == 0.0] = 1.0

        def distributions(order: np.ndarray):
            """Margins/overlaps/areas of every legal split of one order."""
            ordered_lows = lows[order]
            ordered_highs = highs[order]
            prefix_low = np.minimum.accumulate(ordered_lows, axis=0)
            prefix_high = np.maximum.accumulate(ordered_highs, axis=0)
            suffix_low = np.minimum.accumulate(ordered_lows[::-1], axis=0)[::-1]
            suffix_high = np.maximum.accumulate(ordered_highs[::-1], axis=0)[::-1]
            splits = np.arange(m, total - m + 1)
            left_low = prefix_low[splits - 1]
            left_high = prefix_high[splits - 1]
            right_low = suffix_low[splits]
            right_high = suffix_high[splits]
            margins = np.sum(left_high - left_low, axis=1) + np.sum(
                right_high - right_low, axis=1
            )
            inter = np.clip(
                np.minimum(left_high, right_high) - np.maximum(left_low, right_low),
                0.0,
                None,
            )
            overlaps = np.prod(inter / scale, axis=1)
            areas = np.prod((left_high - left_low) / scale, axis=1) + np.prod(
                (right_high - right_low) / scale, axis=1
            )
            return splits, margins, overlaps, areas

        orders_by_axis: list[list[np.ndarray]] = []
        margin_sum_by_axis = np.empty(self.dim)
        for axis in range(self.dim):
            low_order = np.lexsort((highs[:, axis], lows[:, axis]))
            high_order = np.lexsort((lows[:, axis], highs[:, axis]))
            orders_by_axis.append([low_order, high_order])
            margin_sum = 0.0
            for order in (low_order, high_order):
                _splits, margins, _overlaps, _areas = distributions(order)
                margin_sum += float(margins.sum())
            margin_sum_by_axis[axis] = margin_sum
        best_axis = int(np.argmin(margin_sum_by_axis))

        best_key = None
        best_split: tuple[np.ndarray, int] | None = None
        for order in orders_by_axis[best_axis]:
            splits, margins, overlaps, areas = distributions(order)
            idx = int(np.lexsort((margins, areas, overlaps))[0])
            key = (float(overlaps[idx]), float(areas[idx]), float(margins[idx]))
            if best_key is None or key < best_key:
                best_key = key
                best_split = (order, int(splits[idx]))
        assert best_split is not None
        order, split_at = best_split
        left = [entries[i] for i in order[:split_at]]
        right = [entries[i] for i in order[split_at:]]
        return left, right

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def _compute_signatures(self, node: Node) -> tuple[int, int]:
        vf = 0
        vd = 0
        if node.is_leaf:
            for entry in node.entries:
                vf |= signature(entry.gene_id, self.bitvector_bits)
                vd |= signature(entry.source_id, self.bitvector_bits, SOURCE_SALT)
        else:
            for child in node.entries:
                child_vf, child_vd = self._compute_signatures(child)
                vf |= child_vf
                vd |= child_vd
        node.vf = vf
        node.vd = vd
        return vf, vd

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------
    def _check_node(self, node: Node, is_root: bool) -> None:
        if node.mbr is None:
            if self._size > 0:
                raise InternalError("non-empty tree has a node without MBR")
            return
        if not is_root and not (
            self.min_entries <= len(node.entries) <= self.max_entries
        ):
            raise InternalError(
                f"node fan-out {len(node.entries)} outside "
                f"[{self.min_entries}, {self.max_entries}]"
            )
        if is_root and len(node.entries) > self.max_entries:
            raise InternalError("root exceeds max fan-out")
        recomputed = (
            MBR.union_of([e.mbr for e in node.entries]) if node.entries else None
        )
        if recomputed is not None and not (
            np.allclose(recomputed.low, node.mbr.low)
            and np.allclose(recomputed.high, node.mbr.high)
        ):
            raise InternalError("node MBR is not tight over its entries")
        if not node.is_leaf:
            for child in node.entries:
                if child.parent is not node:
                    raise InternalError("child parent pointer mismatch")
                if child.level != node.level - 1:
                    raise InternalError("child level mismatch")
                if not node.mbr.contains(child.mbr):
                    raise InternalError("child MBR escapes parent MBR")
                if self._finalized and (child.vf & ~node.vf or child.vd & ~node.vd):
                    raise InternalError("child signature escapes parent signature")
                self._check_node(child, is_root=False)
