"""The IM-GRN index as contiguous arrays: built, checked, saved, mapped.

:meth:`ArrayStore.pack` is the index's write path. It bulk-loads the
embedded gene points with one vectorized sort-tile-recursive (STR) pass,
gene-ID axis first, and emits the arrays below directly -- no node
objects. Index mutations re-pack. :meth:`ArrayStore.from_tree` compacts
the reference :class:`~repro.index.rstartree.RStarTree` (the paper's
one-at-a-time R* insertion) into the same layout. Nodes are stored in
breadth-first order, so every node's children occupy one contiguous
index range, and the arrays persist as raw ``.npy`` files that reload
through ``np.load(..., mmap_mode="r")``: N worker processes then share a
single page-cache copy of the index and "loading" the index is an
``mmap`` call, not an unpickle.

Layout (``N`` nodes, ``P`` leaf entries, ``dim = 2d+1``, ``W`` signature
words of 64 bits):

================== ========== =========================================
array              dtype      meaning
================== ========== =========================================
node_lows          <f8 (N,dim) MBR low corner per node
node_highs         <f8 (N,dim) MBR high corner per node
node_levels        <i4 (N,)    tree level (0 == leaf)
node_child_start   <i8 (N,)    first child node index (internal) or
                               first entry row (leaf)
node_child_count   <i8 (N,)    number of children / leaf entries
node_page_ids      <i8 (N,)    page IDs (one node == one page for I/O
                               accounting)
node_vf_words      <u8 (N,W)   gene-ID signature ``V_f``, little-endian
                               64-bit words
node_vd_words      <u8 (N,W)   source-ID signature ``V_d``
entry_points       <f8 (P,dim) embedded leaf points
entry_gene_ids     <i8 (P,)    gene ID per entry
entry_source_ids   <i8 (P,)    source (matrix) ID per entry
entry_payloads     <i8 (P,)    opaque engine payload per entry
================== ========== =========================================

The R*-tree is only a filter under sound signature and Lemma-6 bounds,
so any valid packing returns the same answers; :meth:`check_invariants`
verifies that a store is one.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from .bitvector import hash_bit
from .invertedfile import SOURCE_SALT
from .pagemanager import PageManager

__all__ = [
    "ArrayStore",
    "int_to_words",
    "words_to_int",
    "signature_words",
    "min_fill",
    "min_dist_many",
]

#: On-disk format version (bump on any layout change).
FORMAT_VERSION = 1

#: Header file name inside an array-store directory.
_HEADER_NAME = "header.json"

_MASK64 = (1 << 64) - 1

#: name -> (dtype, is_2d) for every persisted array, in a fixed order.
_ARRAY_SPECS: dict[str, tuple[str, bool]] = {
    "node_lows": ("<f8", True),
    "node_highs": ("<f8", True),
    "node_levels": ("<i4", False),
    "node_child_start": ("<i8", False),
    "node_child_count": ("<i8", False),
    "node_page_ids": ("<i8", False),
    "node_vf_words": ("<u8", True),
    "node_vd_words": ("<u8", True),
    "entry_points": ("<f8", True),
    "entry_gene_ids": ("<i8", False),
    "entry_source_ids": ("<i8", False),
    "entry_payloads": ("<i8", False),
}

#: The per-node arrays :meth:`ArrayStore.pack` assembles level by level.
_NODE_ARRAYS = (
    "node_lows",
    "node_highs",
    "node_levels",
    "node_child_start",
    "node_child_count",
    "node_vf_words",
    "node_vd_words",
)


def int_to_words(value: int, words: int) -> np.ndarray:
    """Split a non-negative Python int into ``words`` little-endian uint64s."""
    if value < 0:
        raise ValidationError(f"signatures are non-negative, got {value}")
    out = np.empty(words, dtype="<u8")
    for index in range(words):
        out[index] = value & _MASK64
        value >>= 64
    if value:
        raise ValidationError(
            f"signature does not fit in {words} 64-bit words"
        )
    return out


def words_to_int(words: np.ndarray) -> int:
    """Inverse of :func:`int_to_words`."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def signature_words(bitvector_bits: int) -> int:
    """Words of 64 bits needed to hold a ``bitvector_bits``-wide signature."""
    return max(1, (int(bitvector_bits) + 63) // 64)


def min_fill(max_entries: int) -> int:
    """The R*-tree lower fan-out bound ``m`` (``0.4 * M``, at least 2)."""
    return max(2, int(round(0.4 * max_entries)))


def _signature_rows(values: np.ndarray, bits: int, words: int, salt: int = 0):
    """One ``(len(values), words)`` row of signature words per value."""
    unique, inverse = np.unique(values, return_inverse=True)
    positions = np.array(
        [hash_bit(int(v), bits, salt) for v in unique], dtype=np.int64
    )[inverse]
    rows = np.zeros((values.shape[0], words), dtype="<u8")
    rows[np.arange(values.shape[0]), positions // 64] = np.left_shift(
        np.uint64(1), (positions % 64).astype(np.uint64)
    )
    return rows


def _str_groups(keys: np.ndarray, capacity: int, minimum: int):
    """Sort-Tile-Recursive grouping of ``keys`` rows, gene axis first.

    Returns ``(order, sizes)``: page ``j`` holds rows
    ``order[offset_j : offset_j + sizes[j]]``. Rows are stably sorted
    along the last axis (the gene ID), cut into slabs, and each slab is
    tiled recursively along axes ``0, 1, ...``. Slab boundaries can leave
    undersized pages anywhere; each one is merged into its left
    neighbour (the right one for the first page), splitting the union in
    half when it would overflow. Because ``m <= 0.4 M`` both halves of
    an overflowing union meet the bound, so every page of a multi-page
    level ends in ``[m, M]``.
    """
    dim = keys.shape[1]
    axis_order = [dim - 1] + list(range(dim - 1))
    runs: list[np.ndarray] = []
    sizes: list[int] = []

    def tile(rows: np.ndarray, depth: int) -> None:
        n = rows.shape[0]
        if n <= capacity:
            runs.append(rows)
            sizes.append(n)
            return
        rows = rows[np.argsort(keys[rows, axis_order[depth]], kind="stable")]
        if depth >= dim - 1:
            pages = [capacity] * (n // capacity)
            if n % capacity:
                pages.append(n % capacity)
            if len(pages) >= 2 and pages[-1] < minimum:
                # Even out an undersized tail page with its predecessor.
                merged = pages[-2] + pages[-1]
                pages[-2:] = [merged // 2, merged - merged // 2]
            runs.append(rows)
            sizes.extend(pages)
            return
        remaining = dim - depth
        slabs = max(
            1, math.ceil(math.ceil(n / capacity) ** ((remaining - 1) / remaining))
        )
        slab_size = math.ceil(n / slabs)
        for start in range(0, n, slab_size):
            tile(rows[start : start + slab_size], depth + 1)

    tile(np.arange(keys.shape[0]), 0)
    index = 0
    while len(sizes) > 1 and index < len(sizes):
        if sizes[index] >= minimum:
            index += 1
            continue
        index = max(index - 1, 0)
        merged = sizes[index] + sizes[index + 1]
        if merged > capacity:
            sizes[index : index + 2] = [merged // 2, merged - merged // 2]
        else:
            sizes[index : index + 2] = [merged]
    return np.concatenate(runs), np.asarray(sizes, dtype=np.int64)


def _segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start + count)`` over every segment."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


class ArrayStore:
    """The R*-tree index as a structure of arrays.

    Construct with :meth:`pack` (STR bulk load), :meth:`from_tree`
    (compaction of the reference R*-tree) or :meth:`load` (mmap reload);
    the raw-array constructor is for those paths. Node index 0 is always
    the root; children of node ``i`` are nodes
    ``child_start[i] .. child_start[i] + child_count[i]`` (internal) or
    entry rows in the same range (leaf). ``max_entries`` is the fan-out
    bound ``M`` the store was built under (``None`` for snapshots saved
    before it was recorded).
    """

    __slots__ = (
        "dim",
        "bitvector_bits",
        "sig_words",
        "height",
        "pages_allocated",
        "max_entries",
        "node_lows",
        "node_highs",
        "node_levels",
        "node_child_start",
        "node_child_count",
        "node_page_ids",
        "node_vf_words",
        "node_vd_words",
        "entry_points",
        "entry_gene_ids",
        "entry_source_ids",
        "entry_payloads",
    )

    def __init__(
        self,
        *,
        dim: int,
        bitvector_bits: int,
        height: int,
        pages_allocated: int,
        arrays: dict[str, np.ndarray],
        max_entries: int | None = None,
    ):
        self.dim = int(dim)
        self.bitvector_bits = int(bitvector_bits)
        self.sig_words = signature_words(bitvector_bits)
        self.height = int(height)
        self.pages_allocated = int(pages_allocated)
        self.max_entries = None if max_entries is None else int(max_entries)
        for name in _ARRAY_SPECS:
            setattr(self, name, arrays[name])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        points,
        gene_ids,
        source_ids,
        payloads,
        *,
        max_entries: int,
        bitvector_bits: int,
        pages: PageManager | None = None,
    ) -> "ArrayStore":
        """Sort-Tile-Recursive bulk load straight into the array layout.

        Leaves tile the points and each internal level tiles its
        children's MBR centers, the gene-ID axis (the last coordinate)
        first: the traversal's anchor/neighbour range checks are exact on
        it, so clustering it keeps subtrees gene-tight. MBRs and
        ``V_f``/``V_d`` signatures come from ``reduceat`` over each
        level's contiguous child runs. Nodes get consecutive page IDs from
        ``pages`` in breadth-first order. The store depends only on the
        input rows and their order.

        Raises
        ------
        ValidationError
            If the columns disagree in length, a point is not finite (a
            NaN coordinate fails every range test and would silently
            vanish from every search), or ``max_entries < 4``.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValidationError(
                f"points must be a (count, dim) array, got shape {points.shape}"
            )
        count, dim = points.shape
        genes, sources, payload_col = (
            np.asarray(column, dtype=np.int64)
            for column in (gene_ids, source_ids, payloads)
        )
        for name, column in (
            ("gene_ids", genes),
            ("source_ids", sources),
            ("payloads", payload_col),
        ):
            if column.shape != (count,):
                raise ValidationError(
                    f"{name} has shape {column.shape}, expected ({count},)"
                )
        if not np.isfinite(points).all():
            raise ValidationError("points contain NaN/inf coordinates")
        if max_entries < 4:
            raise ValidationError(f"max_entries must be >= 4, got {max_entries}")
        if pages is None:
            pages = PageManager()
        words = signature_words(bitvector_bits)
        minimum = min_fill(max_entries)

        # Bottom-up: per level, the child order, the node starts (runs of
        # that order) and the nodes' boxes and signatures, in packing order.
        if count:
            lows = highs = keys = points
            vf = _signature_rows(genes, bitvector_bits, words)
            vd = _signature_rows(sources, bitvector_bits, words, SOURCE_SALT)
            levels = []
            while not levels or lows.shape[0] > 1:
                order, sizes = _str_groups(keys, max_entries, minimum)
                starts = np.cumsum(sizes) - sizes
                lows = np.minimum.reduceat(lows[order], starts)
                highs = np.maximum.reduceat(highs[order], starts)
                vf = np.bitwise_or.reduceat(vf[order], starts)
                vd = np.bitwise_or.reduceat(vd[order], starts)
                levels.append((order, starts, lows, highs, vf, vd))
                keys = (lows + highs) * 0.5
        else:  # an empty index is one empty leaf root
            box = np.zeros((1, dim))
            signatures = np.zeros((1, words), dtype="<u8")
            no_rows, one_start = np.zeros(0, np.int64), np.zeros(1, np.int64)
            levels = [(no_rows, one_start, box, box, signatures, signatures)]

        # Top-down breadth-first layout: ``bfs`` holds one level's nodes
        # (packing indices) in layout order; their children follow as the
        # next level's block, so each node's children are one index range.
        parts: dict[str, list[np.ndarray]] = {name: [] for name in _NODE_ARRAYS}
        bfs = np.zeros(1, dtype=np.int64)
        placed = 0
        for level in range(len(levels) - 1, -1, -1):
            order, starts, lows, highs, vf, vd = levels[level]
            sizes = np.diff(np.append(starts, order.shape[0]))
            counts = sizes[bfs]
            first_child = np.cumsum(counts) - counts
            if level:
                first_child += placed + bfs.shape[0]
            parts["node_lows"].append(lows[bfs])
            parts["node_highs"].append(highs[bfs])
            parts["node_levels"].append(np.full(bfs.shape[0], level, dtype="<i4"))
            parts["node_child_start"].append(first_child)
            parts["node_child_count"].append(counts)
            parts["node_vf_words"].append(vf[bfs])
            parts["node_vd_words"].append(vd[bfs])
            placed += bfs.shape[0]
            bfs = order[_segment_rows(starts[bfs], counts)]
        first_page = pages.num_pages
        pages.reserve(first_page + placed)
        arrays = {
            name: np.ascontiguousarray(
                np.concatenate(parts[name]), dtype=_ARRAY_SPECS[name][0]
            )
            for name in _NODE_ARRAYS
        }
        arrays["node_page_ids"] = np.arange(
            first_page, first_page + placed, dtype="<i8"
        )
        arrays["entry_points"] = np.ascontiguousarray(points[bfs])
        arrays["entry_gene_ids"] = genes[bfs]
        arrays["entry_source_ids"] = sources[bfs]
        arrays["entry_payloads"] = payload_col[bfs]
        return cls(
            dim=dim,
            bitvector_bits=bitvector_bits,
            height=len(levels),
            pages_allocated=pages.num_pages,
            arrays=arrays,
            max_entries=max_entries,
        )

    @classmethod
    def from_tree(cls, tree) -> "ArrayStore":
        """Compact a finalized :class:`RStarTree` into contiguous arrays.

        Raises
        ------
        ValidationError
            If the tree has not been finalized (signatures would be
            stale, and the store is immutable by design).
        """
        if not tree._finalized:
            raise ValidationError(
                "compact only a finalized tree (call finalize() first)"
            )
        dim = tree.dim
        words = signature_words(tree.bitvector_bits)

        # Breadth-first order: children of every internal node land in one
        # contiguous index range, parents strictly before children.
        nodes = [tree.root]
        for node in nodes:  # nodes grows while iterating: BFS queue
            if not node.is_leaf:
                nodes.extend(node.entries)
        count = len(nodes)

        total_entries = sum(len(n.entries) for n in nodes if n.is_leaf)
        arrays = {
            "node_lows": np.zeros((count, dim), dtype="<f8"),
            "node_highs": np.zeros((count, dim), dtype="<f8"),
            "node_levels": np.zeros(count, dtype="<i4"),
            "node_child_start": np.zeros(count, dtype="<i8"),
            "node_child_count": np.zeros(count, dtype="<i8"),
            "node_page_ids": np.zeros(count, dtype="<i8"),
            "node_vf_words": np.zeros((count, words), dtype="<u8"),
            "node_vd_words": np.zeros((count, words), dtype="<u8"),
            "entry_points": np.zeros((total_entries, dim), dtype="<f8"),
            "entry_gene_ids": np.zeros(total_entries, dtype="<i8"),
            "entry_source_ids": np.zeros(total_entries, dtype="<i8"),
            "entry_payloads": np.zeros(total_entries, dtype="<i8"),
        }
        next_node = 1  # BFS row of the next unplaced child (root is 0)
        next_entry = 0
        for index, node in enumerate(nodes):
            arrays["node_levels"][index] = node.level
            arrays["node_page_ids"][index] = node.page_id
            arrays["node_vf_words"][index] = int_to_words(node.vf, words)
            arrays["node_vd_words"][index] = int_to_words(node.vd, words)
            if node.mbr is not None:
                arrays["node_lows"][index] = node.mbr.low
                arrays["node_highs"][index] = node.mbr.high
            if node.is_leaf:
                arrays["node_child_start"][index] = next_entry
                arrays["node_child_count"][index] = len(node.entries)
                for entry in node.entries:
                    arrays["entry_points"][next_entry] = entry.point
                    arrays["entry_gene_ids"][next_entry] = entry.gene_id
                    arrays["entry_source_ids"][next_entry] = entry.source_id
                    arrays["entry_payloads"][next_entry] = entry.payload
                    next_entry += 1
            else:
                arrays["node_child_start"][index] = next_node
                arrays["node_child_count"][index] = len(node.entries)
                next_node += len(node.entries)
        return cls(
            dim=dim,
            bitvector_bits=tree.bitvector_bits,
            height=tree.height,
            pages_allocated=tree.pages.num_pages,
            arrays=arrays,
            max_entries=tree.max_entries,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.node_levels.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_gene_ids.shape[0])

    def __len__(self) -> int:
        return self.num_entries

    def node_vf(self, index: int) -> int:
        """The Python-int ``V_f`` signature of one node."""
        return words_to_int(self.node_vf_words[index])

    def node_vd(self, index: int) -> int:
        """The Python-int ``V_d`` signature of one node."""
        return words_to_int(self.node_vd_words[index])

    def fingerprint(self) -> str:
        """SHA-256 over the header scalars plus every array's raw bytes."""
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    "format_version": FORMAT_VERSION,
                    "dim": self.dim,
                    "bitvector_bits": self.bitvector_bits,
                    "height": self.height,
                    "pages_allocated": self.pages_allocated,
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        for name in _ARRAY_SPECS:
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return digest.hexdigest()

    def check_invariants(self) -> None:
        """Validate the structure with whole-array checks.

        Checks that child ranges are in bounds and claim every node and
        entry exactly once, that levels step down by one to leaves at 0,
        that every node's MBR is the tight box of its children (so each
        child box and leaf point lies inside its parent), that every
        ``V_f``/``V_d`` signature covers its children's (and a leaf's its
        entries' gene/source bits), and that every non-root node has
        fan-out in ``[m, M]`` and the root at most ``M`` (fan-out is
        skipped only when ``max_entries`` is unknown).

        Raises
        ------
        ValidationError
            On the first violated invariant.
        """

        def fail(message: str) -> None:
            raise ValidationError(f"array index invariant violated: {message}")

        nodes, entries = self.num_nodes, self.num_entries
        if nodes == 0:
            fail("no root node")
        levels = self.node_levels.astype(np.int64)
        starts = self.node_child_start.astype(np.int64)
        counts = self.node_child_count.astype(np.int64)
        leaf = levels == 0
        if levels[0] != self.height - 1 or (levels < 0).any():
            fail(f"root level {levels[0]} does not match height {self.height}")
        if (counts < 0).any() or (starts < 0).any():
            fail("negative child range")
        limit = np.where(leaf, entries, nodes)
        if (starts + counts > limit).any():
            fail("child range out of bounds")
        if int(counts[~leaf].sum()) != nodes - 1 or int(counts[leaf].sum()) != entries:
            fail("child ranges do not cover every node and entry")
        internal = np.nonzero(~leaf)[0]
        leaves = np.nonzero(leaf)[0]
        children = _segment_rows(starts[internal], counts[internal])
        parent = np.repeat(internal, counts[internal])
        rows = _segment_rows(starts[leaves], counts[leaves])
        owner = np.repeat(leaves, counts[leaves])
        # With the totals above, one claim per non-root node leaves the
        # root unclaimed.
        if (np.bincount(children, minlength=nodes)[1:] != 1).any():
            fail("a node is claimed by no parent or by several")
        if (np.bincount(rows, minlength=entries) != 1).any():
            fail("an entry is claimed by no leaf or by several")
        if (levels[children] != levels[parent] - 1).any():
            fail("child level is not its parent's level minus one")

        # Tight MBRs: each node's box is exactly the union of its children.
        lows = np.full((nodes, self.dim), np.inf)
        highs = np.full((nodes, self.dim), -np.inf)
        np.minimum.at(lows, parent, self.node_lows[children])
        np.maximum.at(highs, parent, self.node_highs[children])
        np.minimum.at(lows, owner, self.entry_points[rows])
        np.maximum.at(highs, owner, self.entry_points[rows])
        filled = counts > 0
        if not (
            np.array_equal(lows[filled], self.node_lows[filled])
            and np.array_equal(highs[filled], self.node_highs[filled])
        ):
            fail("a node MBR is not the tight box of its children")

        # Signatures: every parent covers its children's bits.
        words = self.sig_words
        entry_vf = _signature_rows(self.entry_gene_ids, self.bitvector_bits, words)
        entry_vd = _signature_rows(
            self.entry_source_ids, self.bitvector_bits, words, SOURCE_SALT
        )
        for name, node_words, entry_words in (
            ("V_f", self.node_vf_words, entry_vf),
            ("V_d", self.node_vd_words, entry_vd),
        ):
            if (node_words[children] & ~node_words[parent]).any() or (
                entry_words[rows] & ~node_words[owner]
            ).any():
                fail(f"a child {name} signature escapes its parent's")

        if self.max_entries is not None:
            low, high = min_fill(self.max_entries), self.max_entries
            if counts[0] > high:
                fail(f"root fan-out {counts[0]} exceeds {high}")
            fan_out = counts[1:]
            if ((fan_out < low) | (fan_out > high)).any():
                fail(f"a node fan-out lies outside [{low}, {high}]")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> dict:
        """Write raw ``.npy`` files plus a versioned JSON header.

        Raw (uncompressed) ``.npy`` is deliberate: it is the format
        ``np.load(..., mmap_mode="r")`` can map without copying, which a
        compressed ``.npz`` member cannot. Returns the header dict.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        header: dict = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "bitvector_bits": self.bitvector_bits,
            "sig_words": self.sig_words,
            "height": self.height,
            "pages_allocated": self.pages_allocated,
            "max_entries": self.max_entries,
            "num_nodes": self.num_nodes,
            "num_entries": self.num_entries,
            "fingerprint": self.fingerprint(),
            "arrays": {},
        }
        for name, (dtype, _is_2d) in _ARRAY_SPECS.items():
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            file_name = f"{name}.npy"
            np.save(target / file_name, array)
            header["arrays"][name] = {
                "file": file_name,
                "dtype": dtype,
                "shape": list(array.shape),
            }
        (target / _HEADER_NAME).write_text(
            json.dumps(header, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return header

    @classmethod
    def load(cls, directory: str | Path, *, mmap: bool = True) -> "ArrayStore":
        """Reload a saved store; ``mmap=True`` maps the arrays read-only.

        Raises
        ------
        ValidationError
            If the directory is not an array store, the format version is
            unsupported, or an array is missing / has the wrong shape.
        """
        target = Path(directory)
        header_path = target / _HEADER_NAME
        if not header_path.is_file():
            raise ValidationError(f"{target}: not an array-store directory")
        header = json.loads(header_path.read_text(encoding="utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"{target}: unsupported array-store version "
                f"{header.get('format_version')!r}"
            )
        arrays: dict[str, np.ndarray] = {}
        mode = "r" if mmap else None
        for name, (dtype, _is_2d) in _ARRAY_SPECS.items():
            spec = header.get("arrays", {}).get(name)
            if spec is None:
                raise ValidationError(f"{target}: header misses array {name!r}")
            array = np.load(target / spec["file"], mmap_mode=mode)
            if list(array.shape) != list(spec["shape"]) or array.dtype != np.dtype(
                dtype
            ):
                raise ValidationError(
                    f"{target}: array {name!r} does not match its header "
                    f"(shape {array.shape}, dtype {array.dtype})"
                )
            arrays[name] = array
        return cls(
            dim=int(header["dim"]),
            bitvector_bits=int(header["bitvector_bits"]),
            height=int(header["height"]),
            pages_allocated=int(header["pages_allocated"]),
            arrays=arrays,
            max_entries=header.get("max_entries"),
        )

    # ------------------------------------------------------------------
    # Range search and kNN (visit order and page charges match the
    # reference RStarTree on a compacted tree)
    # ------------------------------------------------------------------
    def _is_empty(self) -> bool:
        return self.num_nodes == 0 or (
            self.node_levels[0] == 0 and self.node_child_count[0] == 0
        )

    def search(self, low, high, pages=None) -> list[int]:
        """Entry rows whose point lies in ``[low, high]``.

        Visits nodes in the same order as :meth:`RStarTree.search` (LIFO
        stack, children pushed in index order) and charges the same page
        accesses when ``pages`` (a :class:`PageManager` or
        :class:`PageCounter`) is given; the intersection / containment
        tests are whole-node NumPy calls instead of per-child Python.
        """
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        results: list[int] = []
        if self._is_empty():
            return results
        stack = [0]
        while stack:
            index = stack.pop()
            if pages is not None:
                pages.access(int(self.node_page_ids[index]))
            start = int(self.node_child_start[index])
            stop = start + int(self.node_child_count[index])
            if self.node_levels[index] == 0:
                points = self.entry_points[start:stop]
                inside = np.all(points >= low, axis=1) & np.all(
                    points <= high, axis=1
                )
                results.extend(start + int(i) for i in np.nonzero(inside)[0])
            else:
                lows = self.node_lows[start:stop]
                highs = self.node_highs[start:stop]
                hits = np.all(lows <= high, axis=1) & np.all(
                    low <= highs, axis=1
                )
                stack.extend(start + int(i) for i in np.nonzero(hits)[0])
        return results

    def sources_with_genes(self, gene_ids) -> list[int]:
        """Sorted source IDs whose leaf entries cover *every* given gene.

        The relaxed-signature test of the similarity workload's recovery
        path: when the edge budget covers all of a query's anchor edges,
        any source holding the query genes is a candidate even if the
        traversal never surfaced it. One vectorized membership pass over
        the compacted ``entry_gene_ids`` / ``entry_source_ids`` rows per
        gene -- exact (no hash signatures involved), charges no pages
        (the entry arrays are the leaf level itself).
        """
        sources: np.ndarray | None = None
        for gene in gene_ids:
            holders = np.unique(
                self.entry_source_ids[self.entry_gene_ids == int(gene)]
            )
            if holders.size == 0:
                return []
            sources = (
                holders
                if sources is None
                else np.intersect1d(sources, holders, assume_unique=True)
            )
            if sources.size == 0:
                return []
        if sources is None:
            return []
        return [int(source) for source in sources]

    def nearest(
        self, point, k: int = 1, pages=None
    ) -> list[tuple[float, int]]:
        """The ``k`` nearest entry rows to ``point`` (best-first search).

        Mirrors :meth:`RStarTree.nearest` -- same heap discipline, same
        tie-break order, same per-expansion page accesses -- with MinDist
        over a whole node's children computed in one NumPy call.
        """
        import heapq
        import itertools as _it

        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise ValidationError(
                f"point shape {point.shape} does not match dim {self.dim}"
            )
        if self._is_empty():
            return []
        tie = _it.count()
        root_delta = np.clip(point, self.node_lows[0], self.node_highs[0]) - point
        heap: list[tuple[float, int, bool, int]] = [
            (float(np.sqrt(root_delta @ root_delta)), next(tie), False, 0)
        ]
        results: list[tuple[float, int]] = []
        while heap:
            dist, _t, is_entry, index = heapq.heappop(heap)
            if len(results) >= k and dist > results[-1][0]:
                break
            if is_entry:
                results.append((dist, index))
                results.sort(key=lambda pair: pair[0])
                del results[k:]
                continue
            if pages is not None:
                pages.access(int(self.node_page_ids[index]))
            start = int(self.node_child_start[index])
            stop = start + int(self.node_child_count[index])
            if self.node_levels[index] == 0:
                for row in range(start, stop):
                    delta = self.entry_points[row] - point
                    heapq.heappush(
                        heap,
                        (float(np.sqrt(delta @ delta)), next(tie), True, row),
                    )
            else:
                dists = min_dist_many(
                    self.node_lows[start:stop],
                    self.node_highs[start:stop],
                    point,
                )
                for offset, child_dist in enumerate(dists):
                    heapq.heappush(
                        heap,
                        (float(child_dist), next(tie), False, start + offset),
                    )
        return results


def min_dist_many(lows: np.ndarray, highs: np.ndarray, point: np.ndarray):
    """MinDist from ``point`` to each of N boxes, one vectorized call.

    Per row this performs exactly the scalar ``_min_dist`` operations
    (clip, subtract, dot, sqrt) so the distances match the object path
    bit for bit.
    """
    clipped = np.clip(point, lows, highs)
    delta = clipped - point
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
