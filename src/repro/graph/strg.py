"""Spatio-Temporal Region Graph (Definition 2).

An STRG ``Gst(S) = {V, E_S, E_T, nu, xi, tau}`` is the sequence of per-frame
RAGs of a video segment, augmented with *temporal edges* connecting
corresponding regions in consecutive frames.  STRG nodes are globally
addressed as ``(frame_index, region_id)`` pairs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import GraphStructureError
from repro.graph.attributes import NodeAttributes, TemporalEdgeAttributes
from repro.graph.rag import RegionAdjacencyGraph

#: Global address of an STRG node.
NodeKey = tuple[int, int]


class SpatioTemporalRegionGraph:
    """Temporally connected sequence of RAGs.

    Temporal edges are stored both forward (``successors``) and backward
    (``predecessors``) so that trajectory extraction can walk chains in
    either direction.
    """

    def __init__(self, rags: Sequence[RegionAdjacencyGraph] | None = None):
        self._rags: list[RegionAdjacencyGraph] = []
        self._forward: dict[NodeKey, list[NodeKey]] = {}
        self._backward: dict[NodeKey, list[NodeKey]] = {}
        self._temporal_attrs: dict[tuple[NodeKey, NodeKey], TemporalEdgeAttributes] = {}
        for rag in rags or []:
            self.append_rag(rag)

    # -- construction -----------------------------------------------------

    def append_rag(self, rag: RegionAdjacencyGraph) -> None:
        """Append the RAG of the next frame.

        The RAG's ``frame_index`` is normalized to its position in the
        segment so that temporal edges can be addressed consistently.
        """
        rag.frame_index = len(self._rags)
        self._rags.append(rag)

    def add_temporal_edge(self, src: NodeKey, dst: NodeKey,
                          attrs: TemporalEdgeAttributes | None = None) -> None:
        """Connect corresponding regions in consecutive frames.

        ``src`` and ``dst`` are ``(frame, region)`` keys with
        ``dst.frame == src.frame + 1``.  Attributes default to the
        centroid-derived velocity/direction of Definition 2.
        """
        sf, sr = src
        df, dr = dst
        if df != sf + 1:
            raise GraphStructureError(
                f"temporal edge must span consecutive frames, got {sf}->{df}"
            )
        if not (0 <= sf < len(self._rags)) or sr not in self._rags[sf]:
            raise GraphStructureError(f"source node {src} not in STRG")
        if not (0 <= df < len(self._rags)) or dr not in self._rags[df]:
            raise GraphStructureError(f"target node {dst} not in STRG")
        if attrs is None:
            attrs = TemporalEdgeAttributes.between(
                self.node_attrs(src), self.node_attrs(dst)
            )
        self._forward.setdefault(src, []).append(dst)
        self._backward.setdefault(dst, []).append(src)
        self._temporal_attrs[(src, dst)] = attrs

    # -- accessors ---------------------------------------------------------

    @property
    def rags(self) -> list[RegionAdjacencyGraph]:
        """Per-frame RAGs, in temporal order."""
        return self._rags

    def rag(self, frame: int) -> RegionAdjacencyGraph:
        """RAG of a given frame."""
        return self._rags[frame]

    @property
    def num_frames(self) -> int:
        """Number of frames in the segment."""
        return len(self._rags)

    def node_attrs(self, key: NodeKey) -> NodeAttributes:
        """Attributes of an STRG node addressed by ``(frame, region)``."""
        frame, region = key
        return self._rags[frame].node_attrs(region)

    def nodes(self) -> Iterator[NodeKey]:
        """Iterate over all ``(frame, region)`` node keys."""
        for rag in self._rags:
            for region in rag.nodes():
                yield (rag.frame_index, region)

    def number_of_nodes(self) -> int:
        """Total region count across all frames."""
        return sum(len(rag) for rag in self._rags)

    def successors(self, key: NodeKey) -> list[NodeKey]:
        """Temporal successors of a node (usually 0 or 1)."""
        return list(self._forward.get(key, ()))

    def predecessors(self, key: NodeKey) -> list[NodeKey]:
        """Temporal predecessors of a node."""
        return list(self._backward.get(key, ()))

    def temporal_edges(self) -> Iterator[tuple[NodeKey, NodeKey]]:
        """Iterate over temporal edges as ``(src, dst)``."""
        return iter(self._temporal_attrs.keys())

    def number_of_temporal_edges(self) -> int:
        """Total temporal edge count."""
        return len(self._temporal_attrs)

    def temporal_attrs(self, src: NodeKey, dst: NodeKey) -> TemporalEdgeAttributes:
        """Attributes of a temporal edge."""
        return self._temporal_attrs[(src, dst)]

    def has_temporal_edge(self, src: NodeKey, dst: NodeKey) -> bool:
        """Whether the temporal edge ``src -> dst`` exists."""
        return (src, dst) in self._temporal_attrs

    def temporal_subgraph(self, node_keys: Iterable[NodeKey]
                          ) -> "SpatioTemporalRegionGraph":
        """Node-induced temporal subgraph (Definition 8).

        The result contains the selected nodes, the spatial edges both of
        whose endpoints are selected (``E'_S = E_S ∩ (V' x V')``) and the
        temporal edges likewise (``E'_T = E_T ∩ (V' x V')``).  Frames keep
        their original indices; frames with no selected node become empty
        RAGs so temporal edges still span exactly one frame.
        """
        selected = set(node_keys)
        for key in selected:
            frame, region = key
            if not (0 <= frame < len(self._rags)) or region not in self._rags[frame]:
                raise GraphStructureError(f"node {key} not in STRG")
        sub = SpatioTemporalRegionGraph()
        for rag in self._rags:
            frame = rag.frame_index
            keep = [r for r in rag.nodes() if (frame, r) in selected]
            sub.append_rag(rag.subgraph(keep))
        for (src, dst), attrs in self._temporal_attrs.items():
            if src in selected and dst in selected:
                sub.add_temporal_edge(src, dst, attrs)
        return sub

    def size_bytes(self) -> int:
        """Approximate footprint of the raw STRG — Equation (9)'s left side.

        The raw STRG stores every frame's full RAG plus 2 floats per
        temporal edge; this is the quantity the STRG-Index compresses
        (Section 5.4, Table 2).
        """
        rag_bytes = sum(rag.size_bytes() for rag in self._rags)
        return rag_bytes + 16 * self.number_of_temporal_edges()

    def __repr__(self) -> str:
        return (
            f"SpatioTemporalRegionGraph(frames={self.num_frames}, "
            f"nodes={self.number_of_nodes()}, "
            f"temporal_edges={self.number_of_temporal_edges()})"
        )
