"""Tests for RAG (Definition 1) and STRG (Definition 2) containers."""

import math

import pytest

from repro.errors import GraphStructureError
from repro.graph.attributes import (
    AttributeTolerance,
    NodeAttributes,
    SpatialEdgeAttributes,
    TemporalEdgeAttributes,
    angle_difference,
)
from repro.graph.rag import RegionAdjacencyGraph
from repro.graph.strg import SpatioTemporalRegionGraph
from repro.errors import InvalidParameterError


def node(size=10, color=(100, 100, 100), centroid=(0.0, 0.0)):
    return NodeAttributes(size=size, color=color, centroid=centroid)


class TestNodeAttributes:
    def test_invalid_size(self):
        with pytest.raises(InvalidParameterError):
            NodeAttributes(size=0, color=(0, 0, 0), centroid=(0, 0))

    def test_color_distance(self):
        a = node(color=(0, 0, 0))
        b = node(color=(3, 4, 0))
        assert a.color_distance(b) == pytest.approx(5.0)

    def test_centroid_distance(self):
        a = node(centroid=(0.0, 0.0))
        b = node(centroid=(3.0, 4.0))
        assert a.centroid_distance(b) == pytest.approx(5.0)

    def test_size_ratio(self):
        assert node(size=50).size_ratio(node(size=100)) == pytest.approx(0.5)
        assert node(size=100).size_ratio(node(size=50)) == pytest.approx(0.5)


class TestEdgeAttributes:
    def test_spatial_between(self):
        a = node(centroid=(0.0, 0.0))
        b = node(centroid=(1.0, 1.0))
        edge = SpatialEdgeAttributes.between(a, b)
        assert edge.distance == pytest.approx(math.sqrt(2))
        assert edge.orientation == pytest.approx(math.pi / 4)

    def test_temporal_between(self):
        prev = node(centroid=(0.0, 0.0))
        cur = node(centroid=(0.0, 2.0))
        edge = TemporalEdgeAttributes.between(prev, cur)
        assert edge.velocity == pytest.approx(2.0)
        assert edge.direction == pytest.approx(math.pi / 2)

    def test_angle_difference_wraps(self):
        assert angle_difference(3.0, -3.0) == pytest.approx(
            2 * math.pi - 6.0
        )
        assert angle_difference(0.1, 0.1) == 0.0


class TestTolerance:
    def test_compatible_nodes(self):
        tol = AttributeTolerance(color=10.0, size_ratio=0.5)
        a = node(size=100, color=(100, 100, 100))
        b = node(size=60, color=(105, 100, 100))
        assert tol.nodes_compatible(a, b)

    def test_color_gate(self):
        tol = AttributeTolerance(color=10.0)
        a = node(color=(0, 0, 0))
        b = node(color=(50, 0, 0))
        assert not tol.nodes_compatible(a, b)

    def test_size_gate(self):
        tol = AttributeTolerance(size_ratio=0.8)
        assert not tol.nodes_compatible(node(size=10), node(size=100))

    def test_centroid_gate(self):
        tol = AttributeTolerance(centroid=5.0)
        a = node(centroid=(0, 0))
        b = node(centroid=(100, 0))
        assert not tol.nodes_compatible(a, b)


class TestRAG:
    def build_triangle(self):
        rag = RegionAdjacencyGraph(frame_index=2)
        for i, c in enumerate([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]):
            rag.add_node(i, node(centroid=c))
        rag.add_edge(0, 1)
        rag.add_edge(1, 2)
        rag.add_edge(0, 2)
        return rag

    def test_counts(self):
        rag = self.build_triangle()
        assert len(rag) == 3
        assert rag.number_of_edges() == 3

    def test_edge_attrs_derived(self):
        rag = self.build_triangle()
        assert rag.edge_attrs(0, 1).distance == pytest.approx(10.0)

    def test_missing_node_edge_rejected(self):
        rag = self.build_triangle()
        with pytest.raises(GraphStructureError):
            rag.add_edge(0, 99)

    def test_self_loop_rejected(self):
        rag = self.build_triangle()
        with pytest.raises(GraphStructureError):
            rag.add_edge(1, 1)

    def test_neighbors_and_degree(self):
        rag = self.build_triangle()
        assert sorted(rag.neighbors(0)) == [1, 2]
        assert rag.degree(0) == 2

    def test_subgraph_induced(self):
        rag = self.build_triangle()
        sub = rag.subgraph([0, 1])
        assert len(sub) == 2
        assert sub.number_of_edges() == 1

    def test_from_regions(self):
        regions = {7: node(), 9: node(centroid=(5.0, 0.0))}
        rag = RegionAdjacencyGraph.from_regions(regions, [(7, 9)], 3)
        assert 7 in rag and 9 in rag
        assert rag.frame_index == 3
        assert rag.number_of_edges() == 1

    def test_size_bytes(self):
        rag = self.build_triangle()
        assert rag.size_bytes() == 8 * (6 * 3 + 2 * 3)


class TestSTRG:
    def build(self, num_frames=3):
        rags = []
        for t in range(num_frames):
            rag = RegionAdjacencyGraph()
            rag.add_node(0, node(centroid=(float(t), 0.0)))
            rag.add_node(1, node(centroid=(float(t), 10.0)))
            rag.add_edge(0, 1)
            rags.append(rag)
        return SpatioTemporalRegionGraph(rags)

    def test_frame_indices_normalized(self):
        strg = self.build()
        assert [r.frame_index for r in strg.rags] == [0, 1, 2]

    def test_node_count(self):
        strg = self.build()
        assert strg.number_of_nodes() == 6
        assert len(list(strg.nodes())) == 6

    def test_temporal_edge_roundtrip(self):
        strg = self.build()
        strg.add_temporal_edge((0, 0), (1, 0))
        assert strg.has_temporal_edge((0, 0), (1, 0))
        assert strg.successors((0, 0)) == [(1, 0)]
        assert strg.predecessors((1, 0)) == [(0, 0)]
        attrs = strg.temporal_attrs((0, 0), (1, 0))
        assert attrs.velocity == pytest.approx(1.0)

    def test_non_consecutive_edge_rejected(self):
        strg = self.build()
        with pytest.raises(GraphStructureError):
            strg.add_temporal_edge((0, 0), (2, 0))

    def test_unknown_node_rejected(self):
        strg = self.build()
        with pytest.raises(GraphStructureError):
            strg.add_temporal_edge((0, 5), (1, 0))
        with pytest.raises(GraphStructureError):
            strg.add_temporal_edge((0, 0), (1, 5))

    def test_size_bytes_grows_with_frames(self):
        small = self.build(2)
        big = self.build(10)
        assert big.size_bytes() > small.size_bytes()

    def test_size_includes_temporal_edges(self):
        strg = self.build()
        before = strg.size_bytes()
        strg.add_temporal_edge((0, 0), (1, 0))
        assert strg.size_bytes() == before + 16


class TestTemporalSubgraph:
    def build(self):
        """3 frames x 2 regions, fully tracked, spatial edge per frame."""
        from repro.graph.rag import RegionAdjacencyGraph

        rags = []
        for t in range(3):
            rag = RegionAdjacencyGraph()
            rag.add_node(0, node(centroid=(float(t), 0.0)))
            rag.add_node(1, node(centroid=(float(t), 10.0)))
            rag.add_edge(0, 1)
            rags.append(rag)
        strg = SpatioTemporalRegionGraph(rags)
        for t in range(2):
            strg.add_temporal_edge((t, 0), (t + 1, 0))
            strg.add_temporal_edge((t, 1), (t + 1, 1))
        return strg

    def test_restriction_keeps_selected_nodes_only(self):
        strg = self.build()
        sub = strg.temporal_subgraph([(0, 0), (1, 0), (2, 0)])
        assert sub.number_of_nodes() == 3
        assert sub.number_of_temporal_edges() == 2

    def test_spatial_edges_restricted(self):
        strg = self.build()
        # Keep both regions of frame 0 only: spatial edge survives.
        sub = strg.temporal_subgraph([(0, 0), (0, 1)])
        assert sub.rag(0).number_of_edges() == 1
        # Keep one region per frame: no spatial edges survive.
        chain = strg.temporal_subgraph([(0, 0), (1, 0)])
        assert all(r.number_of_edges() == 0 for r in chain.rags)

    def test_unknown_node_rejected(self):
        strg = self.build()
        with pytest.raises(GraphStructureError):
            strg.temporal_subgraph([(0, 99)])

    def test_attrs_preserved(self):
        strg = self.build()
        sub = strg.temporal_subgraph([(0, 0), (1, 0)])
        assert sub.temporal_attrs((0, 0), (1, 0)).velocity == pytest.approx(1.0)
