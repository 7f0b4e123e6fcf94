"""Tests for the synthetic grid and ring topologies other tests build on."""

import networkx as nx
import pytest

from tests.topology.generators import grid_topology, ring_topology


class TestGrid:
    def test_size_and_names(self):
        topo = grid_topology(3, 4)
        assert topo.num_sites == 12
        assert topo.names[0] == "grid-0-0"
        assert topo.names[-1] == "grid-2-3"

    def test_four_neighbor_adjacency(self):
        topo = grid_topology(3, 3)
        center = 4  # (1, 1)
        assert set(topo.neighbors(center)) == {1, 3, 5, 7}

    def test_corner_has_two_neighbors(self):
        topo = grid_topology(3, 3)
        assert len(topo.neighbors(0)) == 2

    def test_connected(self):
        assert nx.is_connected(grid_topology(4, 5).graph)

    def test_spacing_roughly_respected(self):
        topo = grid_topology(1, 2, spacing_km=2.0)
        d = topo.distance_matrix_km()
        assert d[0, 1] == pytest.approx(2.0, rel=0.05)

    def test_single_cell(self):
        topo = grid_topology(1, 1)
        assert topo.num_sites == 1
        assert topo.neighbors(0) == []

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_invalid_dimensions(self, rows, cols):
        with pytest.raises(ValueError):
            grid_topology(rows, cols)


class TestRing:
    def test_ring_adjacency(self):
        topo = ring_topology(6)
        for k in range(6):
            assert set(topo.neighbors(k)) == {(k - 1) % 6, (k + 1) % 6}

    def test_connected(self):
        assert nx.is_connected(ring_topology(8).graph)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_radius_scales_distances(self):
        small = ring_topology(4, radius_km=1.0).distance_matrix_km().max()
        large = ring_topology(4, radius_km=3.0).distance_matrix_km().max()
        assert large == pytest.approx(3.0 * small, rel=0.05)
