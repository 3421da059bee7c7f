// Package numa simulates the multi-socket topology of the paper's
// evaluation machine (four Xeon E7-4850 v3 sockets). Real NUMA placement is
// unavailable here (see DESIGN.md §2), so the package reproduces the
// *structure* of Grazelle's light-weight graph partitioning — contiguous
// equal pieces of the edge-vector array per node, a per-node vertex index
// range, and vertex-property ownership — and lets the engines classify every
// property access as node-local or remote. The 1/2/4-socket sweeps of
// Figs 11–13 vary Topology.Nodes.
package numa

import "fmt"

// Topology describes a simulated machine.
type Topology struct {
	// Nodes is the number of NUMA nodes (sockets).
	Nodes int
	// WorkersPerNode is the number of worker threads pinned to each node.
	WorkersPerNode int
}

// SingleNode is the degenerate topology every non-NUMA experiment uses.
func SingleNode(workers int) Topology { return Topology{Nodes: 1, WorkersPerNode: workers} }

// Validate checks the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes < 1 || t.WorkersPerNode < 1 {
		return fmt.Errorf("numa: invalid topology %+v", t)
	}
	return nil
}

// TotalWorkers returns the machine-wide worker count.
func (t Topology) TotalWorkers() int { return t.Nodes * t.WorkersPerNode }

// NodeOf maps a global worker id to its node. Workers are numbered
// node-major: node = tid / WorkersPerNode, mirroring Grazelle's grouping of
// threads by NUMA node with local and global ids.
func (t Topology) NodeOf(tid int) int { return tid / t.WorkersPerNode }

// LocalID maps a global worker id to its id within its node.
func (t Topology) LocalID(tid int) int { return tid % t.WorkersPerNode }

// Partition is a division of a contiguous index space into per-node pieces.
// Piece i covers [Bounds[i], Bounds[i+1]).
type Partition struct {
	Bounds []int
}

// PartitionEven divides [0, total) into nodes near-equal contiguous pieces
// — Grazelle's edge-vector partitioning ("divide the edge vector array into
// equally-sized pieces").
func PartitionEven(total, nodes int) Partition {
	b := make([]int, nodes+1)
	for i := 0; i <= nodes; i++ {
		b[i] = total * i / nodes
	}
	return Partition{Bounds: b}
}

// Nodes returns the number of pieces.
func (p Partition) Nodes() int { return len(p.Bounds) - 1 }

// Range returns the half-open interval owned by node.
func (p Partition) Range(node int) (lo, hi int) {
	return p.Bounds[node], p.Bounds[node+1]
}

// Owner returns the node owning index i (binary search over the bounds).
func (p Partition) Owner(i int) int {
	lo, hi := 0, p.Nodes()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if i >= p.Bounds[mid+1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PropertyMap assigns vertex-property ownership to nodes. Grazelle
// distributes the property arrays so that each node predominantly updates
// locally-allocated vertices; an even split over vertex ids models the
// virtual-address-contiguous, physically-distributed layout it borrows from
// Polymer.
type PropertyMap struct {
	n     int
	nodes int
}

// NewPropertyMap creates an ownership map for n vertices over the topology.
func NewPropertyMap(n int, t Topology) PropertyMap {
	return PropertyMap{n: n, nodes: t.Nodes}
}

// Owner returns the node owning vertex v's property.
func (m PropertyMap) Owner(v uint32) int {
	if m.n == 0 {
		return 0
	}
	node := int(uint64(v) * uint64(m.nodes) / uint64(m.n))
	if node >= m.nodes {
		node = m.nodes - 1
	}
	return node
}

// VertexRange returns the contiguous vertex ids owned by node.
func (m PropertyMap) VertexRange(node int) (lo, hi uint32) {
	return uint32(uint64(m.n) * uint64(node) / uint64(m.nodes)),
		uint32(uint64(m.n) * uint64(node+1) / uint64(m.nodes))
}
