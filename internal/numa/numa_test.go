package numa

import (
	"testing"
	"testing/quick"
)

func TestTopologyWorkers(t *testing.T) {
	top := Topology{Nodes: 4, WorkersPerNode: 28}
	if top.TotalWorkers() != 112 {
		t.Errorf("TotalWorkers = %d, want 112 (the paper's machine)", top.TotalWorkers())
	}
	if top.NodeOf(0) != 0 || top.NodeOf(27) != 0 || top.NodeOf(28) != 1 || top.NodeOf(111) != 3 {
		t.Error("NodeOf mapping wrong")
	}
	if err := top.Validate(); err != nil {
		t.Error(err)
	}
	if (Topology{}).Validate() == nil {
		t.Error("zero topology validated")
	}
	if SingleNode(8).Nodes != 1 {
		t.Error("SingleNode wrong")
	}
}

func TestPartitionEven(t *testing.T) {
	p := PartitionEven(10, 4)
	if p.Nodes() != 4 {
		t.Fatalf("Nodes = %d", p.Nodes())
	}
	covered := 0
	for node := 0; node < 4; node++ {
		lo, hi := p.Range(node)
		if hi < lo {
			t.Fatalf("node %d has inverted range", node)
		}
		covered += hi - lo
		if hi-lo < 2 || hi-lo > 3 {
			t.Errorf("node %d piece size %d not near-even", node, hi-lo)
		}
	}
	if covered != 10 {
		t.Errorf("pieces cover %d of 10", covered)
	}
}

func TestPartitionOwner(t *testing.T) {
	p := PartitionEven(100, 3)
	for i := 0; i < 100; i++ {
		node := p.Owner(i)
		lo, hi := p.Range(node)
		if i < lo || i >= hi {
			t.Fatalf("Owner(%d) = %d but range is [%d,%d)", i, node, lo, hi)
		}
	}
}

func TestPropertyMapCoversAllVertices(t *testing.T) {
	m := NewPropertyMap(1000, Topology{Nodes: 4, WorkersPerNode: 1})
	counts := make([]int, 4)
	for v := uint32(0); v < 1000; v++ {
		counts[m.Owner(v)]++
	}
	for node, c := range counts {
		if c != 250 {
			t.Errorf("node %d owns %d vertices, want 250", node, c)
		}
	}
}

// Property: partition pieces tile the space exactly, and Owner is the
// inverse of Range, for arbitrary sizes.
func TestPartitionProperty(t *testing.T) {
	f := func(totalRaw uint16, nodesRaw uint8) bool {
		total := int(totalRaw) % 5000
		nodes := int(nodesRaw)%8 + 1
		p := PartitionEven(total, nodes)
		prev := 0
		for node := 0; node < nodes; node++ {
			lo, hi := p.Range(node)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		if prev != total {
			return false
		}
		for i := 0; i < total; i += 7 {
			node := p.Owner(i)
			lo, hi := p.Range(node)
			if i < lo || i >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: PropertyMap ownership is monotone non-decreasing over vertex id
// and balanced, so each node owns one contiguous range of ⌊n/nodes⌋ or
// ⌈n/nodes⌉ vertices and the ranges tile the vertex space.
func TestPropertyMapProperty(t *testing.T) {
	f := func(nRaw uint16, nodesRaw uint8) bool {
		n := int(nRaw)%3000 + 1
		nodes := int(nodesRaw)%6 + 1
		m := NewPropertyMap(n, Topology{Nodes: nodes, WorkersPerNode: 2})
		counts := make([]int, nodes)
		prevOwner := 0
		for v := uint32(0); int(v) < n; v++ {
			o := m.Owner(v)
			if o < prevOwner || o >= nodes {
				return false
			}
			prevOwner = o
			counts[o]++
		}
		for _, c := range counts {
			if c != n/nodes && c != (n+nodes-1)/nodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
