package apps

import (
	"math"

	"repro/internal/graph"
)

// This file holds independent textbook implementations of each application,
// written directly against the edge list with none of the repository's
// engine machinery. They are the ground truth the sequential driver — and
// transitively every engine — is validated against.

// ReferencePageRank computes iters rounds of damped PageRank with uniform
// initialization and dangling-mass redistribution.
func ReferencePageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices
	rank := make([]float64, n)
	next := make([]float64, n)
	outDeg := g.OutDegrees()
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v, d := range outDeg {
			if d == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for i := range next {
			next[i] = base
		}
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outDeg[e.Src])
		}
		rank, next = next, rank
	}
	return rank
}

// ReferenceComponents computes min-label propagation along directed edges
// to a fixpoint (true connected components when the graph is symmetric).
func ReferenceComponents(g *graph.Graph) []uint32 {
	labels := make([]uint32, g.NumVertices)
	for i := range labels {
		labels[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges {
			if labels[e.Src] < labels[e.Dst] {
				labels[e.Dst] = labels[e.Src]
				changed = true
			}
		}
	}
	return labels
}

// ReferenceBFS computes the synchronous-rounds BFS parent array the engines
// produce: level by level, each newly-reached vertex adopts the minimum-id
// predecessor from the previous frontier; the root is its own parent;
// unreached vertices hold NoParent.
func ReferenceBFS(g *graph.Graph, root uint32) []uint64 {
	n := g.NumVertices
	parents := make([]uint64, n)
	for i := range parents {
		parents[i] = NoParent
	}
	parents[root] = uint64(root)
	// Out-adjacency for frontier expansion.
	adj := make([][]uint32, n)
	for _, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	cur := []uint32{root}
	for len(cur) > 0 {
		best := map[uint32]uint64{}
		for _, s := range cur {
			for _, d := range adj[s] {
				if parents[d] != NoParent {
					continue
				}
				if b, ok := best[d]; !ok || uint64(s) < b {
					best[d] = uint64(s)
				}
			}
		}
		cur = cur[:0]
		for d, p := range best {
			parents[d] = p
			cur = append(cur, d)
		}
	}
	return parents
}

// ReferenceSSSP computes exact single-source shortest path distances by
// Bellman-Ford over the weighted edge list. Unreached vertices hold +Inf.
func ReferenceSSSP(g *graph.Graph, root uint32) []float64 {
	n := g.NumVertices
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges {
			if nd := dist[e.Src] + float64(e.Weight); nd < dist[e.Dst] {
				dist[e.Dst] = nd
				changed = true
			}
		}
	}
	return dist
}

// ReferenceWeightedRank computes iters rounds of weighted PageRank: messages
// carry rank·w/weightedOutDeg, dangling (zero weighted out-degree) mass is
// redistributed uniformly.
func ReferenceWeightedRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices
	wdeg := make([]float64, n)
	for _, e := range g.Edges {
		wdeg[e.Src] += float64(e.Weight)
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v, d := range wdeg {
			if d == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for i := range next {
			next[i] = base
		}
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] * float64(e.Weight) / wdeg[e.Src]
		}
		rank, next = next, rank
	}
	return rank
}

// ReferenceTriangles counts, per vertex, triangles of the undirected simple
// closure (direction ignored, self-loops and parallel edges dropped) by
// brute-force adjacency-set pair testing.
func ReferenceTriangles(g *graph.Graph) []uint64 {
	n := g.NumVertices
	nbr := make([]map[uint32]bool, n)
	for i := range nbr {
		nbr[i] = map[uint32]bool{}
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			continue
		}
		nbr[e.Src][e.Dst] = true
		nbr[e.Dst][e.Src] = true
	}
	counts := make([]uint64, n)
	for v := 0; v < n; v++ {
		ns := make([]uint32, 0, len(nbr[v]))
		for u := range nbr[v] {
			ns = append(ns, u)
		}
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if nbr[ns[i]][ns[j]] {
					counts[v]++
				}
			}
		}
	}
	return counts
}

// ReferenceKCore computes the same synchronous peeling the KCore program
// specifies: directed in-degrees, rounds in which every vertex that died in
// the previous round decrements each live out-neighbor once, death when the
// remaining in-degree drops below k. Lanes are remaining in-degree or
// KCoreDead; the comparison with the engine is exact (integer lanes).
func ReferenceKCore(g *graph.Graph, k int) []uint64 {
	if k < 0 {
		k = 0
	}
	n := g.NumVertices
	kk := uint64(k)
	props := make([]uint64, n)
	for _, e := range g.Edges {
		props[e.Dst]++
	}
	var front []uint32
	for v := uint32(0); int(v) < n; v++ {
		if props[v] < kk {
			props[v] = KCoreDead
			front = append(front, v)
		}
	}
	dec := make([]uint64, n)
	for len(front) > 0 {
		for i := range dec {
			dec[i] = 0
		}
		inFront := make(map[uint32]bool, len(front))
		for _, v := range front {
			inFront[v] = true
		}
		for _, e := range g.Edges {
			if inFront[e.Src] && props[e.Dst] != KCoreDead {
				dec[e.Dst]++
			}
		}
		front = front[:0]
		for v := uint32(0); int(v) < n; v++ {
			if props[v] == KCoreDead || dec[v] == 0 {
				continue
			}
			rem := props[v] - dec[v]
			if rem < kk {
				props[v] = KCoreDead
				front = append(front, v)
			} else {
				props[v] = rem
			}
		}
	}
	return props
}

// ReferenceLabelProp runs iters synchronous rounds of min-hash label
// propagation with the same lpKey/mix64 salt schedule the LabelProp program
// uses (round r, 1-based, salts with mix64(r)), so the comparison with the
// engine is exact (integer lanes).
func ReferenceLabelProp(g *graph.Graph, iters int) []uint64 {
	n := g.NumVertices
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = uint64(i)
	}
	best := make([]uint64, n)
	for r := 1; r <= iters; r++ {
		salt := mix64(uint64(r))
		for i := range best {
			best[i] = ^uint64(0)
		}
		for _, e := range g.Edges {
			if key := lpKey(uint32(labels[e.Src]), salt); key < best[e.Dst] {
				best[e.Dst] = key
			}
		}
		for v := range labels {
			if best[v] != ^uint64(0) {
				labels[v] = uint64(uint32(best[v]))
			}
		}
	}
	return labels
}

// ReferencePPR computes iters rounds of PageRank personalized to root: all
// restart and dangling mass returns to the root, so the rank vector stays a
// probability distribution concentrated around it.
func ReferencePPR(g *graph.Graph, damping float64, root uint32, iters int) []float64 {
	n := g.NumVertices
	outDeg := g.OutDegrees()
	rank := make([]float64, n)
	next := make([]float64, n)
	rank[root] = 1
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v, d := range outDeg {
			if d == 0 {
				dangling += rank[v]
			}
		}
		for i := range next {
			next[i] = 0
		}
		next[root] = (1 - damping) + float64(damping*dangling) // as PersonalizedPageRank.Apply rounds it
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outDeg[e.Src])
		}
		rank, next = next, rank
	}
	return rank
}
