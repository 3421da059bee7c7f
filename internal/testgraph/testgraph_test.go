package testgraph

import "testing"

// TestDeclaredPropsHold checks every declared shape against the edge list,
// and that the corpus as a whole covers every shape.
func TestDeclaredPropsHold(t *testing.T) {
	var covered Props
	names := map[string]bool{}
	for _, c := range Corpus() {
		if names[c.Name] {
			t.Errorf("duplicate corpus name %q", c.Name)
		}
		names[c.Name] = true
		covered |= c.Props
		g := c.G
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if int(c.Root) >= g.NumVertices {
			t.Fatalf("%s: root %d out of range", c.Name, c.Root)
		}
		in, out := g.InDegrees(), g.OutDegrees()
		maxIn, loops, dups, lone := 0, 0, 0, 0
		first := map[[2]uint32]int{}
		for i, e := range g.Edges {
			if e.Src == e.Dst {
				loops++
			}
			if j, ok := first[[2]uint32{e.Src, e.Dst}]; ok && i-j > 1 {
				dups++
			} else if !ok {
				first[[2]uint32{e.Src, e.Dst}] = i
			}
		}
		for v := range in {
			maxIn = max(maxIn, in[v])
			if in[v]+out[v] == 0 {
				lone++
			}
		}
		check := func(p Props, name string, holds bool) {
			if c.Props.Has(p) && !holds {
				t.Errorf("%s declares %s but does not have it", c.Name, name)
			}
		}
		check(Hub, "Hub", maxIn >= 16)
		check(LongHubRun, "LongHubRun", maxIn > 16*4)
		check(SelfLoops, "SelfLoops", loops > 0)
		check(DuplicateEdges, "DuplicateEdges", dups > 0)
		check(Isolated, "Isolated", lone > 0)
		check(RootInDegree0, "RootInDegree0", in[c.Root] == 0 && out[c.Root] > 0)
		check(Weighted, "Weighted", g.Weighted)
		if c.Props.Has(StraddlesGroup) {
			// Some edge joins ids on either side of a multiple of 4, and
			// some edge joins ids on either side of a multiple of 64.
			var four, word bool
			for _, e := range g.Edges {
				four = four || e.Src/4 != e.Dst/4
				word = word || e.Src/64 != e.Dst/64
			}
			check(StraddlesGroup, "StraddlesGroup", four && word && lone > 0)
		}
		if c.Props.Has(Mesh) {
			check(Mesh, "Mesh", maxIn == 4 && lone == 0)
		}
		if c.Props.Has(LateJoin) {
			last := g.Edges[len(g.Edges)-1]
			half := uint32(g.NumVertices / 2)
			check(LateJoin, "LateJoin", (last.Src < half) != (last.Dst < half))
		}
		if w := c.WithWeights(); !w.Weighted || w.NumEdges() != g.NumEdges() {
			t.Errorf("%s: WithWeights lost the graph", c.Name)
		}
	}
	for p := Hub; p <= Weighted; p <<= 1 {
		if !covered.Has(p) {
			t.Errorf("no corpus graph declares shape %#x", uint(p))
		}
	}
}
