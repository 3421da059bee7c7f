package core

// direction is the per-iteration Edge-phase direction, chosen by policy from
// the iteration's frontier census (Besta et al., "To Push or To Pull").
type direction int

const (
	// dirPull runs Edge-Pull: every destination aggregates over in-edges.
	dirPull direction = iota
	// dirPush runs Edge-Push: active sources scatter over out-edges.
	dirPush
	// dirSparse runs the fused list-driven round (push over the frontier's
	// vertex list only).
	dirSparse
)

// Mark returns the direction's single-character trace encoding: '<' pull,
// '>' push, 's' sparse.
func (d direction) Mark() byte {
	switch d {
	case dirPull:
		return '<'
	case dirPush:
		return '>'
	default:
		return 's'
	}
}

// status is the iteration's census as the direction choice sees it, taken at
// the top of each iteration of runLoop.
type status struct {
	// UsesFrontier reports whether the program is frontier-driven; blind
	// programs always pull.
	UsesFrontier bool
	// Density is the frontier density in [0,1] (1 for frontier-blind
	// programs).
	Density float64
	// DegreeShare lazily computes the frontier's out-degree sum as a share
	// of total edges — the Besta et al. degree-sum term. It is only invoked
	// when the density test alone would choose push, so the O(frontier)
	// walk is paid exactly when the decision is in doubt. Nil when unknown
	// or when the program's pull scan has no early exit, the case the term
	// pays for.
	DegreeShare func() float64
	// SparseOK reports that this iteration's frontier fits the list-driven
	// round's budget.
	SparseOK bool
}

// pullDensity is the classic density term of the hybrid policy: pull when
// frontier density ≥ this (1/20 of vertices active).
const pullDensity = 0.05

// policy decides the per-iteration direction from the iteration status.
type policy struct {
	// PullOnly / PushOnly force a direction (the EngineMode pins); neither
	// set means hybrid.
	PullOnly, PushOnly bool
	// DegreeShareThreshold is the degree-sum term: pull when the
	// frontier's out-edges are at least this share of all edges, even at
	// low vertex density — a few hubs can put most of the edge set in play,
	// and pull's sequential gather beats push's scattered CAS there.
	// ≤ 0 disables the term.
	DegreeShareThreshold float64
}

// Choose picks this iteration's direction. The list-driven round, when its
// budget holds, wins outright (the budget already proved the frontier
// tiny); the engine pins come next; then density, then degree share, and
// otherwise the dense-scan push. All three outcomes occur on the
// direction-rule sweep in EXPERIMENTS.md.
func (p policy) Choose(st status) direction {
	if st.SparseOK {
		return dirSparse
	}
	if p.PullOnly {
		return dirPull
	}
	if p.PushOnly {
		return dirPush
	}
	if !st.UsesFrontier {
		return dirPull
	}
	if st.Density >= pullDensity {
		return dirPull
	}
	if p.DegreeShareThreshold > 0 && st.DegreeShare != nil &&
		st.DegreeShare() >= p.DegreeShareThreshold {
		return dirPull
	}
	return dirPush
}
