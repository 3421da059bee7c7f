package core

import "testing"

func TestDirectionMarks(t *testing.T) {
	if dirPull.Mark() != '<' || dirPush.Mark() != '>' || dirSparse.Mark() != 's' {
		t.Errorf("marks = %c %c %c, want < > s", dirPull.Mark(), dirPush.Mark(), dirSparse.Mark())
	}
}

func TestPolicyChoose(t *testing.T) {
	hybrid := policy{DegreeShareThreshold: 0.05}
	share := func(v float64) func() float64 { return func() float64 { return v } }
	cases := []struct {
		name string
		p    policy
		st   status
		want direction
	}{
		{"sparse-wins", hybrid, status{SparseOK: true, UsesFrontier: true, Density: 0.9}, dirSparse},
		{"sparse-beats-pin", policy{PushOnly: true}, status{SparseOK: true, UsesFrontier: true}, dirSparse},
		{"pull-pin", policy{PullOnly: true}, status{UsesFrontier: true, Density: 0.001}, dirPull},
		{"push-pin", policy{PushOnly: true}, status{UsesFrontier: true, Density: 0.9}, dirPush},
		{"blind-pulls", hybrid, status{UsesFrontier: false}, dirPull},
		{"dense-pulls", hybrid, status{UsesFrontier: true, Density: 0.5}, dirPull},
		{"sparse-frontier-pushes", hybrid,
			status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.01)}, dirPush},
		// The degree-sum term (Besta et al.): a low-density frontier whose
		// hubs cover a big edge share still pulls.
		{"hub-frontier-pulls", hybrid,
			status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.30)}, dirPull},
		{"degree-term-disabled", policy{},
			status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.30)}, dirPush},
		{"nil-share-pushes", hybrid, status{UsesFrontier: true, Density: 0.001}, dirPush},
	}
	for _, tc := range cases {
		if got := tc.p.Choose(tc.st); got != tc.want {
			t.Errorf("%s: Choose = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPolicyDegreeShareLazy pins the laziness contract: the O(frontier) walk
// must not run when density alone decides.
func TestPolicyDegreeShareLazy(t *testing.T) {
	p := policy{DegreeShareThreshold: 0.05}
	called := false
	st := status{UsesFrontier: true, Density: 0.5,
		DegreeShare: func() float64 { called = true; return 1 }}
	if p.Choose(st) != dirPull {
		t.Fatal("dense frontier did not pull")
	}
	if called {
		t.Error("DegreeShare was invoked although density decided")
	}
}
