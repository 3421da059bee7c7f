package core

import "testing"

func TestDirectionMarks(t *testing.T) {
	if DirPull.Mark() != '<' || DirPush.Mark() != '>' || DirSparse.Mark() != 's' {
		t.Errorf("marks = %c %c %c, want < > s", DirPull.Mark(), DirPush.Mark(), DirSparse.Mark())
	}
}

func TestPolicyChoose(t *testing.T) {
	hybrid := Policy{DegreeShareThreshold: 0.05}
	share := func(v float64) func() float64 { return func() float64 { return v } }
	cases := []struct {
		name string
		p    Policy
		st   Status
		want Direction
	}{
		{"sparse-wins", hybrid, Status{SparseOK: true, UsesFrontier: true, Density: 0.9}, DirSparse},
		{"sparse-beats-pin", Policy{PushOnly: true}, Status{SparseOK: true, UsesFrontier: true}, DirSparse},
		{"pull-pin", Policy{PullOnly: true}, Status{UsesFrontier: true, Density: 0.001}, DirPull},
		{"push-pin", Policy{PushOnly: true}, Status{UsesFrontier: true, Density: 0.9}, DirPush},
		{"blind-pulls", hybrid, Status{UsesFrontier: false}, DirPull},
		{"dense-pulls", hybrid, Status{UsesFrontier: true, Density: 0.5}, DirPull},
		{"sparse-frontier-pushes", hybrid,
			Status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.01)}, DirPush},
		// The degree-sum term (Besta et al.): a low-density frontier whose
		// hubs cover a big edge share still pulls.
		{"hub-frontier-pulls", hybrid,
			Status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.30)}, DirPull},
		{"degree-term-disabled", Policy{},
			Status{UsesFrontier: true, Density: 0.001, DegreeShare: share(0.30)}, DirPush},
		{"nil-share-pushes", hybrid, Status{UsesFrontier: true, Density: 0.001}, DirPush},
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
	p := Policy{DegreeShareThreshold: 0.05}
	called := false
	st := Status{UsesFrontier: true, Density: 0.5,
		DegreeShare: func() float64 { called = true; return 1 }}
	if p.Choose(st) != DirPull {
		t.Fatal("dense frontier did not pull")
	}
	if called {
		t.Error("DegreeShare was invoked although density decided")
	}
}
