package core

import "testing"

// TestEngineModeString pins the canonical names and the out-of-range
// formatting on both sides — the table lookup must never borrow a neighbor's
// name for an unknown value.
func TestEngineModeString(t *testing.T) {
	cases := []struct {
		m    EngineMode
		want string
	}{
		{EngineHybrid, "Hybrid"},
		{EnginePullOnly, "Pull"},
		{EnginePushOnly, "Push"},
		{EngineMode(-1), "EngineMode(-1)"},
		{EngineMode(3), "EngineMode(3)"},
		{EngineMode(7), "EngineMode(7)"},
	}
	for _, tc := range cases {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("EngineMode(%d).String() = %q, want %q", int(tc.m), got, tc.want)
		}
	}
}

// TestPullVariantString pins the variant names reports print.
func TestPullVariantString(t *testing.T) {
	for v, want := range map[PullVariant]string{
		PullSchedulerAware: "Scheduler-Aware", PullTraditional: "Traditional",
		PullTraditionalNonatomic: "Traditional-Nonatomic", PullOuterOnly: "Outer-Only", PullVariant(9): "PullVariant(9)",
	} {
		if got := v.String(); got != want {
			t.Errorf("PullVariant(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

// TestOptionsDefaults pins the withDefaults normalization of the direction
// policy: the degree-share default and its negative opt-out.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.PullDegreeShare != 0.15 {
		t.Errorf("default PullDegreeShare = %v, want 0.15", o.PullDegreeShare)
	}
	o = Options{PullDegreeShare: -1}.withDefaults()
	if o.PullDegreeShare != -1 {
		t.Errorf("negative PullDegreeShare rewritten to %v", o.PullDegreeShare)
	}
}
