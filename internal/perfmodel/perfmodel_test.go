package perfmodel

import (
	"testing"
	"time"
)

func TestCountersAdd(t *testing.T) {
	a := Counters{EdgesProcessed: 1, SharedWrites: 2, CASRetries: 3}
	a.Add(Counters{EdgesProcessed: 10, TLSWrites: 5, CASRetries: 1})
	if a.EdgesProcessed != 11 || a.TLSWrites != 5 || a.SharedWrites != 2 || a.CASRetries != 4 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestRecorderAggregation(t *testing.T) {
	r := NewRecorder(3)
	r.Record(0, Counters{EdgesProcessed: 5})
	r.Record(1, Counters{EdgesProcessed: 7, AtomicOps: 2})
	r.Record(2, Counters{MergeOps: 1})
	r.Record(1, Counters{EdgesProcessed: 1})
	tot := r.Total()
	if tot.EdgesProcessed != 13 || tot.AtomicOps != 2 || tot.MergeOps != 1 {
		t.Errorf("Total = %+v", tot)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, Counters{EdgesProcessed: 1})
	r.AddBusy(0, time.Second)
	if r.Total() != (Counters{}) {
		t.Error("nil recorder returned non-zero totals")
	}
	if r.Profile() != (Breakdown{}) {
		t.Error("nil recorder returned non-zero profile")
	}
	r.Reset()
}

func TestProfileBreakdown(t *testing.T) {
	r := NewRecorder(2)
	r.AddBusy(0, 30*time.Millisecond)
	r.AddBusy(1, 50*time.Millisecond)
	r.Wall = 60 * time.Millisecond
	r.MergeTime = 5 * time.Millisecond
	b := r.Profile()
	if b.Work != 80*time.Millisecond {
		t.Errorf("Work = %v", b.Work)
	}
	// span = 120ms; idle = 120 - 80 - 5 = 35ms.
	if b.Idle != 35*time.Millisecond {
		t.Errorf("Idle = %v, want 35ms", b.Idle)
	}
	if b.Total() != 120*time.Millisecond {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestProfileClampsNegativeIdle(t *testing.T) {
	r := NewRecorder(1)
	r.AddBusy(0, 100*time.Millisecond)
	r.Wall = 10 * time.Millisecond // inconsistent timing must not go negative
	if idle := r.Profile().Idle; idle != 0 {
		t.Errorf("Idle = %v, want 0", idle)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(2)
	r.Record(1, Counters{SharedWrites: 9})
	r.AddBusy(1, time.Second)
	r.Wall = time.Second
	r.Reset()
	if r.Total() != (Counters{}) || r.Profile().Work != 0 || r.Wall != 0 {
		t.Error("Reset left state behind")
	}
}
