package sched

import (
	"testing"

	"repro/internal/obs"
)

func TestPoolMetricsObserved(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		m := &PoolMetrics{
			JobExec: obs.NewHistogram(obs.DefTimeBuckets),
		}
		p.SetMetrics(m)
		const jobs = 5
		for i := 0; i < jobs; i++ {
			if err := p.Run(func(tid int) {}); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.JobExec.Count(); got != jobs {
			t.Errorf("workers=%d: JobExec count = %d, want %d", workers, got, jobs)
		}
		// Detach and confirm no further observations.
		p.SetMetrics(nil)
		if err := p.Run(func(tid int) {}); err != nil {
			t.Fatal(err)
		}
		if got := m.JobExec.Count(); got != jobs {
			t.Errorf("workers=%d: JobExec count after detach = %d, want %d", workers, got, jobs)
		}
		p.Close()
	}
}

func TestAdmissionAdmittedCounter(t *testing.T) {
	var nilA *Admission
	if nilA.Admitted() != 0 {
		t.Fatal("nil admission Admitted != 0")
	}
	rel, err := nilA.Acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rel()

	// Unlimited controller still counts admissions.
	unlimited := NewAdmission(0, 0)
	rel, err = unlimited.Acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if got := unlimited.Admitted(); got != 1 {
		t.Fatalf("unlimited Admitted = %d, want 1", got)
	}

	a := NewAdmission(1, 0)
	rel1, err := a.Acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(t.Context()); err == nil {
		t.Fatal("second acquire should reject")
	}
	rel1()
	rel2, err := a.Acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if got := a.Admitted(); got != 2 {
		t.Fatalf("Admitted = %d, want 2", got)
	}
	if got := a.Rejected(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
}
