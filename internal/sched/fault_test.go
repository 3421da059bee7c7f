package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPanicContained: a panicking job body fails only its own Run call —
// the error is a typed *PanicError carrying the original value and stack,
// and the pool keeps serving jobs afterwards.
func TestRunPanicContained(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	err := p.Run(func(tid int) {
		if tid == 2 {
			panic("kaboom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "fault_test") {
		t.Errorf("stack does not reach the panic site:\n%s", pe.Stack)
	}
	if p.Panics() == 0 {
		t.Error("pool panic counter not incremented")
	}
	// The pool must still be fully operational.
	var ran atomic.Int64
	if err := p.Run(func(tid int) { ran.Add(1) }); err != nil {
		t.Fatalf("follow-up Run = %v", err)
	}
	if ran.Load() != 4 {
		t.Errorf("follow-up Run reached %d workers, want 4", ran.Load())
	}
	if n := p.ActiveJobs(); n != 0 {
		t.Errorf("ActiveJobs = %d after panicked job, want 0", n)
	}
}

// TestRunPanicSingleWorkerInline covers the inline fast path.
func TestRunPanicSingleWorkerInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	err := p.Run(func(tid int) { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("Run = %v, want *PanicError{42}", err)
	}
	if err := p.Run(func(tid int) {}); err != nil {
		t.Fatalf("follow-up Run = %v", err)
	}
}

// TestRunPanicDoesNotDisturbSiblingJob: two concurrent jobs on one pool, one
// panics; the other's result must be complete and correct.
func TestRunPanicDoesNotDisturbSiblingJob(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const total = 1 << 16
	for round := 0; round < 20; round++ {
		var sum atomic.Int64
		var wg sync.WaitGroup
		wg.Add(2)
		var panicErr error
		go func() {
			defer wg.Done()
			panicErr = p.DynamicForCtx(context.Background(), 64, 1, func(r Range, chunkID, tid int) {
				if chunkID == 13 {
					panic("chunk 13")
				}
			})
		}()
		go func() {
			defer wg.Done()
			p.DynamicFor(total, 64, func(r Range, chunkID, tid int) {
				local := int64(0)
				for i := r.Lo; i < r.Hi; i++ {
					local += int64(i)
				}
				sum.Add(local)
			})
		}()
		wg.Wait()
		var pe *PanicError
		if !errors.As(panicErr, &pe) {
			t.Fatalf("round %d: panicking job returned %v, want *PanicError", round, panicErr)
		}
		if want := int64(total) * (total - 1) / 2; sum.Load() != want {
			t.Fatalf("round %d: sibling sum = %d, want %d", round, sum.Load(), want)
		}
	}
}

// TestDynamicForCtxPanicFailFast: after one chunk panics, no executor should
// claim (many) further chunks.
func TestDynamicForCtxPanicFailFast(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const chunks = 10000
	var executed atomic.Int64
	err := p.DynamicForCtx(context.Background(), chunks, 1, func(r Range, chunkID, tid int) {
		if executed.Add(1) == 3 {
			panic("early")
		}
		// Slow the survivors slightly so the fail-fast flag is observable.
		time.Sleep(10 * time.Microsecond)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("DynamicForCtx = %v, want *PanicError", err)
	}
	if n := executed.Load(); n > chunks/10 {
		t.Errorf("executed %d of %d chunks after panic, expected fail-fast", n, chunks)
	}
}

// TestDynamicForRethrowsOnCaller: the void variant must surface the panic at
// the call site, not swallow it.
func TestDynamicForRethrowsOnCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v, want *PanicError", r)
		}
		if pe.Value != "boom" {
			t.Errorf("panic value = %v", pe.Value)
		}
		// Pool still healthy after the rethrow.
		if err := p.Run(func(int) {}); err != nil {
			t.Errorf("follow-up Run = %v", err)
		}
	}()
	p.DynamicFor(100, 10, func(r Range, chunkID, tid int) {
		if chunkID == 4 {
			panic("boom")
		}
	})
	t.Fatal("DynamicFor returned normally despite panicking body")
}

// TestStaticForRethrows covers the static scheduler's containment path.
func TestStaticForRethrows(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("StaticFor did not rethrow a *PanicError")
		}
	}()
	p.StaticFor(100, func(r Range, tid int) { panic("static") })
}

// TestPanicErrorPreservedThroughRethrow: rethrowing and re-capturing must
// not wrap the PanicError in another PanicError.
func TestPanicErrorPreservedThroughRethrow(t *testing.T) {
	orig := NewPanicError("inner")
	if got := NewPanicError(orig); got != orig {
		t.Error("NewPanicError re-wrapped an existing *PanicError")
	}
}
