package coord

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/numa"
)

// scriptedIteration records the coordinator's calls and stops after a fixed
// number of iterations. Span closures run concurrently, so the log is
// mutex-guarded.
type scriptedIteration struct {
	mu           sync.Mutex
	log          []string
	iters, limit int
	usesFrontier bool
	sparseAt     map[int]bool
	density      float64
}

func (s *scriptedIteration) bundle() Iteration {
	rec := func(ev string) {
		s.mu.Lock()
		s.log = append(s.log, ev)
		s.mu.Unlock()
	}
	return Iteration{
		Begin: func() Status {
			if s.iters >= s.limit {
				return Status{Stop: true}
			}
			s.iters++
			rec("begin")
			return Status{
				UsesFrontier: s.usesFrontier,
				Density:      s.density,
				SparseOK:     s.sparseAt[s.iters],
			}
		},
		Sparse:      func() { rec("sparse") },
		EdgeFull:    func(d Direction) { rec("edgefull" + string(d.Mark())) },
		VertexFull:  func() { rec("vertexfull") },
		EdgeBegin:   func(d Direction) { rec("ebegin" + string(d.Mark())) },
		EdgeSpan:    func(d Direction, sp Span) { rec(fmt.Sprintf("espan%d", sp.Part)) },
		EdgeDone:    func(d Direction) { rec("edone") },
		VertexBegin: func() { rec("vbegin") },
		VertexSpan:  func(sp Span) { rec(fmt.Sprintf("vspan%d", sp.Part)) },
		VertexDone:  func() { rec("vdone") },
		Publish:     func() { rec("publish") },
		End:         func(d Direction) { rec("end" + string(d.Mark())) },
	}
}

func TestLocalCoordinatorSchedule(t *testing.T) {
	s := &scriptedIteration{limit: 2, usesFrontier: true, density: 0.5,
		sparseAt: map[int]bool{2: true}}
	c := &LocalCoordinator{}
	if err := c.Run(context.Background(), s.bundle(), 10); err != nil {
		t.Fatal(err)
	}
	want := "begin,edgefull<,vertexfull,end<,begin,sparse,ends"
	if got := join(s.log); got != want {
		t.Errorf("schedule = %s, want %s", got, want)
	}
	if c.Partitions() != 1 || c.PartitionStats() != nil {
		t.Error("local coordinator reported partitioned state")
	}
}

func TestLocalCoordinatorMaxIters(t *testing.T) {
	s := &scriptedIteration{limit: 100, density: 1}
	c := &LocalCoordinator{}
	if err := c.Run(context.Background(), s.bundle(), 3); err != nil {
		t.Fatal(err)
	}
	if s.iters != 3 {
		t.Errorf("ran %d iterations, want 3", s.iters)
	}
}

func TestPartitionedCoordinatorSchedule(t *testing.T) {
	s := &scriptedIteration{limit: 1, usesFrontier: true, density: 0.5}
	c := &PartitionedCoordinator{Plan: numa.NewPlan(2, 4, 4, 2)}
	if err := c.Run(context.Background(), s.bundle(), 10); err != nil {
		t.Fatal(err)
	}
	// Span order within a scatter is nondeterministic; check structure via
	// the bracketing events and per-partition stats instead.
	got := join(s.log)
	want := []string{"begin", "ebegin<", "espan0", "espan1", "edone",
		"vbegin", "vspan0", "vspan1", "vdone", "publish", "end<"}
	for _, ev := range want {
		if !contains(s.log, ev) {
			t.Errorf("schedule %s missing %s", got, ev)
		}
	}
	if s.log[len(s.log)-1] != "end<" || s.log[len(s.log)-2] != "publish" {
		t.Errorf("schedule %s must finish with publish,end<", got)
	}
	if c.Partitions() != 2 {
		t.Errorf("partitions = %d, want 2", c.Partitions())
	}
	stats := c.PartitionStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d entries, want 2", len(stats))
	}
	for i, st := range stats {
		if st.Part != i || st.Spans != 2 || st.ExchangeBytes != 8 {
			t.Errorf("stats[%d] = %+v, want Part=%d Spans=2 ExchangeBytes=8", i, st, i)
		}
	}
}

// TestPartitionedCoordinatorExchangeFault fails the barrier through the
// coord/exchange failpoint and then through a cancelled context: either way
// the iteration is still closed (End) but not published, the error is
// returned, and once the failpoint's budget drains the next run exchanges
// normally.
func TestPartitionedCoordinatorExchangeFault(t *testing.T) {
	if !fault.Available() {
		t.Skip("failpoints compiled out")
	}
	disarm, err := fault.Enable("coord/exchange", "error*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"failpoint", context.Background(), fault.ErrInjected},
		{"cancelled", cancelled, context.Canceled},
	} {
		s := &scriptedIteration{limit: 5, usesFrontier: true, density: 0.5}
		c := &PartitionedCoordinator{Plan: numa.NewPlan(2, 4, 4, 2)}
		err := c.Run(tc.ctx, s.bundle(), 10)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
		if contains(s.log, "publish") {
			t.Errorf("%s: failed exchange still published the frontier", tc.name)
		}
		if s.log[len(s.log)-1] != "end<" {
			t.Errorf("%s: schedule %s must close the iteration after a failed exchange", tc.name, join(s.log))
		}
		if s.iters != 1 {
			t.Errorf("%s: ran %d iterations past a failed exchange", tc.name, s.iters)
		}
	}

	s := &scriptedIteration{limit: 3, usesFrontier: true, density: 0.5}
	c := &PartitionedCoordinator{Plan: numa.NewPlan(2, 4, 4, 3)}
	if err := c.Run(context.Background(), s.bundle(), 10); err != nil {
		t.Fatalf("exchange after budget drained: %v", err)
	}
	// Three words over two partitions, one and two, over three iterations.
	for i, want := range []int64{3 * 8, 3 * 16} {
		if got := c.PartitionStats()[i].ExchangeBytes; got != want {
			t.Errorf("partition %d exchanged %d bytes, want %d", i, got, want)
		}
	}
}

// TestPartitionedCoordinatorGrids checks which grid each edge round scatters
// over: a pull over the plan's pull chunks, or over InPlacePull when Begin
// says InPlace, and a push over the vertex chunks. Empty spans never run.
func TestPartitionedCoordinatorGrids(t *testing.T) {
	statuses := []Status{
		{UsesFrontier: true, Density: 0.5},
		{UsesFrontier: true, Density: 0.5, InPlace: true},
		{UsesFrontier: true, Density: 0.001},
	}
	var (
		mu    sync.Mutex
		spans []string
		iter  int
	)
	it := Iteration{
		Begin: func() Status {
			if iter == len(statuses) {
				return Status{Stop: true}
			}
			iter++
			return statuses[iter-1]
		},
		EdgeBegin: func(Direction) {},
		EdgeSpan: func(d Direction, sp Span) {
			mu.Lock()
			spans = append(spans, fmt.Sprintf("%d%c%d:%d-%d", iter, d.Mark(), sp.Part, sp.Lo, sp.Hi))
			mu.Unlock()
		},
		EdgeDone:    func(Direction) {},
		VertexBegin: func() {},
		VertexSpan:  func(Span) {},
		VertexDone:  func() {},
		Publish:     func() {},
		End:         func(Direction) {},
	}
	c := &PartitionedCoordinator{
		Plan:        numa.NewPlan(2, 8, 4, 2),
		InPlacePull: numa.PartitionEven(1, 2), // partition 0's span is empty
	}
	if err := c.Run(context.Background(), it, 10); err != nil {
		t.Fatal(err)
	}
	slices.Sort(spans)
	want := []string{"1<0:0-4", "1<1:4-8", "2<1:0-1", "3>0:0-2", "3>1:2-4"}
	if !slices.Equal(spans, want) {
		t.Errorf("edge spans = %v, want %v", spans, want)
	}
}

// TestPartitionedCoordinatorSparseIteration checks sparse rounds bypass the
// scatter and exchange entirely.
func TestPartitionedCoordinatorSparseIteration(t *testing.T) {
	s := &scriptedIteration{limit: 1, usesFrontier: true, density: 0.001,
		sparseAt: map[int]bool{1: true}}
	c := &PartitionedCoordinator{Plan: numa.NewPlan(2, 4, 4, 2)}
	if err := c.Run(context.Background(), s.bundle(), 10); err != nil {
		t.Fatal(err)
	}
	if got, want := join(s.log), "begin,sparse,ends"; got != want {
		t.Errorf("schedule = %s, want %s", got, want)
	}
	for _, st := range c.PartitionStats() {
		if st.ExchangeBytes != 0 || st.Spans != 0 {
			t.Errorf("sparse round charged partition %d: %+v", st.Part, st)
		}
	}
}

func join(log []string) string {
	out := ""
	for i, ev := range log {
		if i > 0 {
			out += ","
		}
		out += ev
	}
	return out
}

func contains(log []string, ev string) bool {
	for _, e := range log {
		if e == ev {
			return true
		}
	}
	return false
}
