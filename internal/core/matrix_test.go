package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/sched"
	"repro/internal/testgraph"
)

// The equivalence matrix: one driver for every kernel path of the engine.
// Every registered program — and each fused one again through the generic
// Message/Combine fold — runs on every corpus graph and the T/U/D analogs, in
// every engine cell of matrixCells, at the worker counts and chunk grids the
// cell lists (fewer on the analogs: onAnalog), on the selected vec kernels and
// on their Go twins, from a cold start (TestEquivalenceMatrix) and after a
// mutation batch, cc warm-started from its incremental seed plan
// (TestEquivalenceMatrixIncremental). Every run is held to:
//
//   - the sequential reference: integer lanes exactly, float lanes within
//     1e-12·(1 + |ref|);
//   - the path table: each pull round built the Edge-Pull body the cell
//     expects for the program, and each round the Vertex arm (min, once or
//     generic), so a silent fallback to another body fails;
//   - determinism: on a pinned grid the lanes are the same bits at every
//     worker count, and at one grid and worker count the same bits on the Go
//     twin, under Record and through the generic fold; the iteration count is
//     the same at every worker count of a grid, equal to the paper
//     configuration's, or at most that for a monotone-min program;
//   - for a min-prop program (cc), the lanes every round starts from are the
//     full-vector walk's, and a Record run charges the walk's Edge counters;
//   - for a Record run, counters that tile the lanes it visited.
//
// The default chunk grid derives from the worker count, so at ChunkVectors 0
// lanes are compared within one worker count only. References are same-
// process computations, not stored hashes, so the matrix holds on hardware
// with different float rounding.
//
// A new kernel is wired in by naming its body in closurePaths (a Vertex arm in
// closureArms) and giving the cells that reach it in the path table; a new
// program by adding its row to matrixPulls.

// Edge-Pull bodies, the path table's vocabulary.
const (
	pathSpan        = "span walk"           // pullSpanBody by run span: vec.RankSumRun, laneFold, a Record run's min-prop rounds
	pathChunk       = "min-prop chunk walk" // pullSpanBody: one vec.MinPropChunk call per chunk
	pathVector      = "vector walk"         // pullSABody, vector by vector
	pathTraditional = "traditional"         // edgePullTraditional
	pathOuterOnly   = "outer-only"          // edgePullOuterOnly
	pathScalar      = "scalar"              // edgePullSAScalar, edgePullTraditionalScalar
)

// closurePaths names the scheduler-aware bodies by the closure pullSABody
// returns.
var closurePaths = []struct{ suffix, path string }{
	{".pullSpanBody.func1", pathChunk},
	{".pullSpanBody.func2", pathSpan},
	{".pullSABody.func1", pathVector},
}

// builtPath names the Edge-Pull body a pull round of p would run on ec now.
// RunEdgePull's variant switch picks a function; the scheduler-aware one
// builds its body as edgePullSA does, and runtime.FuncForPC names the closure
// it gets back.
func builtPath(ec *ExecContext, p apps.Program) string {
	switch {
	case ec.opt.Variant == PullOuterOnly:
		return pathOuterOnly
	case ec.opt.Scalar:
		return pathScalar
	case ec.opt.Variant != PullSchedulerAware:
		return pathTraditional
	}
	fz := fuseFor(p, p.Weighted() && ec.g.VSD.Weights != nil)
	name := runtime.FuncForPC(reflect.ValueOf(pullSABody(ec, &fz)).Pointer()).Name()
	for _, c := range closurePaths {
		if strings.HasSuffix(name, c.suffix) {
			return c.path
		}
	}
	return name
}

// Vertex-phase bodies, the Vertex column's vocabulary.
const (
	armMin     = "min arm"      // vertexMin
	armOnce    = "once arm"     // vertexOnce
	armGeneric = "generic body" // vertexBody, sparseVertexBody's scalar loop: the program's own Apply
)

// closureArms names the Vertex-phase bodies by the closures that
// vertexPhaseBody and sparseVertexBody return.
var closureArms = []struct{ suffix, arm string }{
	{".vertexMin.func1", armMin},
	{".vertexOnce.func1", armOnce},
	{".vertexBody.func1", armGeneric},
	{".sparseVertexBody.func1", armGeneric},
}

// builtArm names the Vertex-phase body a round of p would run on ec now: the
// one RunVertex builds, which a list-driven round's Vertex phase
// (sparseVertexBody) must match.
func builtArm(ec *ExecContext, p apps.Program) string {
	name := func(body func(rg sched.Range, tid int)) string {
		fn := runtime.FuncForPC(reflect.ValueOf(body).Pointer()).Name()
		for _, c := range closureArms {
			if strings.HasSuffix(fn, c.suffix) {
				return c.arm
			}
		}
		return fn
	}
	dense, sparse := name(vertexPhaseBody(ec, p)), name(sparseVertexBody(ec, p, nil))
	if dense != sparse {
		return dense + ", list-driven " + sparse
	}
	return dense
}

// matrixPulls is the path table: the body a scheduler-aware pull round of
// each registered program builds, fused and through the generic fold ("" for
// a program the engine does not fuse, whose generic run is its only one), and
// the Vertex arm its fused run takes outside the scalar cells (a generic row
// and a scalar cell take the generic body).
var matrixPulls = map[string]struct{ fused, generic, vertex string }{
	"bfs":   {pathVector, pathVector, armOnce},
	"cc":    {pathChunk, pathVector, armMin},
	"kcore": {pathVector, "", armGeneric},
	"lp":    {pathSpan, "", armGeneric},
	"ppr":   {pathSpan, pathSpan, armGeneric},
	"pr":    {pathSpan, pathSpan, armGeneric},
	"sssp":  {pathVector, pathVector, armGeneric},
	"tc":    {pathSpan, "", armGeneric},
	"wpr":   {pathSpan, pathSpan, armGeneric},
}

// matrixApp is one program row of the matrix.
type matrixApp struct {
	name string
	// ent supplies the parameters, the reference and the seed planner.
	ent  apps.Entry
	make func(apps.Layouts, apps.Params) (apps.Program, error)
	// pull and vertex are the row's entries in the path table.
	pull, vertex string
	// generic marks a fused program run through unfused; it runs in the cells
	// that set generic, and is held to the fused run's bits.
	generic bool
}

// matrixApps returns a row per registered program, a generic row per fused
// one, and cc's write-intense variant.
func matrixApps(t *testing.T) []matrixApp {
	var out []matrixApp
	for _, ent := range apps.All() {
		row, ok := matrixPulls[ent.Name]
		if !ok {
			t.Fatalf("%s has no row in the path table", ent.Name)
		}
		out = append(out, matrixApp{name: ent.Name, ent: ent, make: ent.New, pull: row.fused, vertex: row.vertex})
		if row.generic != "" {
			mk := ent.New
			out = append(out, matrixApp{name: ent.Name + "+generic", ent: ent, pull: row.generic, vertex: armGeneric, generic: true,
				make: func(g apps.Layouts, p apps.Params) (apps.Program, error) {
					prog, err := mk(g, p)
					return unfused{prog}, err
				}})
		}
		if ent.Name == "cc" {
			out = append(out, matrixApp{name: "cc-write-intense", ent: ent, pull: row.fused, vertex: row.vertex,
				make: func(apps.Layouts, apps.Params) (apps.Program, error) { return apps.NewConnCompWriteIntense(), nil }})
		}
	}
	return out
}

// matrixCell is one engine configuration: one row per kernel path.
type matrixCell struct {
	name string
	opt  Options
	// bits names the cells whose runs are the same bits at one grid and
	// worker count (the cell itself when empty).
	bits             string
	workers, chunks  []int
	twin             bool // also on the Go twins of the vec kernels (AblateSIMD)
	analogs, generic bool // also on the T/U/D analogs (onAnalog); also the generic rows
	// path is the body a pull round of app builds in this cell; inPlace
	// reports whether the round reads in place.
	path func(app matrixApp, inPlace bool) string
}

func (c *matrixCell) group() string {
	if c.bits != "" {
		return c.bits
	}
	return c.name
}

// options is the cell's Options at one point of its grid. A topology keeps
// its node count and spreads the workers over it.
func (c *matrixCell) options(workers, chunk int, twin bool) Options {
	opt := c.opt
	opt.Workers, opt.ChunkVectors, opt.AblateSIMD = workers, chunk, twin
	if opt.Topology.Nodes > 0 {
		opt.Topology.WorkersPerNode = workers / opt.Topology.Nodes
	}
	return opt
}

func tablePath(app matrixApp, _ bool) string { return app.pull }

func fixedPath(path string) func(matrixApp, bool) string {
	return func(matrixApp, bool) string { return path }
}

// recordPath: a Record run counts a min-prop round per run span, and its
// in-place rounds vector by vector; every other program keeps its path.
func recordPath(app matrixApp, inPlace bool) string {
	switch {
	case app.pull != pathChunk:
		return app.pull
	case inPlace:
		return pathVector
	}
	return pathSpan
}

// matrixCells is the engine axis, in the order the cells run: the paper
// configuration and the full-vector walk first, because later cells are held
// to them. Workers, grids and the twin axis are pruned per cell to what its
// kernel is sensitive to: ChunkVectors 1 and 3 put every hub run across chunk
// boundaries, 16 is the grid the counters are pinned on.
var matrixCells = []matrixCell{
	{name: "paper", opt: Options{AblateFrontierWork: true}, workers: []int{1, 4}, chunks: []int{0, 3},
		analogs: true, path: tablePath},
	{name: "paper-pull", opt: Options{Mode: EnginePullOnly, AblateFrontierWork: true}, workers: []int{1, 4},
		chunks: []int{0, 1}, path: tablePath},
	{name: "full-vector", opt: Options{Mode: EnginePullOnly, AblateFullVector: true, Record: true},
		workers: []int{1, 2, 4}, chunks: []int{0, 1, 16}, analogs: true, path: fixedPath(pathVector)},
	{name: "hybrid", workers: []int{1, 2, 4}, chunks: []int{0, 3, 16}, analogs: true, path: tablePath},
	{name: "pull", bits: "pull", opt: Options{Mode: EnginePullOnly}, workers: []int{1, 2, 4}, chunks: []int{0, 1, 16},
		twin: true, analogs: true, generic: true, path: tablePath},
	// Trace rides along: neither it nor Record may move a lane.
	{name: "record", bits: "pull", opt: Options{Mode: EnginePullOnly, Record: true, Trace: true},
		workers: []int{1, 2, 4}, chunks: []int{0, 16}, twin: true, analogs: true, generic: true, path: recordPath},
	{name: "push", opt: Options{Mode: EnginePushOnly}, workers: []int{1, 4}, chunks: []int{0, 16}, path: tablePath},
	{name: "traditional", opt: Options{Variant: PullTraditional}, workers: []int{1, 4}, chunks: []int{0, 3},
		path: fixedPath(pathTraditional)},
	{name: "outer-only", opt: Options{Variant: PullOuterOnly}, workers: []int{1, 4}, chunks: []int{0},
		path: fixedPath(pathOuterOnly)},
	// Nonatomic is racy by design at more than one worker.
	{name: "nonatomic", opt: Options{Variant: PullTraditionalNonatomic}, workers: []int{1}, chunks: []int{0, 3},
		path: fixedPath(pathTraditional)},
	{name: "scalar", opt: Options{Scalar: true}, workers: []int{1, 4}, chunks: []int{0, 3}, path: fixedPath(pathScalar)},
	{name: "scalar-traditional", opt: Options{Scalar: true, Variant: PullTraditional}, workers: []int{1, 4},
		chunks: []int{0, 3}, path: fixedPath(pathScalar)},
	{name: "scalar-outer-only", opt: Options{Scalar: true, Variant: PullOuterOnly}, workers: []int{1, 4},
		chunks: []int{0}, path: fixedPath(pathOuterOnly)},
	{name: "scalar-nonatomic", opt: Options{Scalar: true, Variant: PullTraditionalNonatomic}, workers: []int{1},
		chunks: []int{0}, path: fixedPath(pathScalar)},
	{name: "numa", opt: Options{Topology: numa.Topology{Nodes: 2}}, workers: []int{2, 4}, chunks: []int{0, 16},
		path: tablePath},
	{name: "scalar-numa", opt: Options{Scalar: true, Topology: numa.Topology{Nodes: 4}}, workers: []int{4},
		chunks: []int{0}, path: fixedPath(pathScalar)},
}

func cellNamed(name string) *matrixCell {
	for i := range matrixCells {
		if matrixCells[i].name == name {
			return &matrixCells[i]
		}
	}
	panic("no matrix cell " + name)
}

// matrixParams are the parameters every row runs with.
func matrixParams(ent apps.Entry, root uint32) apps.Params {
	return ent.Normalize(apps.Params{Iters: spanIters, Root: root, K: 3})
}

// matrixGraph is one graph of the matrix: its plain and weighted versions
// and their layouts, the Runners of its cells and the runs made so far (all
// built on first use), and what those runs reached.
type matrixGraph struct {
	testgraph.Graph
	analog   bool
	versions [2]*graph.Graph
	layouts  [2]*Graph
	runners  map[matrixRunnerKey]*Runner
	runs     map[string][]*matrixRun // by registry name
	// ran counts the rows that ran to the end; paths, arms, listDriven and
	// fewer name the bodies pulls ran on, the Vertex arms rounds ran, the
	// programs that ran a list-driven round and those that finished ahead of
	// the paper configuration.
	ran                            int
	paths, arms, listDriven, fewer map[string]bool
}

type matrixRunnerKey struct {
	cg             *Graph
	cell           *matrixCell
	workers, chunk int
	twin           bool
}

// matrixGraphs is the graph axis: the corpus, then the T/U/D analogs.
func matrixGraphs() []*matrixGraph {
	var out []*matrixGraph
	for _, c := range testgraph.Corpus() {
		out = append(out, &matrixGraph{Graph: c})
	}
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007, gen.DimacsUSA} {
		c := testgraph.Graph{Name: d.Abbrev() + "-analog", Root: 1, G: gen.Generate(d, 0.05)}
		out = append(out, &matrixGraph{Graph: c, analog: true})
	}
	return out
}

// version returns the graph an entry runs on — weighted when it needs
// weights — and its layouts.
func (m *matrixGraph) version(ent apps.Entry) (*graph.Graph, *Graph) {
	i := 0
	if ent.NeedsWeights {
		i = 1
	}
	if m.versions[i] == nil {
		m.versions[i] = m.G
		if ent.NeedsWeights {
			m.versions[i] = m.WithWeights()
		}
		m.layouts[i] = BuildGraph(m.versions[i])
	}
	return m.versions[i], m.layouts[i]
}

func (m *matrixGraph) runner(cg *Graph, cell *matrixCell, workers, chunk int, twin bool) *Runner {
	key := matrixRunnerKey{cg, cell, workers, chunk, twin}
	if m.runners == nil {
		m.runners = map[matrixRunnerKey]*Runner{}
	}
	if m.runners[key] == nil {
		m.runners[key] = NewRunner(cg, cell.options(workers, chunk, twin))
	}
	return m.runners[key]
}

func (m *matrixGraph) close() {
	for _, r := range m.runners {
		r.Close()
	}
}

// matrixRun is one run of the matrix and what it observed.
type matrixRun struct {
	app            matrixApp
	cell           *matrixCell
	workers, chunk int
	twin           bool
	seeded         bool
	res            Result
	// pulls is the run's pull count as each round started, then at its end;
	// paths the body a pull in that round built, arms the Vertex-phase body
	// the round built; rounds (min-prop programs in the pull-only cells that
	// go in place) a hash of the lanes the round started from.
	pulls  []int
	paths  []string
	arms   []string
	rounds []uint64
}

func (r *matrixRun) String() string {
	s := fmt.Sprintf("%s %s w%d chunk%d", r.app.name, r.cell.name, r.workers, r.chunk)
	if r.twin {
		s += " twin"
	}
	if r.seeded {
		s += " seeded"
	}
	return s
}

// observed wraps the program of a matrix run and logs, as every round
// starts, what the run's own ExecContext holds: its pull count, the body a
// pull round would build from it and the Vertex-phase body it would run.
type observed struct {
	apps.Program
	ec  *ExecContext
	run *matrixRun
}

func (o *observed) FusedKind() apps.FusedKind { k, _ := apps.KindOf(o.Program); return k }
func (o *observed) FusedScale() []float64     { _, s := apps.KindOf(o.Program); return s }
func (o *observed) MonotoneMin() bool         { return apps.IsMonotoneMin(o.Program) }

func (o *observed) PreIteration(props []uint64) {
	o.Program.PreIteration(props)
	o.run.pulls = append(o.run.pulls, o.ec.pullsDone)
	o.run.paths = append(o.run.paths, builtPath(o.ec, o))
	o.run.arms = append(o.run.arms, builtArm(o.ec, o))
	if o.run.rounds != nil {
		h := uint64(14695981039346656037)
		for _, v := range props {
			h = (h ^ v) * 1099511628211
		}
		o.run.rounds = append(o.run.rounds, h)
	}
}

// innerKind is a program's fused kind before the generic wrap hid it.
func innerKind(p apps.Program) apps.FusedKind {
	if u, ok := p.(unfused); ok {
		p = u.Program
	}
	k, _ := apps.KindOf(p)
	return k
}

// observe runs p on r and logs it into run. One ExecContext is parked on the
// Runner's idle list first, so the run takes the context the log reads.
func observe(t *testing.T, r *Runner, p apps.Program, maxIters int, seed *Seed, run *matrixRun) {
	t.Helper()
	ec := r.acquire()
	r.release(ec)
	if opt := run.cell.opt; innerKind(p) == apps.FusedMinProp && opt.Mode == EnginePullOnly && !opt.AblateFrontierWork {
		run.rounds = []uint64{}
	}
	res, err := RunCtx(context.Background(), r, &observed{Program: p, ec: ec, run: run}, maxIters, seed)
	if err != nil {
		t.Fatalf("%v: %v", run, err)
	}
	run.res = res
	run.pulls = append(run.pulls, ec.pullsDone)
}

// checkPaths joins a run to the path table: each of its pull rounds built the
// body its cell expects, and each of its rounds the Vertex arm.
func checkPaths(t *testing.T, run *matrixRun, p apps.Program, seen, seenArms map[string]bool) {
	t.Helper()
	wantArm := run.app.vertex
	if run.cell.opt.Scalar {
		wantArm = armGeneric
	}
	for i, arm := range run.arms {
		if arm != wantArm {
			t.Fatalf("%v: round %d ran the Vertex phase on the %s, the path table says %s", run, i, arm, wantArm)
		}
		seenArms[arm] = true
	}
	for i, path := range run.paths {
		if run.pulls[i+1] == run.pulls[i] {
			continue // a push or list-driven round
		}
		inPlace := run.pulls[i] >= inPlaceAfter && !run.cell.opt.AblateFrontierWork && apps.IsMonotoneMin(p)
		if want := run.cell.path(run.app, inPlace); path != want {
			t.Fatalf("%v: round %d (in place %v) pulled on the %s, the path table says %s", run, i, inPlace, path, want)
		}
		seen[path] = true
	}
}

// refClose is the reference tolerance of float lanes.
func refClose(got, want float64) bool { return math.Abs(got-want) <= 1e-12*(1+math.Abs(want)) }

// seedClose is the tolerance of a seeded run's float lanes against the cold
// run: a seed may accumulate the same contributions in another order.
func seedClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// checkLanes holds got to want: bit for bit, or within close for float lanes.
func checkLanes(t *testing.T, what fmt.Stringer, against string, ent apps.Entry, got, want []uint64, close func(got, want float64) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d lanes, %s has %d", what, len(got), against, len(want))
	}
	for v := range want {
		if got[v] == want[v] {
			continue
		}
		if a, b := math.Float64frombits(got[v]), math.Float64frombits(want[v]); !ent.FloatLanes || !close(a, b) {
			t.Fatalf("%v: lane[%d] = %#x, %s %#x", what, v, got[v], against, want[v])
		}
	}
}

// checkCounters holds a Record run's Edge counters to the lanes it visited:
// every gathered edge is one thread-local write and one classified read; a
// program that neither saturates nor tracks a converged set visits every
// vector of every pull, and its lanes tile them; a frontier-blind one charges
// every vector and every valid lane of every pull exactly once.
func checkCounters(t *testing.T, run *matrixRun, p apps.Program, cg *Graph) {
	t.Helper()
	e, kind := run.res.EdgeCounters, innerKind(p)
	if e.TLSWrites != e.EdgesProcessed || e.LocalAccesses+e.RemoteAccesses != e.EdgesProcessed {
		t.Fatalf("%v: TLSWrites %d, locality %d+%d, want EdgesProcessed %d each",
			run, e.TLSWrites, e.LocalAccesses, e.RemoteAccesses, e.EdgesProcessed)
	}
	if kind == apps.FusedMinSrc || p.TracksConverged() {
		return
	}
	if got, want := e.EdgesProcessed+e.FrontierSkips+e.InvalidLanes, 4*e.VectorsProcessed; got != want {
		t.Fatalf("%v: edges %d + skips %d + invalid %d = %d lanes, want 4 × %d vectors",
			run, e.EdgesProcessed, e.FrontierSkips, e.InvalidLanes, got, e.VectorsProcessed)
	}
	if want := uint64(run.res.PullIterations * cg.VSD.NumVectors()); e.VectorsProcessed != want {
		t.Fatalf("%v: VectorsProcessed = %d, want every vector of %d pulls (%d)",
			run, e.VectorsProcessed, run.res.PullIterations, want)
	}
	if !p.UsesFrontier() {
		assertSpanCounters(t, run.String(), cg, run.res, run.res.PullIterations)
	}
}

// checkAgainst holds a cold run to the runs of the same program before it:
// the first one of its bits group on its grid (same lanes, unless the grid
// is the worker-count default and the workers differ), of its group on its
// grid (same iteration count), of the paper configuration (the iteration
// bound) and, for a min-prop run, of the full-vector walk at its grid and
// worker count (the same lanes at the start of every round, and under Record
// the same Edge counters).
func checkAgainst(t *testing.T, run *matrixRun, earlier []*matrixRun, monotone bool, fewer map[string]bool) {
	t.Helper()
	var bits, iters, paper, walk *matrixRun
	for _, prev := range earlier {
		sameGrid := prev.chunk == run.chunk
		sameGroup := sameGrid && prev.cell.group() == run.cell.group()
		switch {
		case bits == nil && sameGroup && (run.chunk > 0 || prev.workers == run.workers):
			bits = prev
		case iters == nil && sameGroup:
			iters = prev
		case paper == nil && prev.cell.name == "paper":
			paper = prev
		case walk == nil && run.rounds != nil && prev.rounds != nil && prev.cell.name == "full-vector" &&
			sameGrid && prev.workers == run.workers:
			walk = prev
		}
	}
	if bits != nil && !slices.Equal(run.res.Props, bits.res.Props) {
		t.Fatalf("%v: lanes differ from %v", run, bits)
	}
	for _, prev := range []*matrixRun{bits, iters} {
		if prev != nil && prev.res.Iterations != run.res.Iterations {
			t.Fatalf("%v: %d iterations, %v took %d", run, run.res.Iterations, prev, prev.res.Iterations)
		}
	}
	if paper != nil {
		switch got, bound := run.res.Iterations, paper.res.Iterations; {
		case got > bound || (!monotone && got < bound):
			t.Fatalf("%v: %d iterations, %v took %d", run, got, paper, bound)
		case got < bound:
			fewer[run.app.ent.Name] = true
		}
	}
	if walk != nil {
		i := 0
		for i < len(run.rounds) && i < len(walk.rounds) && run.rounds[i] == walk.rounds[i] {
			i++
		}
		if i < len(run.rounds) || i < len(walk.rounds) {
			t.Fatalf("%v: round %d starts from other lanes than %v's (%d rounds against %d)",
				run, i, walk, len(run.rounds), len(walk.rounds))
		}
		if run.cell.opt.Record && run.app.name == walk.app.name && run.res.EdgeCounters != walk.res.EdgeCounters {
			t.Fatalf("%v: Edge counters %+v, %v's %+v", run, run.res.EdgeCounters, walk, walk.res.EdgeCounters)
		}
	}
}

// onAnalog prunes the matrix on the T/U/D analogs, which are larger than the
// corpus graphs: every registered program meets the hybrid cell on the
// 16-vector grid (the registry's conformance bar), and the monotone-min ones,
// whose iteration counts the analogs' shapes decide, every cell marked for
// the analogs on the default and the 16-vector grid — the Record cells, which
// hold cc round by round to the full-vector walk, for cc alone. The generic
// rows and cc's write-intense variant run on the corpus only.
func onAnalog(app matrixApp, cell *matrixCell, kind apps.FusedKind, monotone bool, chunk int) bool {
	switch {
	case app.name != app.ent.Name || (chunk != 0 && chunk != 16):
		return false
	case cell.name == "hybrid" && chunk == 16:
		return true
	case cell.opt.Record:
		return cell.analogs && kind == apps.FusedMinProp
	}
	return cell.analogs && monotone
}

// runCold runs one program row through every cell on one graph.
func (m *matrixGraph) runCold(t *testing.T, app matrixApp) {
	g, cg := m.version(app.ent)
	p := matrixParams(app.ent, m.Root)
	want := app.ent.Reference(g, p)
	probe, err := app.make(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	start := frontier.NewDense(cg.N)
	probe.InitFrontier(start)
	startsFull := probe.UsesFrontier() && start.Full()
	monotone := apps.IsMonotoneMin(probe)
	kind := innerKind(probe)
	for i := range matrixCells {
		cell := &matrixCells[i]
		if app.generic && !cell.generic {
			continue
		}
		twins := []bool{false}
		if cell.twin && !app.generic && (kind == apps.FusedRankSum || kind == apps.FusedMinProp) {
			twins = append(twins, true)
		}
		for _, workers := range cell.workers {
			for _, chunk := range cell.chunks {
				if m.analog && !onAnalog(app, cell, kind, monotone, chunk) {
					continue
				}
				for _, twin := range twins {
					run := &matrixRun{app: app, cell: cell, workers: workers, chunk: chunk, twin: twin}
					prog, err := app.make(cg, p)
					if err != nil {
						t.Fatal(err)
					}
					observe(t, m.runner(cg, cell, workers, chunk, twin), prog, app.ent.MaxIters(p), nil, run)
					checkLanes(t, run, "the reference has", app.ent, run.res.Props, want, refClose)
					checkPaths(t, run, prog, m.paths, m.arms)
					checkAgainst(t, run, m.runs[app.ent.Name], monotone, m.fewer)
					if cell.opt.Record {
						checkCounters(t, run, prog, cg)
					}
					if cell.opt.AblateFrontierWork && run.res.SparseIterations != 0 {
						t.Fatalf("%v: %d list-driven rounds in the paper configuration", run, run.res.SparseIterations)
					}
					if startsFull && cell.opt.Mode != EnginePushOnly && run.pulls[1] == 0 {
						t.Fatalf("%v: a full first frontier did not pull", run)
					}
					// The road-mesh analog is what in-place pull is for: a
					// label crosses one span per round. (Every cell that runs
					// on the analogs is scheduler-aware.)
					if bound := inPlaceAfter + inPlaceSpans + 2; m.Name == "D-analog" && kind == apps.FusedMinProp &&
						chunk == 0 && !cell.opt.AblateFrontierWork && run.res.Iterations > bound {
						t.Fatalf("%v: mesh cc took %d iterations, want at most %d", run, run.res.Iterations, bound)
					}
					if run.res.SparseIterations > 0 {
						m.listDriven[app.ent.Name] = true
					}
					m.runs[app.ent.Name] = append(m.runs[app.ent.Name], run)
				}
			}
		}
	}
	m.ran++
}

// TestEquivalenceMatrix runs the matrix from a cold start, one graph per
// parallel subtest, then checks that it reached every Edge-Pull body, every
// Vertex arm, a list-driven round of every frontier program and an in-place
// finish ahead of the paper configuration for cc and sssp.
func TestEquivalenceMatrix(t *testing.T) {
	rows := matrixApps(t)
	graphs := matrixGraphs()
	t.Cleanup(func() {
		paths, arms, listDriven, fewer := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, m := range graphs {
			if m.ran < len(rows) {
				return // a partial matrix proves nothing about its reach
			}
			maps.Copy(paths, m.paths)
			maps.Copy(arms, m.arms)
			maps.Copy(listDriven, m.listDriven)
			maps.Copy(fewer, m.fewer)
		}
		for _, reach := range []struct {
			got    map[string]bool
			want   []string
			format string
		}{
			{paths, []string{pathSpan, pathChunk, pathVector, pathTraditional, pathOuterOnly, pathScalar}, "no pull round ran the %s"},
			{arms, []string{armMin, armOnce, armGeneric}, "no Vertex phase ran the %s"},
			{listDriven, []string{"bfs", "cc", "kcore", "sssp"}, "%s never ran a list-driven round"},
			{fewer, []string{"cc", "sssp"}, "%s never finished in fewer iterations than the paper configuration: the in-place path did not run"},
		} {
			for _, k := range reach.want {
				if !reach.got[k] {
					t.Errorf(reach.format, k)
				}
			}
		}
	})
	for _, m := range graphs {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			m.runs = map[string][]*matrixRun{}
			m.paths, m.arms, m.listDriven, m.fewer = map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
			defer m.close()
			for _, app := range rows {
				t.Run(app.name, func(t *testing.T) { m.runCold(t, app) })
			}
		})
	}
}

// TestEquivalenceMatrixIncremental is the matrix's seeded start. On each
// analog, every program in incrementalApps takes a batch of fresh inserts of
// each size in incrementalBatches; its cold run on the mutated graph meets the
// reference, and the run a query then gets — warm-started from cc's plan, cold
// for an app without a planner — on the hybrid cell's pinned grid at every
// worker count reports whether a seed applied and reproduces the cold run.
func TestEquivalenceMatrixIncremental(t *testing.T) {
	cell := cellNamed("hybrid")
	const chunk = 16
	for _, m := range matrixGraphs() {
		if !m.analog {
			continue
		}
		for _, app := range matrixApps(t) {
			if !slices.Contains(incrementalApps, app.name) || app.name != app.ent.Name {
				continue
			}
			g0, cg0 := m.version(app.ent)
			t.Run(m.Name+"/"+app.name, func(t *testing.T) {
				t.Parallel()
				paths, arms := map[string]bool{}, map[string]bool{}
				p := matrixParams(app.ent, m.Root)
				// start runs the row on cg at one point of the hybrid cell's
				// pinned grid, cold when seed is nil.
				start := func(cg *Graph, workers, maxIters int, seed *Seed) *matrixRun {
					run := &matrixRun{app: app, cell: cell, workers: workers, chunk: chunk, seeded: seed != nil}
					prog, err := app.make(cg, p)
					if err != nil {
						t.Fatal(err)
					}
					r := NewRunner(cg, cell.options(workers, chunk, false))
					defer r.Close()
					observe(t, r, prog, maxIters, seed, run)
					checkPaths(t, run, prog, paths, arms)
					return run
				}
				pred := start(cg0, 1, app.ent.MaxIters(p), nil)
				for _, n := range incrementalBatches {
					ops := freshInserts(g0, n)
					if len(ops) == 0 {
						t.Fatalf("no batch of size %d constructible", n)
					}
					g1 := graph.ApplyEdgeOps(g0, ops)
					seed := seedAfter(t, app.ent, g1, pred.res.Props, ops)
					cg1 := BuildGraph(g1)
					want := start(cg1, 1, app.ent.MaxIters(p), nil)
					checkLanes(t, want, "the reference has", app.ent, want.res.Props, app.ent.Reference(g1, p), refClose)
					for _, workers := range cell.workers {
						run := start(cg1, workers, app.ent.MaxIters(p), seed)
						if run.res.Seeded != (seed != nil) {
							t.Fatalf("batch %d, %v: Seeded = %t", n, run, run.res.Seeded)
						}
						checkLanes(t, run, fmt.Sprintf("batch %d: the cold run has", n), app.ent, run.res.Props, want.res.Props, seedClose)
					}
				}
			})
		}
	}
}
