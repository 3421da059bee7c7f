// Package baselines unifies the four reimplemented comparison frameworks
// behind one interface so the figure harness can sweep them. See the
// subpackages for each framework's engine pattern.
package baselines

import (
	"repro/internal/apps"
	"repro/internal/baselines/base"
	"repro/internal/baselines/graphmat"
	"repro/internal/baselines/ligra"
	"repro/internal/baselines/polymer"
	"repro/internal/baselines/xstream"
	"repro/internal/graph"
	"repro/internal/numa"
)

// Framework is a prepared graph-processing engine instance.
type Framework interface {
	// Name identifies the framework in reports.
	Name() string
	// Run executes program p for at most maxIters rounds.
	Run(p apps.Program, maxIters int) base.Result
	// Close releases worker resources.
	Close()
}

// NewLigra builds standard Ligra (sparse/dense switching, sequential pull
// inner loop).
func NewLigra(g *graph.Graph, workers int) Framework {
	return ligra.New(g, ligra.Config{Workers: workers})
}

// NewLigraDense builds the forced-dense Ligra variant of Figs 12–13.
func NewLigraDense(g *graph.Graph, workers int) Framework {
	return ligra.New(g, ligra.Config{Workers: workers, Mode: ligra.ForceDensePull})
}

// NewLigraLoops builds Ligra in one of the Fig 1 loop-parallelization
// configurations.
func NewLigraLoops(g *graph.Graph, workers int, loops ligra.LoopConfig) Framework {
	return ligra.New(g, ligra.Config{Workers: workers, Loops: loops})
}

// NewPolymer builds the NUMA-partitioned Polymer reimplementation.
func NewPolymer(g *graph.Graph, topo numa.Topology) Framework {
	return polymer.New(g, polymer.Config{Topology: topo})
}

// NewGraphMat builds the SpMV-based GraphMat reimplementation; it fails on
// graphs exceeding 32-bit edge indexing.
func NewGraphMat(g *graph.Graph, workers int) (Framework, error) {
	return graphmat.New(g, graphmat.Config{Workers: workers})
}

// NewXStream builds the edge-centric X-Stream reimplementation (worker
// count rounded down to a power of two).
func NewXStream(g *graph.Graph, workers int) Framework {
	return xstream.New(g, xstream.Config{Workers: workers})
}
