// Command bench is the repository's one benchmark (see README.md in this
// directory and BENCHMARK.json at the module root). It runs five workloads
// against the engine, the single-process server and the cluster tier, checks
// every answer, and reports end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one. It measures the layers from outside:
// by timing calls into their public functions and by driving real `grazelle
// serve` / `router` / `worker` processes over HTTP.
//
//	go run ./bench                              all workloads, end to end
//	go run ./bench -trace 1                     all workloads, per layer
//	go run ./bench -workload serve-read -seed 7 -seconds 15 -trace 0
//	go run ./bench -aa                          same code twice; fails past a bound
//	go run ./bench -compare old.json new.json   regression report
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// workload is one row of BENCHMARK.json's workloads plus its constructor.
type workload struct {
	name string
	why  string
	new  func(e *env, seed int64) (instance, error)
}

var workloads = []workload{
	{"kernel-dense", "In-process PageRank on the most skewed graph: every iteration is a dense pull over Vector-Sparse; core, vsparse, vec and sched do all the work and store, qcache and HTTP none.", newKernelDense},
	{"kernel-frontier", "In-process cc and seeded bfs on an R-MAT graph and a road mesh: hybrid push/pull switching and hundreds of tiny iterations where per-iteration sched/coord overhead dominates.", newKernelFrontier},
	{"serve-read", "One grazelle serve under nproc closed-loop clients with Zipf-skewed roots: the hit ratio emerges from skew, so decode, qcache, admission, acquire and encoding do most of the work.", newServeRead},
	{"serve-mutate", "One grazelle serve -data-dir: edge batch, fresh cc, full pr, cached pr. Puts the WAL fsync and the O(E) re-materialisation of each version on the critical path.", newServeMutate},
	{"cluster-read", "Router plus two workers answering no_cache pr, cc and bfs: the only workload where internal/cluster's hub and per-iteration network exchange do most of the work.", newClusterRead},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeconds is the measured window, identical on every commit; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// commit is the revision the benchmark ran on: the build's VCS stamp, else
// what git says about the working directory, else "unknown" (the driver's
// checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// resultFile is what a pass writes to disk and -compare reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

func writeResultFile(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(resultFile{newMeta(), runs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the last line of standard output the driver parses.
func contractLine(r *runResult) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() (err error) {
	var (
		name     = flag.String("workload", "", "workload to run (default: all five)")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured window per workload, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		aa       = flag.Bool("aa", false, "run the untraced pass twice and fail if any end-to-end metric differs by more than its bound")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		out      = flag.String("out", "", "result file (default bench/out/result[-traced].json)")
	)
	flag.Parse()
	switch {
	case *manifest:
		return printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare old.json new.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case *trace != 0 && *trace != 1:
		return errors.New("-trace takes 0 or 1")
	case *seconds <= 0:
		return errors.New("-seconds must be positive")
	case *aa && *trace == 1:
		return errors.New("-aa compares end-to-end metrics; run it without -trace 1")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	// An interrupt cancels ctx, which stops every server (their commands are
	// bound to it) before the deferred stopAll waits for them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Compiling happens before any clock starts.
	bin, err := buildGrazelle(ctx)
	if err != nil {
		return err
	}
	e := &env{bin: bin, ps: &procSet{}, http: newHTTPClient(), nproc: runtime.NumCPU(), size: defaultSizing}
	defer func() { err = errors.Join(err, e.ps.stopAll(), leftovers()) }()

	pass := func() ([]*runResult, error) {
		var runs []*runResult
		for _, w := range selected {
			var r *runResult
			var err error
			if *trace == 1 {
				r, err = runTraced(ctx, e, w, *seed)
			} else {
				r, err = runUntraced(ctx, e, w, *seed, *seconds)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(r)
			runs = append(runs, r)
		}
		return runs, nil
	}

	runs, err := pass()
	if err != nil {
		return err
	}
	if *aa {
		again, err := pass()
		if err != nil {
			return err
		}
		runs = append(runs, again...)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
		if *trace == 1 {
			path = filepath.Join(outDir, "result-traced.json")
		}
	}
	if err := writeResultFile(path, runs); err != nil {
		return err
	}
	if *aa {
		return checkAA(os.Stdout, runs)
	}
	for _, r := range runs {
		fmt.Println(contractLine(r))
	}
	return nil
}

// leftovers fails the run if a server's data directory outlived it.
func leftovers() error {
	left, err := filepath.Glob(filepath.Join(outDir, "data-*"))
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return fmt.Errorf("data directories left behind: %v", left)
	}
	return nil
}
