// Package fault is a stdlib-only failpoint framework for chaos testing the
// serving stack. Production code marks fault injection sites with
// Inject("layer/site"); tests (or an operator, via the GRAZELLE_FAILPOINTS
// environment variable) arm those sites with a mode — return an error, panic,
// or delay — and an optional shot budget. Disarmed, a site costs a single
// atomic load.
//
// Spec mini-language (used by Enable and the environment variable):
//
//	error                inject ErrInjected
//	error:<msg>          inject an error with the given message
//	panic                panic with an injected-panic message
//	delay:<duration>     sleep for the given time.ParseDuration duration
//	off                  disarm the site
//
// Any spec may carry a shot budget suffix "*N": the site fires on its first
// N evaluations and is a no-op afterwards ("panic*1" panics exactly once).
// GRAZELLE_FAILPOINTS holds a semicolon- or comma-separated list of
// name=spec entries, e.g.
//
//	GRAZELLE_FAILPOINTS='core/chunk=panic*1;store/rehydrate=error*2'
//
// Sites are free-form strings; by convention they name the layer and the
// operation ("store/snapshot-write"). The registered sites in this
// repository are listed in DESIGN.md's fault-model section.
package fault

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every error a failpoint injects, so
// recovery paths under test can recognize synthetic failures with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// EnvVar is the environment variable consulted at process start.
const EnvVar = "GRAZELLE_FAILPOINTS"

// Mode is what an armed failpoint does when evaluated.
type Mode uint8

const (
	// ModeOff leaves the site disarmed.
	ModeOff Mode = iota
	// ModeError makes Inject return an error.
	ModeError
	// ModePanic makes Inject panic.
	ModePanic
	// ModeDelay makes Inject sleep, then return nil — for exercising
	// timeout paths without real slow I/O.
	ModeDelay
)

// point is one armed failpoint.
type point struct {
	name  string
	mode  Mode
	err   error
	delay time.Duration
	// remaining is the shot budget (-1 = unlimited); hits counts fires.
	remaining atomic.Int64
	hits      atomic.Uint64
}

var (
	// armed short-circuits Inject when no site is active. table is a
	// copy-on-write map so Inject never takes a lock; mu serializes writers.
	armed atomic.Bool
	table atomic.Pointer[map[string]*point]
	mu    sync.Mutex
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := EnableFromSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "fault: ignoring invalid %s: %v\n", EnvVar, err)
		}
	}
}

// Inject evaluates the named failpoint. Disarmed (the overwhelmingly common
// case) it returns nil after one atomic load. Armed, it consumes one shot
// from the budget and acts per the site's mode: ModeError returns the
// injected error, ModePanic panics with a recognizable message, ModeDelay
// sleeps and returns nil.
func Inject(name string) error {
	if !armed.Load() {
		return nil
	}
	tp := table.Load()
	if tp == nil {
		return nil
	}
	p := (*tp)[name]
	if p == nil || p.mode == ModeOff {
		return nil
	}
	// Consume a shot. A negative budget means unlimited.
	for {
		rem := p.remaining.Load()
		if rem == 0 {
			return nil
		}
		if rem < 0 || p.remaining.CompareAndSwap(rem, rem-1) {
			break
		}
	}
	p.hits.Add(1)
	switch p.mode {
	case ModeError:
		return p.err
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at %q", name))
	case ModeDelay:
		time.Sleep(p.delay)
	}
	return nil
}

// Enable arms the named failpoint with a spec (see the package comment for
// the mini-language). It returns a disarm function for use with defer in
// tests. Re-enabling a site replaces its previous arming and resets its hit
// count.
func Enable(name, spec string) (disarm func(), err error) {
	p, err := parseSpec(name, spec)
	if err != nil {
		return nil, err
	}
	set(name, p)
	return func() { Disable(name) }, nil
}

// EnableFromSpec arms every site in a semicolon- or comma-separated list of
// name=spec entries — the GRAZELLE_FAILPOINTS format.
func EnableFromSpec(list string) error {
	for _, ent := range strings.FieldsFunc(list, func(r rune) bool { return r == ';' || r == ',' }) {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, spec, ok := strings.Cut(ent, "=")
		if !ok {
			return fmt.Errorf("fault: malformed entry %q (want name=spec)", ent)
		}
		if _, err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms the named failpoint.
func Disable(name string) { set(name, nil) }

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	table.Store(nil)
	armed.Store(false)
}

// Hits reports how many times the named failpoint has fired since it was
// last enabled.
func Hits(name string) uint64 {
	if tp := table.Load(); tp != nil {
		if p := (*tp)[name]; p != nil {
			return p.hits.Load()
		}
	}
	return 0
}

// set installs (or, with nil, removes) a point under the copy-on-write
// discipline.
func set(name string, p *point) {
	mu.Lock()
	defer mu.Unlock()
	old := table.Load()
	nw := make(map[string]*point)
	if old != nil {
		for k, v := range *old {
			nw[k] = v
		}
	}
	if p == nil {
		delete(nw, name)
	} else {
		nw[name] = p
	}
	if len(nw) == 0 {
		table.Store(nil)
		armed.Store(false)
		return
	}
	table.Store(&nw)
	armed.Store(true)
}

// parseSpec builds a point from the spec mini-language.
func parseSpec(name, spec string) (*point, error) {
	shots := int64(-1)
	if base, n, ok := strings.Cut(spec, "*"); ok {
		v, err := strconv.ParseInt(n, 10, 64)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("fault: bad shot budget in %q", spec)
		}
		shots = v
		spec = base
	}
	mode, arg, _ := strings.Cut(spec, ":")
	p := &point{name: name}
	p.remaining.Store(shots)
	switch mode {
	case "off":
		return nil, nil
	case "error":
		p.mode = ModeError
		if arg != "" {
			p.err = fmt.Errorf("fault: %s at %q: %w", arg, name, ErrInjected)
		} else {
			p.err = fmt.Errorf("fault: injected error at %q: %w", name, ErrInjected)
		}
	case "panic":
		p.mode = ModePanic
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("fault: bad delay in %q: %v", spec, err)
		}
		p.mode = ModeDelay
		p.delay = d
	default:
		return nil, fmt.Errorf("fault: unknown mode %q (want error, panic, delay, off)", mode)
	}
	return p, nil
}
