package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is a flat label set attached to one series within a family.
// Rendered sorted by key so exposition output is deterministic.
type Labels map[string]string

func (l Labels) render(extra ...string) string {
	if len(l) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for _, k := range keys {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l[k]))
		sb.WriteByte('"')
	}
	// extra holds pre-formed k="v" pairs (the histogram le label), appended
	// after the sorted user labels.
	for _, kv := range extra {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(kv)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\n\"") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// kind of a metric family, controlling the # TYPE line and rendering.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of the value
// sources is set.
type series struct {
	labels      Labels
	counter     *Counter
	hist        *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration happens at subsystem start-up; reads
// (scrapes) are concurrent-safe with registration.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, k kind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	return f
}

func (r *Registry) add(name, help string, k kind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, k)
	key := s.labels.render()
	for _, old := range f.series {
		if old.labels.render() == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, key))
		}
	}
	f.series = append(f.series, s)
}

// Counter creates and registers a counter series. labels may be nil.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic values already maintained under another lock.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.add(name, help, kindCounter, &series{labels: labels, counterFunc: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, kindGauge, &series{labels: labels, gaugeFunc: fn})
}

// Histogram creates and registers a histogram series with the given bounds.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(name, help, kindHistogram, &series{labels: labels, hist: h})
	return h
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		v := uint64(0)
		if s.counter != nil {
			v = s.counter.Value()
		} else if s.counterFunc != nil {
			v = s.counterFunc()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels.render(), v)
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels.render(), formatFloat(s.gaugeFunc()))
		return err
	default:
		h := s.hist
		cum := h.Cumulative()
		bounds := h.Bounds()
		for i, b := range bounds {
			le := `le="` + formatFloat(b) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, s.labels.render(le), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, s.labels.render(`le="+Inf"`), cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels.render(), formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels.render(), h.Count())
		return err
	}
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, integers without an exponent.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as Prometheus text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
