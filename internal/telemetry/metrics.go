package telemetry

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a live metrics registry: a set of named metrics with one
// atomic float64 slot per logical process (or a single global slot), sampled
// by the kernel each control period and rendered on demand in Prometheus
// text-exposition format or as a plain map. Writers (LP goroutines) touch
// only atomic slots; readers (scrapes) never block writers. Serving it over
// HTTP is package gowarp/metricshttp's job: nothing a simulation links imports
// net/http or expvar (TestKernelImportGraph).
type Registry struct {
	mu      sync.RWMutex
	numLPs  int
	order   []string
	metrics map[string]*Metric
	hists   map[string]*HistMetric
}

// NewRegistry returns an empty registry. Hand it to the kernel via the run
// configuration; the kernel binds it and creates its metric set at run
// start, so a scrape before (or between) runs just renders nothing.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*Metric{}, hists: map[string]*HistMetric{}}
}

// Bind sizes per-LP metrics for numLPs logical processes, discarding any
// metrics from a previous run. Nil-safe.
func (r *Registry) Bind(numLPs int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.numLPs = numLPs
	r.order = nil
	r.metrics = map[string]*Metric{}
	r.hists = map[string]*HistMetric{}
}

// Metric is one named gauge or counter. Values are float64 bits in atomic
// slots: slot i belongs to LP i (per-LP metrics) or slot 0 to the whole run.
type Metric struct {
	name, help, typ string
	label           string // slot-index label name; default "lp"
	perLP           bool
	vals            []atomic.Uint64
}

// WithLabel renames the slot-index label (default "lp") — for per-slot
// metrics whose index is not an LP id, e.g. a pool worker id. Returns the
// metric for chaining at registration. Nil-safe.
func (m *Metric) WithLabel(label string) *Metric {
	if m != nil {
		m.label = label
	}
	return m
}

func (r *Registry) metric(name, help, typ string, perLP bool) *Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	slots := 1
	if perLP && r.numLPs > 1 {
		slots = r.numLPs
	}
	m := &Metric{name: name, help: help, typ: typ, label: "lp", perLP: perLP, vals: make([]atomic.Uint64, slots)}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Gauge registers (or fetches) a gauge. perLP gives the metric one labelled
// series per logical process; otherwise it is a single global series.
func (r *Registry) Gauge(name, help string, perLP bool) *Metric {
	return r.metric(name, help, "gauge", perLP)
}

// Counter registers (or fetches) a cumulative counter.
func (r *Registry) Counter(name, help string, perLP bool) *Metric {
	return r.metric(name, help, "counter", perLP)
}

// HistMetric is one named histogram: fixed ascending upper bounds with an
// implicit +Inf overflow bucket, per-bucket atomic counts and an atomic sum.
// Like Metric, writers touch only atomic slots and readers never block them.
type HistMetric struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; the last slot is +Inf
	sum        atomic.Uint64   // float64 bits
}

// Histogram registers (or fetches) a histogram with the given bucket upper
// bounds (ascending; the +Inf bucket is implicit). Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *HistMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &HistMetric{name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1)}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// SetAll replaces the per-bucket counts (non-cumulative, +Inf last) and the
// sum wholesale — the mirror path for recorders that keep their own atomic
// tallies and publish periodically. Extra or missing buckets are ignored.
// Nil-safe.
func (h *HistMetric) SetAll(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	for i := range h.counts {
		if i < len(counts) {
			h.counts[i].Store(counts[i])
		}
	}
	h.sum.Store(math.Float64bits(sum))
}

// Counts returns the per-bucket counts (non-cumulative, +Inf last), the sum
// and the total count.
func (h *HistMetric) Counts() (counts []uint64, sum float64, total uint64) {
	if h == nil {
		return nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, math.Float64frombits(h.sum.Load()), total
}

func (h *HistMetric) writePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
		return err
	}
	counts, sum, total := h.Counts()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, fmtVal(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		h.name, total, h.name, fmtVal(sum), h.name, total); err != nil {
		return err
	}
	return nil
}

// Set stores v into lp's slot. Global metrics ignore lp. Nil-safe.
func (m *Metric) Set(lp int, v float64) {
	if m == nil {
		return
	}
	if len(m.vals) == 1 {
		lp = 0
	}
	if lp < 0 || lp >= len(m.vals) {
		return
	}
	m.vals[lp].Store(math.Float64bits(v))
}

// Get returns lp's current value (slot 0 for global metrics).
func (m *Metric) Get(lp int) float64 {
	if m == nil {
		return 0
	}
	if len(m.vals) == 1 {
		lp = 0
	}
	if lp < 0 || lp >= len(m.vals) {
		return 0
	}
	return math.Float64frombits(m.vals[lp].Load())
}

// fmtVal renders a metric value the Prometheus way (no exponent for the
// common integral case).
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	metrics := make([]*Metric, len(names))
	hists := make([]*HistMetric, len(names))
	for i, n := range names {
		metrics[i] = r.metrics[n]
		hists[i] = r.hists[n]
	}
	r.mu.RUnlock()
	for i, m := range metrics {
		if m == nil {
			if err := hists[i].writePrometheus(w); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		if !m.perLP {
			if _, err := fmt.Fprintf(w, "%s %s\n", m.name, fmtVal(m.Get(0))); err != nil {
				return err
			}
			continue
		}
		for lp := range m.vals {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%d\"} %s\n", m.name, m.label, lp, fmtVal(m.Get(lp))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns the current values as a plain map — per-LP metrics map
// to a slice indexed by LP. It backs metricshttp's expvar export.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		m := r.metrics[name]
		if m == nil {
			counts, sum, total := r.hists[name].Counts()
			out[name] = map[string]any{"counts": counts, "sum": sum, "count": total}
			continue
		}
		if !m.perLP {
			out[name] = m.Get(0)
			continue
		}
		vs := make([]float64, len(m.vals))
		for i := range vs {
			vs[i] = m.Get(i)
		}
		out[name] = vs
	}
	return out
}
