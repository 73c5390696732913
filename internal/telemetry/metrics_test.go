package telemetry

import (
	"io"
	"strings"
	"testing"
)

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Bind(2)
	g := r.Gauge("gowarp_gvt", "Last computed GVT.", false)
	c := r.Counter("gowarp_rollbacks_total", "Rollback episodes.", true)
	g.Set(0, 1500)
	c.Set(0, 7)
	c.Set(1, 2.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gowarp_gvt Last computed GVT.
# TYPE gowarp_gvt gauge
gowarp_gvt 1500
# HELP gowarp_rollbacks_total Rollback episodes.
# TYPE gowarp_rollbacks_total counter
gowarp_rollbacks_total{lp="0"} 7
gowarp_rollbacks_total{lp="1"} 2.5
`
	if got := b.String(); got != want {
		t.Errorf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPerLPSingleLP checks a per-LP metric still renders with its lp label
// when the run has one LP (the slot array collapses, the labelling must not).
func TestPerLPSingleLP(t *testing.T) {
	r := NewRegistry()
	r.Bind(1)
	r.Gauge("gowarp_efficiency", "Committed over processed events.", true).Set(0, 0.875)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `gowarp_efficiency{lp="0"} 0.875`) {
		t.Errorf("single-LP per-LP metric lost its label:\n%s", b.String())
	}
}

func TestMetricNilAndBounds(t *testing.T) {
	var m *Metric
	m.Set(0, 1) // no-op, must not panic
	if got := m.Get(0); got != 0 {
		t.Fatalf("nil metric Get = %g, want 0", got)
	}
	var r *Registry
	r.Bind(4)
	if m := r.Gauge("x", "", false); m != nil {
		t.Fatalf("nil registry Gauge = %v, want nil", m)
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.Bind(2)
	g := reg.Gauge("g", "h", true)
	g.Set(-1, 5) // out of range: dropped
	g.Set(2, 5)
	if g.Get(0) != 0 || g.Get(1) != 0 {
		t.Errorf("out-of-range Set leaked into valid slots")
	}
	if got := g.Get(7); got != 0 {
		t.Errorf("out-of-range Get = %g, want 0", got)
	}
}

func TestRegistryRebind(t *testing.T) {
	r := NewRegistry()
	r.Bind(2)
	r.Gauge("a", "first run", false).Set(0, 1)
	r.Bind(4)
	if kept := r.Snapshot(); len(kept) != 0 {
		t.Fatalf("rebind kept metrics %v, want none", kept)
	}
	m := r.Gauge("b", "second run", true)
	m.Set(3, 9)
	if got := m.Get(3); got != 9 {
		t.Fatalf("slot 3 after rebind to 4 LPs = %g, want 9", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Bind(2)
	r.Gauge("global", "", false).Set(0, 3)
	per := r.Gauge("per", "", true)
	per.Set(0, 1)
	per.Set(1, 2)
	snap := r.Snapshot()
	if got, ok := snap["global"].(float64); !ok || got != 3 {
		t.Errorf("snapshot global = %v, want 3", snap["global"])
	}
	if got, ok := snap["per"].([]float64); !ok || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("snapshot per = %v, want [1 2]", snap["per"])
	}
}

func TestFmtVal(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {0.5, "0.5"}, {1e18, "1e+18"},
	} {
		if got := fmtVal(tc.v); got != tc.want {
			t.Errorf("fmtVal(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
