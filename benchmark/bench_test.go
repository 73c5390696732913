package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: measure
// re-executes os.Executable() with -child, which here is this test.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/100 size with one run of each kind and
// every layer driver at minimal iterations, and checks that every metric the
// tables name comes out — so tier-1 `go test ./...` keeps the
// benchmark compiling and honest as internals move.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 11, trace: true, div: 100, runs: 1}
	rep, err := runSet(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.write(dir); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("measured %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range rep.Workloads {
		if w.Failed != 0 {
			t.Errorf("%s: %d of %d runs failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
			continue
		}
		if w.RefCommitted == 0 || w.RefHash == 0 {
			t.Errorf("%s: empty sequential reference", w.Name)
		}
		for _, d := range endToEnd {
			if s := w.Metrics[d.Name]; s.N < 1 || s.Median <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, s)
			}
		}
		if s := w.Metrics["failed_run_share"]; s.N != 1 || s.Median != 0 {
			t.Errorf("%s: failed_run_share = %+v", w.Name, s)
		}
		for _, d := range perLayer {
			_, driver := rep.Layers[d.Name]
			_, traced := w.Traced[d.Name]
			if driver == traced {
				t.Errorf("%s: per-layer metric %s: from a driver %v, from the traced run %v; want exactly one",
					w.Name, d.Name, driver, traced)
			}
		}
		if n := len(rep.Layers) + len(w.Traced); n != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d names", w.Name, n, len(perLayer))
		}
		if w.Traced["apps.execute_ns_per_event"] <= 0 {
			t.Errorf("%s: the model decorator timed nothing", w.Name)
		}
		if def, _ := findWorkload(w.Name); def.Engine == "lp" && w.Traced["comm.send_ns.p50"] <= 0 {
			t.Errorf("%s: the transport wrapper timed nothing", w.Name)
		}

		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var tf struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
		if len(tf.Spans) < 3 || tf.Spans[0].Parent != -1 || tf.Spans[1].Parent != tf.Spans[0].ID {
			t.Errorf("%s: trace file holds no span tree: %+v", w.Name, tf.Spans)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "latest.json")); err != nil {
		t.Error(err)
	}

	// The driver's result line: exactly the end-to-end names untraced, exactly
	// the per-layer names traced.
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		line := rep.contractLine(traced)
		metrics := line["metrics"].(map[string]any)
		if len(metrics) != len(defs) {
			t.Errorf("result line (trace %v) carries %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := metrics[d.Name]; !ok {
				t.Errorf("result line (trace %v) lacks %s", traced, d.Name)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the contract the driver reads, in
// step with the tables the program prints from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.Ungated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
