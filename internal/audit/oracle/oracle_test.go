package oracle

import (
	"fmt"
	"strings"
	"testing"

	"gowarp/internal/apps/phold"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

func testModel(seed uint64) *model.Model {
	return phold.New(phold.Config{
		Objects:         16,
		TokensPerObject: 3,
		MeanDelay:       10,
		Locality:        0.2,
		LPs:             4,
		Seed:            seed,
	})
}

func TestMatrixShape(t *testing.T) {
	cells := Matrix()
	if len(cells) != 27 {
		t.Fatalf("matrix has %d cells, want 27", len(cells))
	}
	names := make(map[string]bool, len(cells))
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		n := c.Name()
		if names[n] {
			t.Errorf("duplicate cell name %q", n)
		}
		names[n] = true
	}
	diag := Diagonal()
	if len(diag) != 9 {
		t.Fatalf("diagonal has %d cells, want 9", len(diag))
	}
	seen := make(map[int]bool)
	facet := map[string]map[string]int{"ck": {}, "ca": {}, "ag": {}}
	for _, c := range diag {
		if seen[c.Index] {
			t.Errorf("diagonal repeats cell %d (%s)", c.Index, c.Name())
		}
		seen[c.Index] = true
		ix := c.Index
		facet["ag"][fmt.Sprint(ix%3)]++
		facet["ca"][fmt.Sprint(ix/3%3)]++
		facet["ck"][fmt.Sprint(ix/9%3)]++
	}
	for name, vals := range facet {
		if len(vals) != 3 {
			t.Errorf("diagonal covers only %d values of facet %s", len(vals), name)
		}
	}
}

// TestOracleMatrixPHOLD is the heart of the harness: a contentious PHOLD
// instance through the full 27-cell matrix (the 9-cell diagonal under
// -short), every parallel leg audited, plus a conservative leg.
func TestOracleMatrixPHOLD(t *testing.T) {
	opts := Options{
		Name:      "phold",
		EndTime:   1200,
		Optimism:  core.OptimismConfig{Window: 100},
		Lookahead: 1,
	}
	if testing.Short() {
		opts.Cells = Diagonal()
	}
	rep, err := Run(testModel(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("%s\n%v", rep.Render(), err)
	}
	if rep.TotalChecks == 0 {
		t.Error("no invariant checks ran")
	}
	if rep.ConservativeCommitted < 0 {
		t.Error("conservative leg did not run")
	}
}

func TestReportErrSurfacesFailures(t *testing.T) {
	rep := &Report{
		Model:                 "synthetic",
		RefExecuted:           100,
		ConservativeCommitted: -1,
		Cells: []CellResult{
			{Cell: Matrix()[0], Committed: 100},
			{Cell: Matrix()[1], Committed: 99, Mismatch: "committed 99 events, reference executed 100"},
		},
	}
	if got := len(rep.Failed()); got != 1 {
		t.Fatalf("Failed() returned %d cells, want 1", got)
	}
	err := rep.Err()
	if err == nil {
		t.Fatal("Err() nil with a diverged cell")
	}
	if !strings.Contains(err.Error(), "reference executed 100") {
		t.Errorf("error does not carry the mismatch: %v", err)
	}
	if !strings.Contains(rep.Render(), "FAIL") {
		t.Error("render does not flag the failed cell")
	}
}

func TestFuzzSpecDecodesTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, in := range inputs {
		spec := DecodeFuzzSpec(in)
		if spec.Objects < 2 || spec.Objects > 11 {
			t.Errorf("%v: objects %d out of range", in, spec.Objects)
		}
		if spec.LPs < 1 || spec.LPs > 4 {
			t.Errorf("%v: LPs %d out of range", in, spec.LPs)
		}
		if spec.Cell < 0 || spec.Cell > 26 {
			t.Errorf("%v: cell %d out of range", in, spec.Cell)
		}
		if spec.Seed == 0 {
			t.Errorf("%v: zero seed", in)
		}
		if spec.EndTime < 200 {
			t.Errorf("%v: end time %s too small", in, spec.EndTime)
		}
		if m := spec.Model(); m.Validate() != nil {
			t.Errorf("%v: decoded model invalid: %v", in, m.Validate())
		}
	}

	// What bytes 9 and 10 of a stored input mean: byte 9 alone is a static
	// window, byte 10 an adaptive run with a window of its own, whatever
	// byte 9 says.
	for _, tc := range []struct {
		b9, b10 byte
		mode    core.OptimismMode
		window  vtime.Time
	}{
		{0, 0, core.OptimismStatic, 0},
		{1, 0, core.OptimismStatic, 51},
		{200, 0, core.OptimismStatic, 50},
		{255, 0, core.OptimismStatic, 105},
		{0, 1, core.OptimismAdaptive, 41},
		{9, 7, core.OptimismAdaptive, 47},
		{255, 255, core.OptimismAdaptive, 95},
	} {
		in := make([]byte, 12)
		in[9], in[10] = tc.b9, tc.b10
		got := DecodeFuzzSpec(in).Options().Optimism
		if got.Mode != tc.mode || got.Window != tc.window {
			t.Errorf("b9=%d b10=%d: %s window %d, want %s window %d",
				tc.b9, tc.b10, got.Mode, got.Window, tc.mode, tc.window)
		}
	}
}
