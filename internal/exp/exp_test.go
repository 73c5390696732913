package exp

import (
	"strings"
	"testing"
	"time"

	"gowarp"
)

// quickBed returns a minimal-cost testbed so harness plumbing tests run in
// seconds: the figures' shapes are validated separately (EXPERIMENTS.md and
// the full benchmarks); here we verify structure and accounting.
func quickBed() Testbed {
	tb := Default()
	tb.Quick = true
	tb.EventCost = time.Microsecond
	tb.Cost = gowarp.CostModel{PerMessage: 5 * time.Microsecond}
	tb.StatePadding = 1 << 10
	return tb
}

func TestRatesStructure(t *testing.T) {
	fig, err := quickBed().Rates()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Rows) != 1 || s.Rows[0].Seconds <= 0 || s.Rows[0].Rate <= 0 {
			t.Errorf("series %s malformed: %+v", s.Name, s.Rows)
		}
	}
}

func TestFig5Structure(t *testing.T) {
	fig, err := quickBed().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want PC+AC, PC+LC, DynCkpt+LC", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Rows) != 2 {
			t.Errorf("series %s has %d rows, want raid+smmp", s.Name, len(s.Rows))
		}
	}
	// The dynamic-checkpointing run must actually adjust intervals.
	dyn := fig.Series[2]
	for _, r := range dyn.Rows {
		if r.Stats.CheckpointAdjustments == 0 {
			t.Errorf("dynamic checkpointing made no adjustments (x=%g)", r.X)
		}
	}
}

func TestFig6And7Structure(t *testing.T) {
	f6, err := quickBed().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Series) != 6 {
		t.Errorf("fig6 series = %d, want 6 strategies", len(f6.Series))
	}
	f7, err := quickBed().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Series) != 5 {
		t.Errorf("fig7 series = %d, want 5 strategies", len(f7.Series))
	}
	for _, s := range f7.Series {
		if len(s.Rows) != 3 {
			t.Errorf("fig7 %s rows = %d, want 3 vector counts", s.Name, len(s.Rows))
		}
		// Execution time must grow with workload.
		if len(s.Rows) == 3 && s.Rows[2].Seconds < s.Rows[0].Seconds {
			t.Errorf("fig7 %s: 10000 vectors faster than 2000 (%.3f < %.3f)",
				s.Name, s.Rows[2].Seconds, s.Rows[0].Seconds)
		}
	}
}

func TestDyMAFigureStructure(t *testing.T) {
	fig, err := quickBed().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want FAW, SAAW, Unaggregated", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Rows) != len(dymaAges) {
			t.Errorf("%s rows = %d, want %d ages", s.Name, len(s.Rows), len(dymaAges))
		}
	}
	// Aggregation must actually aggregate at generous windows.
	faw := fig.Series[0]
	last := faw.Rows[len(faw.Rows)-1]
	if last.Stats.AggregatedEvents == 0 {
		t.Error("FAW at the largest age aggregated nothing")
	}
}

func TestRenderIncludesEverySeries(t *testing.T) {
	fig := Figure{
		Name: "x", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Rows: []Row{{X: 1, Seconds: 0.5}}},
			{Name: "b", Rows: []Row{{X: 1, Seconds: 0.7}}},
		},
	}
	out := fig.Render()
	for _, want := range []string{"a", "b", "0.500", "0.700", "== x: t =="} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	empty := Figure{Name: "e", Title: "t"}
	if out := empty.Render(); !strings.Contains(out, "== e") {
		t.Error("empty figure render broken")
	}
}

func TestRepeatAverages(t *testing.T) {
	tb := quickBed()
	tb.Repeat = 2
	m, cfg := tb.smmp(100, 0)
	row, err := tb.run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Seconds <= 0 {
		t.Error("averaged seconds must be positive")
	}
}

func TestCSV(t *testing.T) {
	fig := Figure{
		Name: "figx",
		Series: []Series{
			{Name: "A", Rows: []Row{{X: 1, Seconds: 0.25, Rate: 1000}}},
			{Name: "B", Rows: []Row{{X: 1, Seconds: 0.5, Rate: 500}}},
		},
	}
	out := fig.CSV()
	for _, want := range []string{"figure,series,x", "figx,A,1,0.250000,1000.0", "figx,B,1,0.500000,500.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV lacks %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("CSV rows = %d, want header + 2", got)
	}
}
