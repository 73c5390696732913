package observe

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
)

// rb builds a rollback record the way the kernel's rollback path does.
func rb(wall time.Duration, lp, obj, src int32, anti bool, sendVT, recvVT, rolled, antis int64) Rollback {
	return Rollback{
		Wall: wall, LP: lp, Object: obj, Src: src, Anti: anti,
		SendVT: sendVT, RecvVT: recvVT, Rolled: rolled, Antis: antis,
		Parent: -1,
	}
}

// TestLinkChain checks attribution over a known straggler chain: a straggler
// hits object 1, whose antis roll back object 2, whose antis roll back
// object 3 — one cascade tree of depth 3.
func TestLinkChain(t *testing.T) {
	rbs := []Rollback{
		rb(10*time.Microsecond, 0, 1, 9, false, 50, 100, 5, 3), // root: straggler from obj 9
		rb(12*time.Microsecond, 1, 2, 1, true, 110, 115, 4, 2), // anti from obj 1's cancelled output
		rb(14*time.Microsecond, 2, 3, 2, true, 120, 130, 2, 0), // anti from obj 2's cancelled output
	}
	Link(rbs)
	if rbs[0].Parent != -1 || rbs[1].Parent != 0 || rbs[2].Parent != 1 {
		t.Fatalf("parents = %d,%d,%d; want -1,0,1", rbs[0].Parent, rbs[1].Parent, rbs[2].Parent)
	}
	cs := BuildCascades(rbs)
	if len(cs) != 1 {
		t.Fatalf("got %d cascades, want 1", len(cs))
	}
	c := cs[0]
	if c.Root != 0 || c.Members != 3 || c.Rolled != 11 || c.Antis != 5 || c.Depth != 3 {
		t.Fatalf("cascade = %+v; want root=0 members=3 rolled=11 antis=5 depth=3", c)
	}
}

// TestLinkPicksLatestEligibleParent: two rollbacks on the source object, both
// with rollback points before the cancelled output's send time — the later
// one must win (it is the episode that actually cancelled the output last).
func TestLinkPicksLatestEligibleParent(t *testing.T) {
	rbs := []Rollback{
		rb(10*time.Microsecond, 0, 1, 9, false, 50, 100, 3, 1),
		rb(20*time.Microsecond, 0, 1, 9, false, 60, 105, 2, 1),
		rb(25*time.Microsecond, 1, 2, 1, true, 110, 115, 1, 0),
	}
	Link(rbs)
	if rbs[2].Parent != 1 {
		t.Fatalf("parent = %d, want 1 (the latest eligible episode on obj 1)", rbs[2].Parent)
	}
}

// TestLinkRespectsVTConstraint: a source-object rollback whose rollback point
// lies after the cancelled output's send time cannot have cancelled it.
func TestLinkRespectsVTConstraint(t *testing.T) {
	rbs := []Rollback{
		rb(10*time.Microsecond, 0, 1, 9, false, 150, 200, 3, 1), // rolled back to 200
		rb(15*time.Microsecond, 1, 2, 1, true, 110, 115, 1, 0),  // output sent at 110 < 200
	}
	Link(rbs)
	if rbs[1].Parent != -1 {
		t.Fatalf("parent = %d, want -1 (rollback point 200 is past send_vt 110)", rbs[1].Parent)
	}
	if cs := BuildCascades(rbs); len(cs) != 2 {
		t.Fatalf("got %d cascades, want 2 (unattributed episode stays a root)", len(cs))
	}
}

// TestLinkSlackAbsorbsRecordingRace: the victim may log before the culprit
// (antis fly at episode start, records land after coast forward) — a parent
// recorded within linkSlack after the child still links.
func TestLinkSlackAbsorbsRecordingRace(t *testing.T) {
	rbs := []Rollback{
		rb(10*time.Microsecond, 1, 2, 1, true, 110, 115, 1, 0), // victim logs first
		rb(2*time.Millisecond, 0, 1, 9, false, 50, 100, 5, 3),  // culprit logs 2ms later
	}
	Link(rbs)
	if rbs[0].Parent != 1 {
		t.Fatalf("parent = %d, want 1 (within linkSlack)", rbs[0].Parent)
	}

	// Beyond the slack the episodes must stay unrelated.
	rbs = []Rollback{
		rb(10*time.Microsecond, 1, 2, 1, true, 110, 115, 1, 0),
		rb(10*time.Millisecond, 0, 1, 9, false, 50, 100, 5, 3),
	}
	Link(rbs)
	if rbs[0].Parent != -1 {
		t.Fatalf("parent = %d, want -1 (beyond linkSlack)", rbs[0].Parent)
	}
}

// TestBuildCascadesOrdering: costliest tree first.
func TestBuildCascadesOrdering(t *testing.T) {
	rbs := []Rollback{
		rb(10*time.Microsecond, 0, 1, 9, false, 50, 100, 2, 0),
		rb(20*time.Microsecond, 1, 4, 8, false, 60, 110, 9, 0),
	}
	Link(rbs)
	cs := BuildCascades(rbs)
	if len(cs) != 2 || cs[0].Root != 1 || cs[1].Root != 0 {
		t.Fatalf("cascades = %+v; want the 9-event tree first", cs)
	}
}

// TestReportRoughnessSummary: a report without the run record's summary folds
// the trace's roughness samples through the kernel's accumulator, and buckets
// its rollbacks as the kernel's depth histogram does.
func TestReportRoughnessSummary(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind([]int{0, 1}, time.Now())
	tr.System().Roughness(90, 100, 140, 120, 16, 1, 250)
	tr.System().Roughness(95, 110, 130, 120, 8, 0, 100)
	tr.LP(0).Rollback(1, 9, 50, 100, false, 1, 0, 0, 0)
	tr.LP(0).Rollback(1, 9, 60, 110, false, 3, 0, 0, 0)
	tr.LP(1).Rollback(2, 1, 110, 115, true, 700, 0, 0, 0)

	rep := NewReport(tr.Events(), nil)
	sa := rep.Samples[0]
	if len(rep.Samples) != 2 || sa.GVT != 90 || sa.Min != 100 || sa.Max != 140 || sa.Laggard != 1 || sa.Wasted != 0.25 {
		t.Fatalf("samples %+v; want two, the first at gvt 90 over [100,140] led by LP 1, 25%% wasted", rep.Samples)
	}
	want := stats.RoughnessSummary{Samples: 2, MeanWidth: 30, MaxWidth: 40, MeanStdDev: 12}
	if got := rep.RoughnessSummary(); got == nil || *got != want {
		t.Fatalf("summary %+v, want %+v", got, want)
	}
	h := rep.depthHist()
	if len(h) != len(stats.DepthBounds)+1 || h[0] != 1 || h[2] != 1 || h[len(h)-1] != 1 {
		t.Fatalf("hist = %v; want counts at <=1, <=4 and overflow", h)
	}
	rep.Summary = &stats.RunRecord{Roughness: &stats.RoughnessSummary{Samples: 7}}
	if got := rep.RoughnessSummary(); got != rep.Summary.Roughness {
		t.Fatalf("summary %+v, want the run record's own", got)
	}
}

// TestTraceRollbackAllocs guards the attributed rollback trace record
// itself: one ring slot write, no heap allocation.
func TestTraceRollbackAllocs(t *testing.T) {
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind([]int{0}, time.Now())
	lp := tr.LP(0)
	if n := testing.AllocsPerRun(200, func() {
		lp.Rollback(3, 1, 40, 42, false, 5, 2, 1, time.Microsecond)
	}); n != 0 {
		t.Fatalf("LPTrace.Rollback allocates %v per op, want 0", n)
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind([]int{0, 1}, time.Now())
	tr.LP(0).Rollback(3, 5, 37, 42, false, 5, 2, 1, 2500*time.Nanosecond)
	tr.LP(1).Rollback(7, 3, 41, 44, true, 2, 0, 0, 0)
	tr.LP(1).GVTCycle(40, 2, time.Microsecond)
	tr.System().Roughness(90, 80, 120, 100, 14, 1, 250)

	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	evs, kinds, err := telemetry.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if kinds["rollback"] != 2 || kinds["roughness"] != 1 || kinds["gvt"] != 1 {
		t.Fatalf("kind counts = %v", kinds)
	}

	rbs := ExtractRollbacks(evs)
	if len(rbs) != 2 {
		t.Fatalf("got %d rollbacks, want 2", len(rbs))
	}
	r := rbs[0]
	if r.Object != 3 || r.Src != 5 || r.SendVT != 37 || r.RecvVT != 42 ||
		r.Anti || r.Rolled != 5 || r.Coasted != 2 || r.Antis != 1 ||
		r.CoastDur != 2500*time.Nanosecond {
		t.Fatalf("rollback roundtrip = %+v", r)
	}
	if !rbs[1].Anti {
		t.Fatal("second rollback lost its anti cause")
	}

	rs := ExtractRoughness(evs)
	if len(rs) != 1 {
		t.Fatalf("got %d roughness samples, want 1", len(rs))
	}
	if rs[0].GVT != 90 || rs[0].Min != 80 || rs[0].Max != 120 || rs[0].Wasted != 0.25 || rs[0].Laggard != 1 {
		t.Fatalf("roughness roundtrip = %+v", rs[0])
	}
}

func TestParseJSONLMalformed(t *testing.T) {
	_, _, err := telemetry.ReadJSONL(strings.NewReader("{\"kind\":\"rollback\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// TestReportWriters checks the text report; the HTML page and its test are
// in cmd/twreport.
func TestReportWriters(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind([]int{0, 1}, time.Now())
	tr.LP(0).Rollback(1, 9, 50, 100, false, 5, 1, 3, time.Microsecond)
	tr.LP(1).Rollback(2, 1, 110, 115, true, 4, 0, 2, 0)
	tr.System().Roughness(90, 80, 120, 100, 14, 1, 250)

	// The record arrives as twreport's does: from an artifact's bytes.
	sum := &stats.RunRecord{}
	if err := json.Unmarshal([]byte(`{"model":"unit","final_partition":[0,0,1]}`), sum); err != nil {
		t.Fatal(err)
	}
	rep := NewReport(tr.Events(), sum)
	rep.KindCounts = map[string]int64{"rollback": 2, "roughness": 1}

	var text strings.Builder
	if err := rep.WriteText(&text, 5); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{
		"straggler from obj 9", "anti-message from obj 1", "cause obj 9",
		"roughness timeline", "depth histogram", "rollback             2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestExtractRollbacksSkipsInfiniteSentinels(t *testing.T) {
	// A roughness record with no finite LVTs never reaches the trace (the
	// kernel takes no sample then), but a parser must still tolerate extreme
	// values.
	evs := []telemetry.Event{{
		Kind: telemetry.KindRoughness, Wall: 5, VT: math.MinInt64,
		A: 10, B: 20, C: 15, D: 2, E: 0, Object: 0,
	}}
	rs := ExtractRoughness(evs)
	if len(rs) != 1 || rs[0].GVT != math.MinInt64 {
		t.Fatalf("roughness = %+v", rs)
	}
	if got := ExtractRollbacks(evs); len(got) != 0 {
		t.Fatalf("rollbacks = %+v, want none", got)
	}
}
