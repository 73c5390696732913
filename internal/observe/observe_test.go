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

func TestSamplerRoughness(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind(4, time.Now())
	s := NewSampler(time.Hour) // tick never fires; we sample explicitly
	s.Bind(4, tr.System())

	s.PublishLVT(0, 100)
	s.PublishLVT(1, 140)
	s.PublishLVT(2, 120)
	// LP 3 never publishes: it must not drag min to the unpublished sentinel.
	s.PublishGVT(90)
	// Two GVT applications' worth of run totals, as the LPs feed them.
	s.AddProgress(80, 20)
	s.AddProgress(120, 0)
	s.RecordRollback(1)
	s.RecordRollback(3)
	s.RecordRollback(700) // overflow bucket

	s.Start()
	s.Stop() // takes the final sample

	sum := s.Summary()
	if sum == nil || sum.Samples != 1 {
		t.Fatalf("summary = %+v, want 1 sample", sum)
	}
	if sum.MaxWidth != 40 || sum.MeanWidth != 40 {
		t.Fatalf("width = %+v, want 40 (140-100)", sum)
	}

	hist := s.DepthHist()
	if len(hist) != len(DepthBounds)+1 {
		t.Fatalf("hist len = %d, want %d", len(hist), len(DepthBounds)+1)
	}
	if hist[0] != 1 || hist[2] != 1 || hist[len(hist)-1] != 1 {
		t.Fatalf("hist = %v; want counts at <=1, <=4 and overflow", hist)
	}

	samples := ExtractRoughness(tr.Events())
	if len(samples) != 1 {
		t.Fatalf("got %d roughness samples, want 1", len(samples))
	}
	sa := samples[0]
	if sa.Min != 100 || sa.Max != 140 || sa.GVT != 90 || sa.Laggard != 0 {
		t.Fatalf("sample = %+v; want min=100 max=140 gvt=90 laggard=0", sa)
	}
	if sa.Wasted != 0.1 { // 20 rolled / 200 committed
		t.Fatalf("wasted = %v, want 0.1", sa.Wasted)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Bind(4, nil)
	s.BindMetrics(nil)
	s.PublishLVT(0, 1)
	s.PublishGVT(1)
	s.AddProgress(1, 0)
	s.RecordRollback(1)
	s.Start()
	s.Stop()
	if s.Summary() != nil || s.DepthHist() != nil || s.Period() != 0 {
		t.Fatal("nil sampler must return zero aggregates")
	}

	// Bound but unstarted, metrics-less, tracer-less: hooks still safe.
	s2 := NewSampler(0)
	if s2.Period() != DefaultPeriod {
		t.Fatalf("period = %v, want default", s2.Period())
	}
	s2.Bind(2, nil)
	s2.PublishLVT(0, 5)
	s2.PublishLVT(7, 5) // out of range
	s2.RecordRollback(2)
	s2.Start()
	s2.Stop()
	if s2.Summary() == nil {
		t.Fatal("bound sampler with published LVTs should produce a final sample")
	}
}

// TestSamplerHotPathAllocs is the zero-allocation guard for the per-event and
// per-rollback publishing hooks (issue satellite: sampling and attribution
// must not put allocations on the kernel's hot path).
func TestSamplerHotPathAllocs(t *testing.T) {
	s := NewSampler(time.Hour)
	s.Bind(4, nil)
	if n := testing.AllocsPerRun(200, func() {
		s.PublishLVT(1, 42)
		s.PublishGVT(40)
		s.AddProgress(10, 2)
		s.RecordRollback(3)
	}); n != 0 {
		t.Fatalf("sampler hot path allocates %v per op, want 0", n)
	}
}

// TestTraceRollbackAllocs guards the attributed rollback trace record
// itself: one ring slot write, no heap allocation.
func TestTraceRollbackAllocs(t *testing.T) {
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind(1, time.Now())
	lp := tr.LP(0)
	if n := testing.AllocsPerRun(200, func() {
		lp.Rollback(3, 1, 40, 42, false, 5, 2, 1, time.Microsecond)
	}); n != 0 {
		t.Fatalf("LPTrace.Rollback allocates %v per op, want 0", n)
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind(2, time.Now())
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
	tr.Bind(2, time.Now())
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
	// sampler skips n==0), but a parser must still tolerate extreme values.
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
