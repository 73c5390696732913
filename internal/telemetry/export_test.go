package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenEvents is one hand-built event of every kind, in wall order, as the
// kernel would have recorded them.
func goldenEvents() []Event {
	return []Event{
		{Kind: KindRollback, Wall: 1500, LP: 0, Object: 3, VT: 42, A: CauseStraggler, B: 5, C: 2, D: 5, E: 37, F: 1, Dur: 2500},
		{Kind: KindCheckpointAdjust, Wall: 2000, LP: 1, Object: 7, A: 4, B: 8, Dur: 125000},
		{Kind: KindStrategySwitch, Wall: 3000, LP: 1, Object: 7, A: 1, B: 375},
		{Kind: KindGVT, Wall: 4000, LP: 0, Object: -1, VT: 100, A: 2, Dur: 50000},
		{Kind: KindFlush, Wall: 5000, LP: 2, Object: 1, A: 1, B: 12, C: 288},
		{Kind: KindWindowAdjust, Wall: 6000, LP: 2, Object: 1, A: 100000, B: 50000},
		{Kind: KindRoughness, Wall: 7000, LP: -1, Object: 2, VT: 90, A: 80, B: 120, C: 100, D: 14, E: 250},
	}
}

func TestWriteJSONLGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteJSONL(&b, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	want := `{"wall_us":1.500,"kind":"rollback","lp":0,"object":3,"vt":42,"cause":"straggler","src":5,"send_vt":37,"rolled":5,"coasted":2,"antis":1,"coast_us":2.500}
{"wall_us":2.000,"kind":"checkpoint_adjust","lp":1,"object":7,"old_chi":4,"new_chi":8,"ec_us":125.000}
{"wall_us":3.000,"kind":"strategy_switch","lp":1,"object":7,"to":"lazy","hit_ratio":0.375}
{"wall_us":4.000,"kind":"gvt","lp":0,"vt":100,"rounds":2,"cycle_us":50.000}
{"wall_us":5.000,"kind":"flush","lp":2,"dst":1,"cause":"capacity","events":12,"bytes":288}
{"wall_us":6.000,"kind":"window_adjust","lp":2,"dst":1,"old_us":100.000,"new_us":50.000}
{"wall_us":7.000,"kind":"roughness","lp":-1,"gvt":90,"min_lvt":80,"max_lvt":120,"mean_lvt":100,"stddev_lvt":14,"lag_lp":2,"wasted":0.250}
`
	if got := b.String(); got != want {
		t.Errorf("JSONL output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Every line must be standalone valid JSON.
	for i, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("line %d is not valid JSON: %s", i, line)
		}
	}
}

func TestWriteChromeGolden(t *testing.T) {
	evs := []Event{
		{Kind: KindRollback, Wall: 1500, LP: 0, Object: 3, VT: 42, A: CauseStraggler, B: 5, C: 2, D: 5, E: 37, F: 1, Dur: 2500},
		{Kind: KindGVT, Wall: 4000, LP: 0, Object: -1, VT: 100, A: 2, Dur: 50000},
	}
	var b strings.Builder
	if err := WriteChrome(&b, evs); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"gowarp"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"LP 0"}},
{"name":"rollback","cat":"rollback","ph":"X","ts":1.500,"dur":2.500,"pid":0,"tid":0,"args":{"object":3,"vt":42,"cause":"straggler","src":5,"send_vt":37,"rolled":5,"coasted":2,"antis":1,"coast_us":2.500}},
{"name":"gvt cycle","cat":"gvt","ph":"i","s":"g","ts":4.000,"pid":0,"tid":0,"args":{"vt":100,"rounds":2,"cycle_us":50.000}},
{"name":"GVT","ph":"C","ts":4.000,"pid":0,"args":{"gvt":100}}
]}
`
	if got := b.String(); got != want {
		t.Errorf("Chrome output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteChromeParses checks that the full-kind trace is one valid JSON
// document with the structure trace viewers expect.
func TestWriteChromeParses(t *testing.T) {
	var b strings.Builder
	if err := WriteChrome(&b, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// 1 process_name + 4 thread_name (LPs 0,1,2 and the -1 system ring) +
	// 7 events + 1 GVT counter + 1 LVT-width counter.
	if len(doc.TraceEvents) != 14 {
		t.Errorf("traceEvents count = %d, want 14", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for _, te := range doc.TraceEvents {
		byName[te.Name]++
	}
	for name, want := range map[string]int{
		"process_name": 1, "thread_name": 4, "rollback": 1, "gvt cycle": 1,
		"GVT": 1, "checkpoint_adjust": 1, "strategy_switch": 1, "flush": 1,
		"window_adjust": 1, "roughness": 1, "LVT width": 1,
	} {
		if byName[name] != want {
			t.Errorf("event %q count = %d, want %d", name, byName[name], want)
		}
	}
}

// TestChromeSkipsInfiniteGVT checks the GVT counter track omits the +-inf
// sentinel values that would destroy the viewer's scale.
func TestChromeSkipsInfiniteGVT(t *testing.T) {
	evs := []Event{
		{Kind: KindGVT, Wall: 1000, LP: 0, Object: -1, VT: math.MinInt64, A: 1, Dur: 10},
		{Kind: KindGVT, Wall: 2000, LP: 0, Object: -1, VT: 50, A: 1, Dur: 10},
		{Kind: KindGVT, Wall: 3000, LP: 0, Object: -1, VT: math.MaxInt64, A: 1, Dur: 10},
	}
	var b strings.Builder
	if err := WriteChrome(&b, evs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), `"name":"GVT"`); got != 1 {
		t.Errorf("GVT counter samples = %d, want 1 (sentinels skipped)\n%s", got, b.String())
	}
	if got := strings.Count(b.String(), `"name":"gvt cycle"`); got != 3 {
		t.Errorf("gvt cycle instants = %d, want 3 (all cycles kept)", got)
	}
}

func TestTracerExportEndToEnd(t *testing.T) {
	tr := NewTracer(16)
	tr.Bind([]int{0, 1}, time.Now())
	tr.LP(0).GVTCycle(10, 1, time.Microsecond)
	tr.LP(1).Rollback(5, 2, 18, 20, true, 3, 1, 2, time.Microsecond)
	var jl, ch strings.Builder
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(jl.String(), "\n"); got != 2 {
		t.Errorf("JSONL lines = %d, want 2", got)
	}
	if !strings.Contains(jl.String(), `"cause":"anti"`) {
		t.Errorf("JSONL missing anti-message rollback cause:\n%s", jl.String())
	}
	if !json.Valid([]byte(ch.String())) {
		t.Errorf("Chrome trace from tracer not valid JSON:\n%s", ch.String())
	}
}

// everyKind is one event of each kind as its recorder leaves it (Object -1
// where the kind has no use for it), at durations a reader that truncated
// microseconds would return a nanosecond early.
func everyKind() []Event {
	tr := NewTracer(16)
	tr.Bind([]int{0, 1, 2}, time.Now())
	tr.LP(0).Rollback(3, 5, 37, 42, false, 5, 2, 1, 1001)
	tr.LP(0).Rollback(4, 6, 38, 43, true, 1, 0, 0, 1005)
	tr.LP(1).CheckpointAdjust(7, 4, 8, 125009)
	tr.LP(1).StrategySwitch(7, true, 375)
	tr.LP(1).StrategySwitch(8, false, 33)
	tr.LP(0).GVTCycle(math.MaxInt64, 2, 50017)
	for cause := int64(0); cause < 4; cause++ {
		tr.LP(2).Flush(1, cause, 12, 288)
	}
	tr.LP(2).WindowAdjust(1, 100003, 50019)
	tr.LP(1).Migration(9, 2, 3, 4)
	tr.LP(0).BalanceStep(1333, true, 2)
	tr.LP(0).BalanceStep(1001, false, 0)
	tr.LP(1).CodecSwitch(7, true, 419)
	tr.System().Roughness(math.MinInt64, 80, 120, 100, 14, -1, 251)
	tr.LP(0).OptSwitch(500, 0, 1009, 77)
	evs := tr.Events()
	for i := range evs {
		evs[i].Wall = time.Duration(1001 + 1004*i) // 1.001 µs, 2.005 µs, …
	}
	return evs
}

// TestJSONLRoundTrip: for every kind, write → read → write is the identity,
// on the bytes and on the events.
func TestJSONLRoundTrip(t *testing.T) {
	evs := everyKind()
	seen := map[Kind]bool{}
	for _, ev := range evs {
		seen[ev.Kind] = true
	}
	if len(seen) != int(numKinds) {
		t.Fatalf("fixture covers %d of %d kinds", len(seen), numKinds)
	}
	var first strings.Builder
	if err := WriteJSONL(&first, evs); err != nil {
		t.Fatal(err)
	}
	got, counts, err := ReadJSONL(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		for i := range evs {
			if i >= len(got) || got[i] != evs[i] {
				t.Fatalf("event %d read back as\n%+v, wrote\n%+v", i, got[i], evs[i])
			}
		}
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	if counts["flush"] != 4 || counts["rollback"] != 2 || len(counts) != int(numKinds) {
		t.Errorf("kind tally = %v", counts)
	}
	var second strings.Builder
	if err := WriteJSONL(&second, got); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("second write differs:\n%s\nfirst:\n%s", second.String(), first.String())
	}
}

// TestReadJSONLRefusals: a malformed line — not JSON, no kind, a value of the
// wrong shape, a word its key does not have — is an error naming the line; a
// kind this build does not know, and what WriteJSONL wrote for one, is
// tallied and skipped; blank lines and absent keys are fine.
func TestReadJSONLRefusals(t *testing.T) {
	ok := `{"wall_us":1.000,"kind":"gvt","lp":0,"vt":7,"rounds":1,"cycle_us":2.000}` + "\n"
	for _, bad := range []string{
		"not json", `{"wall_us":1.000,"lp":0}`, `{"kind":"gvt","rounds":"two"}`,
		`{"kind":"gvt","vt":1.5}`, `{"kind":"flush","cause":"boredom"}`, `{"kind":"balance","active":1}`,
	} {
		_, _, err := ReadJSONL(strings.NewReader(ok + "\n" + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: err = %v, want an error naming line 3", bad, err)
		}
	}

	var unknown strings.Builder
	if err := WriteJSONL(&unknown, []Event{{Kind: 99, A: 1, B: 2, C: 3}}); err != nil {
		t.Fatal(err)
	}
	evs, counts, err := ReadJSONL(strings.NewReader(
		ok + unknown.String() + `{"wall_us":3.000,"kind":"rank_join","lp":0,"rank":1}` + "\n" + `{"kind":"rollback"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != KindGVT || evs[0].VT != 7 || evs[0].Object != -1 || evs[1] != (Event{Kind: KindRollback}) {
		t.Errorf("events = %+v", evs)
	}
	if counts["gvt"] != 1 || counts["unknown"] != 1 || counts["rank_join"] != 1 || counts["rollback"] != 1 {
		t.Errorf("kind tally = %v", counts)
	}
}
