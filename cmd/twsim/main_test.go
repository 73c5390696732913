package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gowarp"
	"gowarp/internal/stats"
)

// twsim runs the command in process and returns its exit status and output.
func twsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// readSummary reads a -json-out artifact back.
func readSummary(t *testing.T, path string) *gowarp.RunRecord {
	t.Helper()
	s, err := stats.ReadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStaticWindowRun: a static window is one flag value, the run matches the
// sequential kernel under it, and the artifact reports the window the kernel
// ran in.
func TestStaticWindowRun(t *testing.T) {
	f := filepath.Join(t.TempDir(), "run.json")
	code, out, errOut := twsim("-model", "phold", "-lps", "2", "-end", "2000",
		"-optimism", "static,window=100", "-verify", "-json-out", f)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	if n := strings.Count(out, "MATCH"); n != 2 {
		t.Errorf("output has %d MATCH, want 2 (committed events and final states):\n%s", n, out)
	}
	if w := readSummary(t, f).FinalOptimismWindow; w != 100 {
		t.Errorf("final_optimism_window = %d, want 100", w)
	}
}

// TestArtifactSchema holds the -json-out artifact's top-level keys the way
// TestConfigSurface holds the configuration's: the command line that recorded
// cmd/twreport/testdata/smmp40.run.json (written by the binary of the commit
// before RunRecord existed) must write that file's keys today, and a key the
// format has that the recording lacks is listed here, by name, where a reviewer
// sees it arrive.
func TestArtifactSchema(t *testing.T) {
	absentFromRecording := []string{ // omitempty, and empty in that run
		"rank", "host_ranks", "wire", // one process, the in-process transport
		"trace_dropped",     // the ring sufficed
		"optimism_switches", // -optimism off
	}
	keysOf := func(path string) map[string]bool {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for k := range top {
			keys[k] = true
		}
		return keys
	}
	recorded := keysOf("../twreport/testdata/smmp40.run.json")
	known := map[string]bool{}
	for k := range recorded {
		known[k] = true
	}
	for _, k := range absentFromRecording {
		if recorded[k] {
			t.Errorf("%q is in the recording: drop it from the list", k)
		}
		known[k] = true
	}

	dir := t.TempDir()
	f := filepath.Join(dir, "run.json")
	if code, out, errOut := twsim("-model", "smmp", "-requests", "40",
		"-trace", filepath.Join(dir, "t.jsonl"), "-json-out", f); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	got := keysOf(f)
	for k := range got {
		if !known[k] {
			t.Errorf("the artifact has a key %q the recording and the list lack", k)
		}
	}
	for k := range recorded {
		// A run on one worker may never roll back, and then has no histogram.
		if !got[k] && k != "rollback_depth_hist" {
			t.Errorf("the artifact lacks the recorded key %q", k)
		}
	}
	// Every stored field is one of the known keys, filled by this run or not.
	rt := reflect.TypeOf(gowarp.RunRecord{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag != "-" && !known[tag] {
			t.Errorf("RunRecord.%s is stored as %q, which neither the recording nor the list has", rt.Field(i).Name, tag)
		}
	}
}

// TestSpecFlagForms: -balance and -optimism take their value like every other
// flag, after a space or after "=", and both spellings are the same run.
func TestSpecFlagForms(t *testing.T) {
	f := filepath.Join(t.TempDir(), "run.json")
	common := []string{"-model", "phold", "-lps", "4", "-end", "3000", "-audit", "-verify", "-json-out", f}
	forms := [][]string{
		{"-optimism", "adaptive,window=500", "-balance", "dynamic,period=2"},
		{"-optimism=adaptive,window=500", "-balance=dynamic,period=2"},
	}
	var flags []map[string]string
	for _, form := range forms {
		// The spec flags go first: a value mistaken for a positional argument
		// would cut off everything after it.
		code, out, errOut := twsim(append(form, common...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s%s", form, code, out, errOut)
		}
		flags = append(flags, readSummary(t, f).Flags)
	}
	if !reflect.DeepEqual(flags[0], flags[1]) {
		t.Errorf("the two forms parsed differently:\n%v\n%v", flags[0], flags[1])
	}
	if got := flags[0]["optimism"]; got != "adaptive,window=500" {
		t.Errorf("flags[optimism] = %q", got)
	}
	if got := flags[0]["balance"]; got != "dynamic,period=2" {
		t.Errorf("flags[balance] = %q", got)
	}
}

// TestRefusals: what twsim cannot place it refuses, naming the flag — a spec
// flag without a value, the alias words the parsers no longer take, a stray
// positional argument (which would silently drop every later flag), a
// sequential run asked to span processes, and a model that is not bundled.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"bare balance", []string{"-balance"}, "-balance"},
		{"balance on", []string{"-balance=on"}, `balance spec "on"`},
		{"optimism dynamic", []string{"-optimism=dynamic"}, `optimism spec "dynamic"`},
		{"sched goroutine", []string{"-sched", "goroutine"}, `sched spec "goroutine"`},
		{"transport local", []string{"-transport", "local"}, `transport spec "local"`},
		{"stray argument", []string{"-lps", "2", "stray", "-verify"}, `"stray"`},
		{"sequential over tcp", []string{"-sequential", "-transport", "tcp,rank=0,peers=127.0.0.1:1;127.0.0.1:2"}, "-transport"},
		{"balance high NaN", []string{"-balance", "dynamic,high=NaN,low=Inf"}, "high wants a positive finite number"},
		{"optimism high Inf", []string{"-optimism", "adaptive,high=Inf"}, "high wants a positive finite number"},
		{"a2l NaN", []string{"-cancel", "dynamic", "-a2l", "NaN"}, "-a2l wants a finite number"},
		{"l2a Inf", []string{"-cancel", "dynamic", "-l2a", "-Inf"}, "-l2a wants a finite number"},
		{"negative requests", []string{"-model", "raid", "-requests", "-1", "-end", "1000"}, "-requests must not be negative"},
		{"negative filter depth", []string{"-cancel", "dynamic", "-filter-depth", "-3"}, "-filter-depth must not be negative"},
		{"negative ps", []string{"-cancel", "dynamic", "-ps", "-1"}, "-ps must not be negative"},
		{"negative pa", []string{"-cancel", "dynamic", "-pa", "-1"}, "-pa must not be negative"},
		{"negative ckpt interval", []string{"-ckpt-interval", "-2"}, "-ckpt-interval must not be negative"},
		{"negative agg window", []string{"-agg", "faw", "-agg-window", "-1ms"}, "-agg-window must not be negative"},
		{"negative msg cost", []string{"-msg-cost", "-1us"}, "-msg-cost must not be negative"},
		{"negative event cost", []string{"-event-cost", "-1us"}, "-event-cost must not be negative"},
		{"negative gvt period", []string{"-gvt-period", "-1ms"}, "-gvt-period must not be negative"},
		{"negative state padding", []string{"-state-padding", "-1"}, "-state-padding must not be negative"},
		{"negative trace cap", []string{"-trace-cap", "-1"}, "-trace-cap must not be negative"},
		{"raid without bound", []string{"-model", "raid", "-requests", "0"}, "-requests 0"},
		{"smmp without bound", []string{"-model", "smmp", "-requests", "0", "-sequential"}, "-requests 0"},
		{"retired logic model", []string{"-model", "logic"}, "unknown model \"logic\""},
	} {
		code, out, errOut := twsim(tc.args...)
		if code == 0 {
			t.Errorf("%s: exit 0\n%s", tc.name, out)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: stderr does not mention %s:\n%s", tc.name, tc.want, errOut)
		}
		if strings.Contains(out, "committed events") {
			t.Errorf("%s: a run happened:\n%s", tc.name, out)
		}
	}
}

// TestMetricsAddr: -metrics-addr serves the running kernel's registry. The
// address comes off stderr, as a user would read it; one scrape of /metrics
// and one of /debug/vars land while the run executes.
func TestMetricsAddr(t *testing.T) {
	pr, pw := io.Pipe()
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving metrics on http://"); ok {
				addr <- strings.TrimSuffix(rest, "/metrics")
			}
		}
	}()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	ended := make(chan struct{})
	var metrics, vars string
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var base string
		select {
		case a := <-addr:
			base = "http://" + a
		case <-ended: // the run failed before it served anything
			return
		}
		// The kernel registers its metrics when the run starts, a moment
		// after the endpoint is up, and publishes into them at each GVT
		// application: wait for LP 0's first non-zero count.
		const lp0 = `gowarp_events_processed_total{lp="0"} `
		for !strings.Contains(metrics, lp0) || strings.Contains(metrics, lp0+"0\n") {
			select {
			case <-ended:
				return
			default:
			}
			metrics = get(base + "/metrics")
			time.Sleep(time.Millisecond)
		}
		vars = get(base + "/debug/vars")
	}()

	var out bytes.Buffer
	code := run([]string{"-model", "smmp", "-requests", "8000", "-metrics-addr", "127.0.0.1:0"}, &out, pw)
	close(ended)
	pw.Close()
	<-drained
	<-scraped
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if vars == "" {
		t.Fatalf("the run ended before a scrape saw an LP publish; last /metrics:\n%s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE gowarp_gvt gauge") {
		t.Errorf("/metrics scraped during the run has no gowarp_gvt gauge:\n%s", metrics)
	}
	// LP 0 has published, so its controller gauges are in the scrape.
	for _, name := range []string{
		"gowarp_mean_checkpoint_interval", "gowarp_hit_ratio",
		"gowarp_lazy_objects", "gowarp_aggregation_window_seconds",
	} {
		if !strings.Contains(metrics, name+`{lp="0"} `) {
			t.Errorf("/metrics scraped during the run has no %s{lp=\"0\"} line:\n%s", name, metrics)
		}
	}
	if !strings.Contains(vars, `"gowarp"`) || !strings.Contains(vars, "gowarp_gvt") {
		t.Errorf("/debug/vars scraped during the run has no gowarp export:\n%s", vars)
	}
}

// TestWorkerReport: twsim prints a line per worker after the counters, with
// the rounds the coupling held it; two workers under a bounded window are the
// case where that count can be above zero.
func TestWorkerReport(t *testing.T) {
	code, out, errOut := twsim("-model", "phold", "-lps", "4", "-end", "2000",
		"-sched", "pool,workers=2", "-optimism", "static,window=64", "-verify")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	for _, w := range []string{"worker 0: ", "worker 1: "} {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("no %q line:\n%s", w, out)
		}
		if line, _, _ := strings.Cut(out[i:], "\n"); !strings.HasSuffix(line, " held rounds") {
			t.Errorf("%q does not end with the held rounds", line)
		}
	}
}
