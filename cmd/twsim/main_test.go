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
)

// twsim runs the command in process and returns its exit status and output.
func twsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// readSummary reads a -json-out artifact back.
func readSummary(t *testing.T, path string) gowarp.RunSummary {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s gowarp.RunSummary
	if err := json.Unmarshal(data, &s); err != nil {
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
// positional argument (which would silently drop every later flag), and a
// sequential run asked to span processes.
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
	if !strings.Contains(vars, `"gowarp"`) || !strings.Contains(vars, "gowarp_gvt") {
		t.Errorf("/debug/vars scraped during the run has no gowarp export:\n%s", vars)
	}
}
