package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
