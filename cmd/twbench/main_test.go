package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gowarp/internal/exp"
)

// TestUnknownExperiment: a bad name anywhere in -exp is a usage error before
// anything runs — no figure printed, no profile started.
func TestUnknownExperiment(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "ctl-period,fgi9", "-quick", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), `"fgi9"`) {
		t.Errorf("-exp ctl-period,fgi9: exit %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run printed %q", stdout.String())
	}
	if _, err := os.Stat(prof); !os.IsNotExist(err) {
		t.Errorf("a refused run created its CPU profile (stat: %v)", err)
	}
}

// TestHelp: -h exits 0 and its -exp line lists every experiment, each name
// once, in the order they run.
func TestHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "-exp") {
		t.Errorf("-h: exit %d, stderr %q", code, stderr.String())
	}
	_, list, _ := strings.Cut(stderr.String(), "comma-separated experiments: ")
	list, _, _ = strings.Cut(list, " or 'all'")
	listed := strings.Split(list, ",")
	seen := make(map[string]bool)
	for i, e := range exp.Experiments {
		if seen[e.Name] {
			t.Errorf("experiment %q is named twice", e.Name)
		}
		seen[e.Name] = true
		if i >= len(listed) || listed[i] != e.Name {
			t.Errorf("-h lists %q, want experiment %d, %q", listed, i, e.Name)
		}
	}
	if len(listed) != len(exp.Experiments) {
		t.Errorf("-h lists %d experiments, exp.Experiments has %d", len(listed), len(exp.Experiments))
	}
}

// TestQuickRun runs the cheapest experiment, named twice: it runs once and
// prints its table.
func TestQuickRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "ctl-period, ctl-period", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "[ctl-period took"); n != 1 {
		t.Errorf("ctl-period ran %d times:\n%s", n, stdout.String())
	}
	if !strings.Contains(stdout.String(), "== ctl-period") {
		t.Errorf("no ctl-period table:\n%s", stdout.String())
	}
}
