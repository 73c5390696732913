package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gowarp/internal/observe"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
)

// TestWriteHTML is the page's half of internal/observe's TestReportWriters:
// the same three-event trace, rendered by the writer that lives here.
func TestWriteHTML(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Bind([]int{0, 1}, time.Now())
	tr.LP(0).Rollback(1, 9, 50, 100, false, 5, 1, 3, time.Microsecond)
	tr.LP(1).Rollback(2, 1, 110, 115, true, 4, 0, 2, 0)
	tr.System().Roughness(90, 80, 120, 100, 14, 1, 250)

	var sum stats.RunRecord
	if err := json.Unmarshal([]byte(`{"model":"unit","final_partition":[0,0,1]}`), &sum); err != nil {
		t.Fatal(err)
	}
	rep := observe.NewReport(tr.Events(), &sum)
	var html strings.Builder
	if err := writeHTML(&html, rep, 5); err != nil {
		t.Fatal(err)
	}
	h := html.String()
	for _, want := range []string{"<svg", "straggler", "</html>"} {
		if !strings.Contains(h, want) {
			t.Fatalf("html report missing %q", want)
		}
	}
}

// TestRecordedTrace runs the command on a recorded 40-request SMMP trace and
// its run summary (twsim -model smmp -requests 40 -trace … -json-out …). The
// text report names each cascade's root; the page is, byte for byte, the one
// the commit before the page moved here wrote for the same two files.
func TestRecordedTrace(t *testing.T) {
	page := filepath.Join(t.TempDir(), "report.html")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-trace", "testdata/smmp40.trace.jsonl",
		"-summary", "testdata/smmp40.run.json",
		"-top", "5", "-html", page,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if text := stdout.String(); !strings.Contains(text, "#1 root: LP2 obj 50, cause obj 17 (LP 1)") {
		t.Errorf("text report has no root: line for the costliest cascade:\n%s", text)
	}
	got, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<h2>Rollback cascades</h2>", "<polyline "} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("page has no %q", want)
		}
	}
	want, err := os.ReadFile("testdata/smmp40.report.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("page differs from testdata/smmp40.report.html (%d bytes, want %d)", len(got), len(want))
	}
}

// TestRefusals: a missing -trace is a usage error, an unreadable one a failure.
func TestRefusals(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-trace is required") {
		t.Errorf("no arguments: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-trace", "testdata/absent.jsonl"}, &stdout, &stderr); code != 1 {
		t.Errorf("absent trace: exit %d, stderr %q", code, stderr.String())
	}
}
