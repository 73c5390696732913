package gowarp

import (
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestConfigSurface counts what a caller can set: the fields of Config and of
// every facet config it holds by value, the builder's options, and the mode
// words each spec parser takes. The numbers are the point. A new knob needs a
// caller that exists at the parent commit — a cmd/, benchmark/, internal/exp
// or an oracle leg; tests and examples do not count (simplicity-review,
// Options) — and then the number it changes is edited here, in the same
// change, where a reviewer sees it.
func TestConfigSurface(t *testing.T) {
	wantFields := map[string]int{
		"core.Config":            15,
		"statesave.Config":       6,
		"cancel.Config":          7,
		"comm.AggConfig":         8,
		"comm.CostModel":         2,
		"core.BalanceConfig":     6,
		"codec.Config":           3,
		"codec.ControllerConfig": 3,
		"core.OptimismConfig":    10,
	}
	const (
		wantLeaves  = 52 // independently settable values under Config
		wantMethods = 21 // 20 With* options and Build
	)

	fields := map[string]int{}
	var walk func(reflect.Type) int
	walk = func(ty reflect.Type) (leaves int) {
		fields[ty.String()] = ty.NumField()
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i).Type; f.Kind() == reflect.Struct {
				leaves += walk(f)
			} else {
				leaves++
			}
		}
		return leaves
	}
	if got := walk(reflect.TypeOf(Config{})); got != wantLeaves {
		t.Errorf("Config has %d leaf fields, want %d", got, wantLeaves)
	}
	if !reflect.DeepEqual(fields, wantFields) {
		t.Errorf("fields per config struct:\n got %v\nwant %v", fields, wantFields)
	}
	if got := reflect.TypeOf(&ConfigBuilder{}).NumMethod(); got != wantMethods {
		t.Errorf("ConfigBuilder has %d methods, want %d", got, wantMethods)
	}

	// Each parser takes its documented words (given the parameters the word
	// requires) and refuses the aliases it once took, as any unknown mode.
	for _, p := range []struct {
		name    string
		parse   func(string) error
		words   []string
		removed []string
	}{
		{"balance", errOf(ParseBalanceSpec), []string{"", "off", "dynamic"}, []string{"on", "static"}},
		{"codec", errOf(ParseCodecSpec), []string{"", "off", "lz", "full", "delta", "dynamic"}, nil},
		{"optimism", errOf(ParseOptSpec), []string{"", "off", "static,window=1", "adaptive"}, []string{"dynamic", "on"}},
		{"sched", errOf(ParseSchedSpec), []string{"", "pool", "lp"}, []string{"goroutine", "workers"}},
		{"transport", errOf(ParseTransportSpec), []string{"", "inproc", "tcp,rank=0,peers=a:1;b:2"}, []string{"local"}},
	} {
		for _, w := range p.words {
			if err := p.parse(w); err != nil {
				t.Errorf("%s spec %q: %v", p.name, w, err)
			}
		}
		for _, w := range p.removed {
			if err := p.parse(w); err == nil || !strings.Contains(err.Error(), "unknown mode") {
				t.Errorf("%s spec %q: err = %v, want an unknown-mode error", p.name, w, err)
			}
		}
	}
}

// TestKernelImportGraph holds the line between what a simulation links and
// what serves or renders: nothing the root package, the kernel or the claims
// benchmark imports may reach an HTTP server, expvar or a template engine, nor
// the packages only those bring. Every process that imports gowarp — each rank
// of a fleet, each child of twcheck — is resident with whatever its import
// graph initialises, before main runs; a facet that is off costs nothing (the
// paper's §3), so an endpoint nobody asked for must not either. Serving lives in
// gowarp/metricshttp, the HTML page in cmd/twreport. Nor encoding/gob: a
// rank's end-of-run report is a record the kernel writes and reads itself. The
// package counts are logged so that a new import shows as a number that moved
// (98 / 91 / 106 since the report dropped gob; 101 / 94 / 109 at this test's
// first commit; 206 / 199 / 211 before it).
func TestKernelImportGraph(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH: the import graph is not checked")
	}
	banned := map[string]bool{
		"net/http": true, "expvar": true, "html/template": true, "text/template": true,
		"crypto/tls": true, "compress/gzip": true, "regexp": true, "mime/multipart": true,
		"encoding/gob": true,
	}
	for _, pkg := range []string{"gowarp", "gowarp/internal/core", "gowarp/benchmark"} {
		out, err := exec.Command(goTool, "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		for _, d := range deps {
			if banned[d] {
				t.Errorf("%s links %s", pkg, d)
			}
		}
		t.Logf("%s: %d packages", pkg, len(deps))
	}
}

// errOf keeps a spec parser's verdict and drops what it parsed.
func errOf[T any](parse func(string) (T, error)) func(string) error {
	return func(s string) error {
		_, err := parse(s)
		return err
	}
}
