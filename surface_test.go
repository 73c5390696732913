package gowarp

import (
	"fmt"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestConfigSurface counts what a caller can set: the fields of Config and of
// every facet config it holds by value, the builder's options, and the mode
// words and keys each spec parser takes. The numbers are the point. A new knob
// needs a caller that exists at the parent commit — a cmd/, benchmark/,
// internal/exp or an oracle leg; tests and examples do not count — and then
// the number it changes is edited here, in the same change, where the diff
// shows it. A tunable every such caller leaves at its default is a constant
// of the package that reads it.
func TestConfigSurface(t *testing.T) {
	wantFields := map[string]int{
		"core.Config":         15,
		"statesave.Config":    3,
		"cancel.Config":       7,
		"comm.AggConfig":      4,
		"comm.CostModel":      2,
		"core.BalanceConfig":  6,
		"codec.Config":        2,
		"core.OptimismConfig": 8,
	}
	const (
		wantLeaves  = 40 // independently settable values under Config
		wantMethods = 9  // the eight With* options benchmark/ calls, and Build
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
	leaves := walk(reflect.TypeOf(Config{}))
	if leaves != wantLeaves {
		t.Errorf("Config has %d leaf fields, want %d", leaves, wantLeaves)
	}
	if !reflect.DeepEqual(fields, wantFields) {
		t.Errorf("fields per config struct:\n got %v\nwant %v", fields, wantFields)
	}
	methods := reflect.TypeOf(&ConfigBuilder{}).NumMethod()
	if methods != wantMethods {
		t.Errorf("ConfigBuilder has %d methods, want %d", methods, wantMethods)
	}
	t.Logf("Config: %d leaves; ConfigBuilder: %d methods", leaves, methods)

	// Each parser takes its documented words (given the parameters the word
	// requires) and keys, refuses the aliases it once took as any unknown
	// mode, and refuses the keys it once took as any unknown key, naming it.
	for _, p := range []struct {
		name        string
		parse       func(string) error
		words       []string
		removed     []string
		keys        map[string]string // key: a spec that sets it
		removedKeys map[string]string
	}{
		{
			"balance", errOf(ParseBalanceSpec), []string{"", "off", "dynamic"}, []string{"on", "static"},
			map[string]string{
				"period": "dynamic,period=4", "high": "dynamic,high=1.2", "low": "dynamic,low=1.1",
				"moves": "dynamic,moves=2", "min-sample": "dynamic,min-sample=32",
			},
			nil,
		},
		{
			"codec", errOf(ParseCodecSpec), []string{"", "off", "lz", "full", "delta", "dynamic", "dynamic,lz"}, nil,
			nil,
			map[string]string{"period": "dynamic,period=64", "low": "dynamic,lz,low=0.5", "high": "dynamic,high=0.9"},
		},
		{
			"optimism", errOf(ParseOptSpec), []string{"", "off", "static,window=1", "adaptive"}, []string{"dynamic", "on"},
			map[string]string{
				"window": "adaptive,window=2000", "min": "adaptive,min=250", "max": "adaptive,max=16000",
				"period": "adaptive,period=2", "high": "adaptive,high=0.5", "low": "adaptive,low=0.2",
				"min-sample": "adaptive,min-sample=64",
			},
			map[string]string{"factor": "adaptive,factor=2", "rough": "adaptive,rough=4"},
		},
		{
			"sched", errOf(ParseSchedSpec), []string{"", "pool", "lp"}, []string{"goroutine", "workers"},
			map[string]string{"workers": "pool,workers=2"},
			nil,
		},
		{
			"transport", errOf(ParseTransportSpec), []string{"", "inproc", "tcp,rank=0,peers=a:1;b:2"}, []string{"local"},
			map[string]string{
				"rank": "tcp,rank=1,peers=a:1;b:2", "peers": "tcp,rank=0,peers=a:1;b:2;c:3",
				"listen": "tcp,rank=0,peers=a:1;b:2,listen=0.0.0.0:1", "timeout": "tcp,rank=0,peers=a:1;b:2,timeout=1s",
			},
			nil,
		},
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
		var keys []string
		for key, spec := range p.keys {
			if err := p.parse(spec); err != nil {
				t.Errorf("%s spec %q (key %s): %v", p.name, spec, key, err)
			}
			keys = append(keys, key)
		}
		for key, spec := range p.removedKeys {
			if err := p.parse(spec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown key %q", key)) {
				t.Errorf("%s spec %q: err = %v, want an error naming the unknown key %q", p.name, spec, err, key)
			}
		}
		sort.Strings(keys)
		t.Logf("%s spec: %d keys %v", p.name, len(keys), keys)
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
// (96 / 91 / 104 since the gate-level logic model left; 97 / 91 / 105 before
// that; 101 / 94 / 109 at this test's first commit, before the report dropped
// gob; 206 / 199 / 211 before it).
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
