package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gowarp"
)

// Child modes: every measured run is a fresh process, so each sample pays
// first-touch memory and runtime start-up exactly like a twsim user does.
const (
	modeRun   = "run"   // the timed run
	modeNull  = "null"  // same model and config, end time 1: set-up cost only
	modeSeq   = "seq"   // sequential reference kernel: defines correctness
	modeTrace = "trace" // the timed run with decorators and the tracer on
	// modeLayers runs the layer drivers. They too run in a child: a child's
	// Maxrss starts from its parent's resident size at fork, so the parent
	// has to stay small for peak_rss_mb to mean anything.
	modeLayers = "layers"
)

// childSpec is what the parent hands a child process (as JSON after the
// hidden -child flag).
type childSpec struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Seed     uint64 `json:"seed"`
	// Div divides the workload's size; 1 is the benchmark size, the smoke
	// test uses 100.
	Div     int `json:"div"`
	Workers int `json:"workers"`
}

// childReport is what a child prints on stdout (one JSON object).
type childReport struct {
	LPs       int    `json:"lps"`
	Committed int64  `json:"committed"`
	Hash      uint64 `json:"hash"`
	// WallS is the timed phase: model build plus gowarp.Run on every rank.
	WallS  float64 `json:"wall_s"`
	BuildS float64 `json:"build_s"`
	// RunS is Result.Elapsed: the parallel phase alone.
	RunS float64 `json:"run_s"`

	Stats     gowarp.Counters      `json:"stats"`
	PerWorker []gowarp.WorkerStats `json:"per_worker,omitempty"`

	// Heap activity over the timed phase (runtime.MemStats deltas) and the
	// GC's CPU seconds over the process lifetime (runtime/metrics).
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPUS     float64 `json:"gc_cpu_s"`

	Trace  *traceData         `json:"trace,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`

	// Filled in by the parent from ProcessState.SysUsage.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// childMain runs one spec and prints its report. It is the whole life of a
// child process.
func childMain(arg string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	rep, err := runSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

func runSpec(spec childSpec) (*childReport, error) {
	if spec.Div < 1 {
		spec.Div = 1
	}
	if spec.Mode == modeLayers {
		layers, err := runLayers(spec.Seed, spec.Div)
		return &childReport{Layers: layers}, err
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	if spec.Mode == modeSeq {
		start := time.Now()
		res, err := w.runSequential(spec.Seed, spec.Div)
		if err != nil {
			return nil, err
		}
		return &childReport{
			Committed: res.EventsExecuted,
			Hash:      gowarp.HashStates(res.FinalStates),
			WallS:     time.Since(start).Seconds(),
			RunS:      res.Elapsed.Seconds(),
		}, nil
	}

	var end gowarp.VTime
	if spec.Mode == modeNull {
		end = 1
	}
	var tc *traceCollector
	var wrap func(int, *gowarp.Model, *gowarp.ConfigBuilder)
	if spec.Mode == modeTrace {
		tc = newTraceCollector(w)
		wrap = tc.wrap
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, build, wall, err := w.run(spec.Seed, spec.Div, spec.Workers, end, wrap)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	rep := &childReport{
		LPs:        len(res.PerLP),
		Committed:  res.Stats.EventsCommitted,
		Hash:       gowarp.HashStates(res.FinalStates),
		WallS:      wall.Seconds(),
		BuildS:     build.Seconds(),
		RunS:       res.Elapsed.Seconds(),
		Stats:      res.Stats,
		PerWorker:  res.PerWorker,
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCPUS:     gcCPUSeconds(),
	}
	if tc != nil {
		rep.Trace = tc.finish(fmt.Sprintf("%s/seed%d", w.Name, spec.Seed), build, wall)
	}
	return rep, nil
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the garbage
// collector since the process started.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// spawn re-executes this binary as a child for spec and returns its report
// with the kernel's accounting of the process (user+sys CPU, peak RSS)
// attached. A child that runs past timeout is killed and reported as an
// error.
func spawn(spec childSpec, timeout time.Duration) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s %s: killed after %s", spec.Workload, spec.Mode, timeout)
		}
		return nil, fmt.Errorf("%s %s: %w", spec.Workload, spec.Mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s %s: child output: %w", spec.Workload, spec.Mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("%s %s: no rusage for the child", spec.Workload, spec.Mode)
	}
	rep.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return &rep, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
