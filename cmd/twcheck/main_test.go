package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gowarp/internal/stats"
)

// rankRecord is one rank's artifact of a healthy two-rank fleet on a host of
// four cores: four LPs, this rank hosting two of them on as many workers.
func rankRecord(rank int) *stats.RunRecord {
	rec := &stats.RunRecord{
		Model: "smmp", Transport: "tcp", Rank: rank, Ranks: 2, HostRanks: 2,
		PerWorker:             []stats.WorkerStats{{Worker: 0}, {Worker: 1}},
		FinalWorkerAssignment: []int{-1, -1, -1, -1},
	}
	rec.FinalWorkerAssignment[2*rank], rec.FinalWorkerAssignment[2*rank+1] = 0, 1
	if rank == 0 {
		rec.Stats.EventsCommitted, rec.FinalStateHash = 3266, 0xfeed
	}
	return rec
}

// TestCompareFleet: the multiproc leg's verdict over doctored artifacts.
func TestCompareFleet(t *testing.T) {
	solo := stats.RunRecord{Model: "smmp", Transport: "inproc", Ranks: 1, FinalStateHash: 0xfeed}
	solo.Stats.EventsCommitted = 3266
	for _, tc := range []struct {
		name         string
		doctor       func(solo *stats.RunRecord, fleet []*stats.RunRecord)
		defaultWidth bool
		want         error
	}{
		{"equal", func(*stats.RunRecord, []*stats.RunRecord) {}, true, nil},
		{"committed differs", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].Stats.EventsCommitted++ }, false, errCommitted},
		{"hash differs", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].FinalStateHash ^= 1 }, false, errHash},
		{"coordinator hash zero", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].FinalStateHash = 0 }, false, errNoHash},
		{"solo hash zero", func(s *stats.RunRecord, _ []*stats.RunRecord) { s.FinalStateHash = 0 }, false, errNoHash},
		{"not tcp", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].Transport = "inproc" }, false, errShape},
		{"three ranks", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].Ranks = 3 }, false, errShape},
		{"too wide at the default", func(_ *stats.RunRecord, f []*stats.RunRecord) {
			f[1].PerWorker = append(f[1].PerWorker, stats.WorkerStats{Worker: 2})
		}, true, errWidth},
		{"host ranks not counted", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[0].HostRanks = 0 }, true, errWidth},
		{"width is not held off the default", func(_ *stats.RunRecord, f []*stats.RunRecord) { f[1].PerWorker = f[1].PerWorker[:1] }, false, nil},
	} {
		s, fleet := solo, []*stats.RunRecord{rankRecord(0), rankRecord(1)}
		tc.doctor(&s, fleet)
		if err := compareFleet(&s, fleet, tc.defaultWidth, 4, 4); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// One core each: GOMAXPROCS=1, or a 2-core host shared by the two ranks.
	fleet := []*stats.RunRecord{rankRecord(0), rankRecord(1)}
	for _, host := range [][2]int{{1, 4}, {2, 2}} {
		if err := compareFleet(&solo, fleet, true, host[0], host[1]); !errors.Is(err, errWidth) {
			t.Errorf("two workers a rank at GOMAXPROCS %d on %d cores: err = %v", host[0], host[1], err)
		}
	}
}

// TestRefusals: an unknown model is a usage error, and the multiproc leg
// without a twsim binary a failure that says what to pass.
func TestRefusals(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "nosuch"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), `"nosuch"`) {
		t.Errorf("-model nosuch: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-model", "multiproc"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "-twsim") {
		t.Errorf("-model multiproc without -twsim: exit %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a refusal wrote to stdout: %q", stdout.String())
	}
}
