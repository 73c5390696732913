package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"

	"gowarp/internal/stats"
)

// runMultiproc is the multi-process oracle leg: it runs one solo in-process
// twsim and two-rank TCP fleets of the same model and seed as real OS
// processes over loopback — one fleet per dispatcher width: a worker per LP,
// two workers per rank, and the default ("pool": a worker per LP up to the
// rank's share of the cores, half of them with two ranks on this host, so one
// per rank on a 2-core runner, the only worker also the only one polling the
// sockets) — then compares committed events and the final state hash from
// their JSON artifacts, and at the default holds each rank's artifact to the
// width the rule gives. Because the kernel commits deterministically, each
// fleet's coordinator must report byte-identical results to the solo run —
// any divergence means the transport or the dispatcher perturbed the
// computation.
func runMultiproc(stdout io.Writer, twsim string, seed uint64, verbose bool) error {
	if twsim == "" {
		return fmt.Errorf("the multiproc leg spawns twsim processes: pass -twsim <path-to-binary>")
	}
	dir, err := os.MkdirTemp("", "twcheck-multiproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	modelArgs := []string{
		"-model", "smmp", "-requests", "60", fmt.Sprintf("-seed=%d", seed),
		"-gvt-period", "200us", "-optimism=static,window=2000",
	}

	soloJSON := filepath.Join(dir, "solo.json")
	solo := exec.Command(twsim, append(append([]string(nil), modelArgs...), "-json-out", soloJSON)...)
	if out, err := solo.CombinedOutput(); err != nil {
		return fmt.Errorf("solo run: %v\n%s", err, out)
	}
	soloSum, err := stats.ReadRunRecord(soloJSON)
	if err != nil {
		return err
	}
	for _, sched := range []string{"lp", "pool,workers=2", "pool"} {
		if err := checkFleet(stdout, twsim, dir, modelArgs, sched, soloSum, verbose); err != nil {
			return fmt.Errorf("-sched %s: %w", sched, err)
		}
	}
	return nil
}

// checkFleet runs one two-rank fleet under the given -sched spec and holds
// its artifacts against the solo run's.
func checkFleet(stdout io.Writer, twsim, dir string, modelArgs []string, sched string, soloSum *stats.RunRecord, verbose bool) error {
	addrs, err := reserveLoopbackAddrs(2)
	if err != nil {
		return err
	}
	peers := addrs[0] + ";" + addrs[1]

	rankJSON := []string{filepath.Join(dir, "rank0.json"), filepath.Join(dir, "rank1.json")}
	outs := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := append(append([]string(nil), modelArgs...),
				"-transport", fmt.Sprintf("tcp,rank=%d,peers=%s", r, peers),
				"-sched", sched, "-json-out", rankJSON[r])
			outs[r], errs[r] = exec.Command(twsim, args...).CombinedOutput()
		}(r)
	}
	wg.Wait()
	fleet := make([]*stats.RunRecord, 2)
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %v\n%s", r, err, outs[r])
		}
		if fleet[r], err = stats.ReadRunRecord(rankJSON[r]); err != nil {
			return err
		}
	}
	// The children inherit this process's GOMAXPROCS, so the default width's
	// rule can be evaluated here.
	if err := compareFleet(soloSum, fleet, sched == "pool", runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		return err
	}
	coord := fleet[0]
	if verbose {
		fmt.Fprintf(stdout, "  solo:  committed=%d hash=%#x\n", soloSum.Stats.EventsCommitted, soloSum.FinalStateHash)
		fmt.Fprintf(stdout, "  fleet: committed=%d hash=%#x ranks=%d workers=%d\n  rank 0 stdout: %s  rank 1 stdout: %s",
			coord.Stats.EventsCommitted, coord.FinalStateHash, coord.Ranks, len(coord.PerWorker), outs[0], outs[1])
	}
	fmt.Fprintf(stdout, "twcheck: multiproc: MATCH (2 tcp ranks -sched %s vs in-process, committed=%d, hash=%#x)\n",
		sched, coord.Stats.EventsCommitted, coord.FinalStateHash)
	return nil
}

// What compareFleet finds wrong, for errors.Is.
var (
	errNoHash    = errors.New("missing final state hash")
	errShape     = errors.New("coordinator artifact is not a 2-rank tcp run's")
	errCommitted = errors.New("MISMATCH committed events")
	errHash      = errors.New("MISMATCH final state hash")
	errWidth     = errors.New("rank did not take its share of the host")
)

// compareFleet is the leg's verdict over loaded artifacts: the coordinator's
// (fleet[0]) must be a two-rank tcp run's with the solo run's committed count
// and final state hash, and at the default width every rank must have counted
// both ranks on this host and run min(hosted LPs, gomaxprocs, max(1, cores/2))
// workers. Nil is MATCH.
func compareFleet(solo *stats.RunRecord, fleet []*stats.RunRecord, defaultWidth bool, gomaxprocs, cores int) error {
	coord := fleet[0]
	if solo.FinalStateHash == 0 || coord.FinalStateHash == 0 {
		return fmt.Errorf("%w: solo %#x, coordinator %#x", errNoHash,
			solo.FinalStateHash, coord.FinalStateHash)
	}
	if coord.Ranks != 2 || coord.Transport != "tcp" {
		return fmt.Errorf("%w: transport=%q ranks=%d", errShape, coord.Transport, coord.Ranks)
	}
	if coord.Stats.EventsCommitted != solo.Stats.EventsCommitted {
		return fmt.Errorf("%w: fleet %d, solo %d", errCommitted,
			coord.Stats.EventsCommitted, solo.Stats.EventsCommitted)
	}
	if coord.FinalStateHash != solo.FinalStateHash {
		return fmt.Errorf("%w: fleet %#x, solo %#x", errHash,
			coord.FinalStateHash, solo.FinalStateHash)
	}
	if !defaultWidth {
		return nil
	}
	for r, rec := range fleet {
		hosted := 0
		for _, w := range rec.FinalWorkerAssignment {
			if w >= 0 {
				hosted++
			}
		}
		want := min(hosted, gomaxprocs, max(1, cores/2))
		if got := len(rec.PerWorker); rec.HostRanks != 2 || got != want {
			return fmt.Errorf("%w: rank %d ran %d workers having counted %d ranks on this host, want %d workers (%d LPs, GOMAXPROCS %d, %d cores shared by 2 ranks)",
				errWidth, r, got, rec.HostRanks, want, hosted, gomaxprocs, cores)
		}
	}
	return nil
}

// reserveLoopbackAddrs picks n free loopback TCP addresses by binding and
// releasing ephemeral ports. The release-then-rebind window is racy in
// principle; in practice fresh ephemeral ports are not immediately reissued.
func reserveLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}
