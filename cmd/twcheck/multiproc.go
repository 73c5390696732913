package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"

	"gowarp/internal/telemetry"
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
func runMultiproc(twsim string, seed uint64, verbose bool) error {
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
	soloSum, err := readSummary(soloJSON)
	if err != nil {
		return err
	}
	for _, sched := range []string{"lp", "pool,workers=2", "pool"} {
		if err := checkFleet(twsim, dir, modelArgs, sched, soloSum, verbose); err != nil {
			return fmt.Errorf("-sched %s: %w", sched, err)
		}
	}
	return nil
}

// checkFleet runs one two-rank fleet under the given -sched spec and holds
// its coordinator's artifact against the solo run's.
func checkFleet(twsim, dir string, modelArgs []string, sched string, soloSum telemetry.RunSummary, verbose bool) error {
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
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %v\n%s", r, err, outs[r])
		}
	}

	coord, err := readSummary(rankJSON[0])
	if err != nil {
		return err
	}
	if soloSum.FinalStateHash == 0 || coord.FinalStateHash == 0 {
		return fmt.Errorf("missing final state hash: solo %#x, coordinator %#x",
			soloSum.FinalStateHash, coord.FinalStateHash)
	}
	if coord.Ranks != 2 || coord.Transport != "tcp" {
		return fmt.Errorf("coordinator artifact claims transport=%q ranks=%d, want tcp/2",
			coord.Transport, coord.Ranks)
	}
	if coord.Stats.EventsCommitted != soloSum.Stats.EventsCommitted {
		return fmt.Errorf("MISMATCH committed events: fleet %d, solo %d",
			coord.Stats.EventsCommitted, soloSum.Stats.EventsCommitted)
	}
	if coord.FinalStateHash != soloSum.FinalStateHash {
		return fmt.Errorf("MISMATCH final state hash: fleet %#x, solo %#x",
			coord.FinalStateHash, soloSum.FinalStateHash)
	}
	if sched == "pool" {
		// The default width: both ranks are on this host and each must have
		// taken its share of it. The children inherit this process's
		// GOMAXPROCS, so the rule can be evaluated here.
		for r, path := range rankJSON {
			sum, err := readSummary(path)
			if err != nil {
				return err
			}
			hosted := 0
			for _, w := range sum.FinalWorkerAssignment {
				if w >= 0 {
					hosted++
				}
			}
			want := min(hosted, runtime.GOMAXPROCS(0), max(1, runtime.NumCPU()/2))
			if sum.HostRanks != 2 || sum.Workers != want {
				return fmt.Errorf("rank %d ran %d workers having counted %d ranks on this host, want %d workers (%d LPs, GOMAXPROCS %d, %d cores shared by 2 ranks)",
					r, sum.Workers, sum.HostRanks, want, hosted, runtime.GOMAXPROCS(0), runtime.NumCPU())
			}
		}
	}
	if verbose {
		fmt.Printf("  solo:  committed=%d hash=%#x\n", soloSum.Stats.EventsCommitted, soloSum.FinalStateHash)
		fmt.Printf("  fleet: committed=%d hash=%#x ranks=%d workers=%d\n  rank 0 stdout: %s  rank 1 stdout: %s",
			coord.Stats.EventsCommitted, coord.FinalStateHash, coord.Ranks, coord.Workers, outs[0], outs[1])
	}
	fmt.Printf("twcheck: multiproc: MATCH (2 tcp ranks -sched %s vs in-process, committed=%d, hash=%#x)\n",
		sched, coord.Stats.EventsCommitted, coord.FinalStateHash)
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

func readSummary(path string) (telemetry.RunSummary, error) {
	var s telemetry.RunSummary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
