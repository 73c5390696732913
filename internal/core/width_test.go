package core

import (
	"runtime"
	"testing"
)

// TestDefaultWorkers: the width Config.Workers == 0 stands for is never zero,
// never above the hosted LPs or GOMAXPROCS, the same for a transport that does
// not know its placement (0) as for one alone on its machine (1), never wider
// with more ranks on the host, and one worker once the ranks outnumber the
// cores.
func TestDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, hosted := range []int{1, 8} {
			alone := defaultWorkers(hosted, 1)
			if got := defaultWorkers(hosted, 0); got != alone {
				t.Errorf("GOMAXPROCS %d, %d LPs: %d workers with placement unknown, %d alone on the host", procs, hosted, got, alone)
			}
			if want := min(hosted, procs, runtime.NumCPU()); alone != want {
				t.Errorf("GOMAXPROCS %d, %d LPs: %d workers alone on the host, want %d", procs, hosted, alone, want)
			}
			prev := alone
			for _, hostRanks := range []int{1, 2, 3, 16} {
				got := defaultWorkers(hosted, hostRanks)
				if got < 1 || got > hosted || got > procs || got > prev {
					t.Errorf("GOMAXPROCS %d, %d LPs, %d ranks on the host: %d workers (%d with fewer ranks)", procs, hosted, hostRanks, got, prev)
				}
				if hostRanks >= runtime.NumCPU() && got != 1 {
					t.Errorf("GOMAXPROCS %d, %d LPs, %d ranks on %d cores: %d workers, want 1", procs, hosted, hostRanks, runtime.NumCPU(), got)
				}
				prev = got
			}
		}
	}
}
