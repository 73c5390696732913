package core

import (
	"sync"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/comm"
)

// TestEmptyWorkerAwaitsAdoption publishes a pure swap — each of two workers
// hands its only LP to the other — so both are momentarily empty. A worker
// that took "owns nothing" for "everything stopped" would retire there, the
// handoff to it would fail, and both LPs would end on one worker.
func TestEmptyWorkerAwaitsAdoption(t *testing.T) {
	m := phold.New(phold.Config{Objects: 8, TokensPerObject: 2, MeanDelay: 10, Locality: 0.5, LPs: 2, Seed: 3})
	seq, err := RunSequential(m, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2000)
	cfg.GVTPeriod = 200 * time.Microsecond
	d := newKernel(m, &cfg, comm.Peers{Local: []int{0, 1}}, nil, nil)
	d.lps[0].target.Store(1)
	d.lps[1].target.Store(0)
	d.epoch.Add(1)

	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()

	var committed int64
	for i, lp := range d.lps {
		for _, o := range lp.objs {
			o.commitRemaining()
		}
		committed += lp.st.EventsCommitted
		if got, want := int(lp.worker.Load()), 1-i; got != want {
			t.Errorf("LP %d ends on worker %d, want %d", i, got, want)
		}
	}
	for _, w := range d.workers {
		if w.ownedN.Load() != 1 || w.adoptions.Load() != 1 {
			t.Errorf("worker %d: owns %d LPs after %d adoptions, want 1 and 1", w.id, w.ownedN.Load(), w.adoptions.Load())
		}
	}
	if committed != seq.EventsExecuted {
		t.Errorf("committed %d events, the sequential kernel %d", committed, seq.EventsExecuted)
	}
}
