package core_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/comm"
	"gowarp/internal/core"
	"gowarp/internal/model"
)

// failDrain is the TCP fleets' DrainTimeout in TestFailuresNameTheFailingRank,
// and how long after its failure every rank has to return.
const failDrain = 2 * time.Second

// faulty is a rank's transport with a hook on what the rank sends: send may
// change the packet, or drop it by returning false.
type faulty struct {
	comm.Transport
	send func(dst int, p *comm.Packet) bool
}

func (f faulty) Send(dst int, p comm.Packet, payloadBytes int) {
	if f.send(dst, &p) {
		f.Transport.Send(dst, p, payloadBytes)
	}
}

// failFleet is one cell's ranks: a single in-process rank, or TCP ranks over
// loopback whose every connection runs through a cutProxy of its own —
// links[a][b] carries what rank a sends rank b.
type failFleet struct {
	trs   []comm.Transport
	links [][]*cutProxy
}

func newFailFleet(t *testing.T, numLPs, ranks int) *failFleet {
	t.Helper()
	if ranks == 1 {
		return &failFleet{trs: []comm.Transport{comm.NewInProc(numLPs)}}
	}
	f := &failFleet{trs: make([]comm.Transport, ranks), links: make([][]*cutProxy, ranks)}
	lns := make([]net.Listener, ranks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
	}
	for a := range f.links {
		f.links[a] = make([]*cutProxy, ranks)
		for b := range f.links[a] {
			if a != b {
				f.links[a][b] = newCutProxy(t, lns[b].Addr().String())
			}
		}
	}
	t.Cleanup(func() {
		for a := range f.links {
			for b := range f.links[a] {
				if a != b {
					f.links[a][b].cut()
				}
			}
		}
	})
	for r := range f.trs {
		addrs := make([]string, ranks)
		for p := range addrs {
			if addrs[p] = lns[r].Addr().String(); p != r {
				addrs[p] = f.links[r][p].ln.Addr().String()
			}
		}
		tr, err := comm.NewTCP(comm.TCPConfig{
			Rank: r, Addrs: addrs, NumLPs: numLPs,
			DialTimeout: 10 * time.Second, DrainTimeout: failDrain,
			Listener: lns[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		f.trs[r] = tr
	}
	return f
}

// cut resets both connections between ranks a and b.
func (f *failFleet) cut(a, b int) { cutAll(f.links[a][b], f.links[b][a]) }

// leave resets every connection of rank r at once, as the death of its
// process does.
func (f *failFleet) leave(r int) {
	var ps []*cutProxy
	for p := range f.links {
		if p != r {
			ps = append(ps, f.links[r][p], f.links[p][r])
		}
	}
	cutAll(ps...)
}

// kernelGoroutines counts the goroutines in the kernel's or a transport's
// code.
func kernelGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "gowarp/internal/core.") || strings.Contains(g, "gowarp/internal/comm.") {
			n++
		}
	}
	return n
}

// TestFailuresNameTheFailingRank: every way a run can fail, on every fleet it
// can fail on — one rank in process, two and three TCP ranks on loopback —
// ends every rank's Run within failDrain of the failure, with an error that
// names the rank that failed, and leaves no goroutine behind. The failing
// rank is the last one, which hosts LP 3 and object 15.
//
//   - model-panic: object 15 panics at its 2,000th execution. Every rank's
//     error is the failure of that rank, naming the object and the receive
//     time of its event.
//   - kernel-panic: rank 0's transport corrupts its 20th events packet to
//     the failing rank, whose LP panics decoding it (handlePacket). The
//     error names the rank, and the panic names the LP and the sender.
//   - link-cut: the connections between the last two ranks are reset
//     mid-run. Each end's error is its transport's, and rank 0, where it is
//     neither end, hears it as a stop; every error names both ends.
//   - exit-after-final-gvt: the failing rank's connections are all reset as
//     it sends its report, after it has applied the final GVT.
//   - corrupt-report: the failing rank's report carries a byte too many;
//     rank 0 refuses it and every rank fails naming the failing rank.
//   - lost-report: the failing rank's report is dropped as it leaves, and its
//     link half-closes behind it. Rank 0 fails with its own account of the
//     loss, and the rank that did report fails naming the failing rank. The
//     failing rank sent its report and is told nothing: it returns success.
//
// Skipped, since they cannot happen in process (one rank, no links and no
// report): inproc's link-cut, exit-after-final-gvt, corrupt-report and
// lost-report. Skipped too: tcp2's lost-report, where no rank but the failing
// one reports (TestDistributedReportLostToHalfClose is that case).
func TestFailuresNameTheFailingRank(t *testing.T) {
	skip := map[string]map[int]string{
		"link-cut":             {1: "one rank has no links to cut"},
		"exit-after-final-gvt": {1: "one rank has no peer to exit from"},
		"corrupt-report":       {1: "one rank sends no report"},
		"lost-report": {
			1: "one rank sends no report",
			2: "no other rank reports; TestDistributedReportLostToHalfClose covers two ranks",
		},
	}
	for _, kind := range []string{"model-panic", "kernel-panic", "link-cut", "exit-after-final-gvt", "corrupt-report", "lost-report"} {
		for _, ranks := range []int{1, 2, 3} {
			fleetName := map[int]string{1: "inproc", 2: "tcp2", 3: "tcp3"}[ranks]
			t.Run(kind+"/"+fleetName, func(t *testing.T) {
				if why, ok := skip[kind][ranks]; ok {
					t.Skip(why)
				}
				failRun(t, kind, ranks)
			})
		}
	}
}

func failRun(t *testing.T, kind string, ranks int) {
	const object, lp = 15, 3
	bad := ranks - 1
	var at atomic.Int64 // when the failure happened, in Unix nanoseconds
	now := func() { at.CompareAndSwap(0, time.Now().UnixNano()) }
	build := func() *model.Model {
		m := phold.New(phold.Config{Objects: 16, TokensPerObject: 2, MeanDelay: 10, Locality: 0.5, LPs: 4, Seed: 5})
		if kind == "model-panic" {
			m.Objects[object] = &panicAt{Object: m.Objects[object], n: 2000, at: &at}
		}
		return m
	}
	if m := build(); m.Partition[object] != lp || comm.RankOf(lp, m.NumLPs(), ranks) != bad {
		t.Fatalf("object %d is not on LP %d of rank %d", object, lp, bad)
	}
	numLPs := build().NumLPs()
	f := newFailFleet(t, numLPs, ranks)
	cfg := core.DefaultConfig(1 << 40)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 2000

	// want says what is wrong with rank r's error, if anything; the rank
	// succeeds, if any, must return no error at all.
	var want func(r int, err error) string
	succeeds := -1
	failing := fmt.Sprintf("core: rank %d failed: ", bad)
	switch kind {
	case "model-panic":
		want = func(_ int, err error) string {
			if msg := err.Error(); !strings.HasPrefix(msg, failing+fmt.Sprintf("LP %d, object %d (", lp, object)) ||
				!strings.Contains(msg, " at t=") || !strings.Contains(msg, "panic: boom") {
				return "the panic of object 15, its event's receive time and its rank"
			}
			return ""
		}
	case "kernel-panic":
		first := comm.BlockRanks(numLPs, ranks, bad)[0]
		var sent atomic.Int64
		f.trs[0] = faulty{f.trs[0], func(dst int, p *comm.Packet) bool {
			if p.Kind == comm.PktEvents && dst >= first && sent.Add(1) == 20 {
				now()
				p.Payload = append(p.Payload, 0xff)
			}
			return true
		}}
		want = func(_ int, err error) string {
			if msg := err.Error(); !strings.HasPrefix(msg, failing) || !strings.Contains(msg, "panic: core: LP ") ||
				!strings.Contains(msg, ": corrupt events packet from LP ") {
				return "the failing rank's panic over the corrupt packet"
			}
			return ""
		}
	case "link-cut":
		a := bad - 1
		want = func(_ int, err error) string {
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("rank %d", a)) || !strings.Contains(msg, fmt.Sprintf("rank %d", bad)) {
				return fmt.Sprintf("an error naming ranks %d and %d", a, bad)
			}
			return ""
		}
		go func() {
			// Cut once both directions carry the simulation's traffic.
			for wait := time.Now(); f.links[a][bad].relayed.Load() < 64<<10 || f.links[bad][a].relayed.Load() < 64<<10; {
				if time.Since(wait) > 30*time.Second {
					return // the fleet never got going: the test fails on its own
				}
				time.Sleep(time.Millisecond)
			}
			now()
			f.cut(a, bad)
		}()
	case "exit-after-final-gvt", "corrupt-report":
		cfg.EndTime = 3000 // the run ends well: its last rank reports
		exit := kind == "exit-after-final-gvt"
		f.trs[bad] = faulty{f.trs[bad], func(_ int, p *comm.Packet) bool {
			if p.Kind != comm.PktReport {
				return true
			}
			now()
			if exit {
				f.leave(bad)
				return false
			}
			p.Payload = append(p.Payload, 0)
			return true
		}}
		want = func(_ int, err error) string {
			if !strings.Contains(err.Error(), fmt.Sprintf("rank %d", bad)) {
				return fmt.Sprintf("an error naming rank %d", bad)
			}
			return ""
		}
		if !exit {
			refused := failing + "report: 1 trailing byte(s)"
			want = func(_ int, err error) string {
				if err.Error() != refused {
					return fmt.Sprintf("%q", refused)
				}
				return ""
			}
		}
	case "lost-report":
		cfg.EndTime = 3000
		f.trs[bad] = faulty{f.trs[bad], func(_ int, p *comm.Packet) bool {
			if p.Kind == comm.PktReport {
				now()
				return false
			}
			return true
		}}
		succeeds = bad
		lost := fmt.Sprintf("core: rank 0: rank %d closed its link before it reported", bad)
		want = func(r int, err error) string {
			switch msg := err.Error(); {
			case r == 0 && msg != lost:
				return fmt.Sprintf("%q", lost)
			case r != 0 && !strings.HasPrefix(msg, failing):
				return fmt.Sprintf("an error beginning %q", failing)
			}
			return ""
		}
	}

	errs := make([]error, ranks)
	returned := make([]time.Time, ranks)
	var wg sync.WaitGroup
	for r, tr := range f.trs {
		wg.Add(1)
		go func(r int, tr comm.Transport) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport = tr
			_, errs[r] = core.Run(build(), rcfg)
			returned[r] = time.Now()
		}(r, tr)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("a rank is still running after 30 s\n%s", buf[:runtime.Stack(buf, true)])
	}
	if at.Load() == 0 {
		t.Fatalf("the failure never happened: %v", errs)
	}
	failedAt := time.Unix(0, at.Load())
	for r, err := range errs {
		switch {
		case r == succeeds:
			if err != nil {
				t.Errorf("rank %d returned %v, want success", r, err)
			}
		case err == nil:
			t.Errorf("rank %d returned success", r)
		case want(r, err) != "":
			t.Errorf("rank %d returned %v\nwant %s", r, err, want(r, err))
		}
		if took := returned[r].Sub(failedAt); took > failDrain {
			t.Errorf("rank %d returned %v after the failure, past the drain timeout of %v", r, took, failDrain)
		}
		if err != nil {
			t.Logf("rank %d: %s", r, strings.SplitN(err.Error(), "\n", 2)[0])
		}
	}
	for wait := time.Now(); kernelGoroutines() > 0; time.Sleep(time.Millisecond) {
		if time.Since(wait) > failDrain {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines in the kernel or a transport outlived the run\n%s", kernelGoroutines(), buf[:runtime.Stack(buf, true)])
		}
	}
}
