package cancel

import (
	"testing"
	"unsafe"

	"gowarp/internal/event"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

func TestSelectorStatic(t *testing.T) {
	ac := NewSelector(Config{Mode: StaticAggressive})
	if ac.Current() != Aggressive || ac.Monitoring() {
		t.Error("static aggressive selector misconfigured")
	}
	lc := NewSelector(Config{Mode: StaticLazy})
	if lc.Current() != Lazy || lc.Monitoring() {
		t.Error("static lazy selector misconfigured")
	}
	// Static selectors never switch regardless of comparisons.
	for i := 0; i < 100; i++ {
		ac.RecordComparison(true)
		lc.RecordComparison(false)
	}
	if ac.Current() != Aggressive || lc.Current() != Lazy {
		t.Error("static selector switched")
	}
}

func TestSelectorDynamicSwitches(t *testing.T) {
	s := NewSelector(Config{
		Mode: Dynamic, FilterDepth: 8,
		A2LThreshold: 0.45, L2AThreshold: 0.2, Period: 1,
	})
	if s.Current() != Aggressive {
		t.Fatal("initial state must be aggressive (the paper's S)")
	}
	// A run of hits lifts HR above A2L: switch to lazy.
	for i := 0; i < 8; i++ {
		s.RecordComparison(true)
	}
	if s.Current() != Lazy {
		t.Fatalf("HR=%.2f did not switch to lazy", s.HitRatio())
	}
	// Misses drop HR below L2A: back to aggressive.
	for i := 0; i < 8; i++ {
		s.RecordComparison(false)
	}
	if s.Current() != Aggressive {
		t.Fatalf("HR=%.2f did not switch back to aggressive", s.HitRatio())
	}
	if s.Switches() != 2 {
		t.Errorf("Switches = %d, want 2", s.Switches())
	}
}

func TestSelectorDeadZoneDamps(t *testing.T) {
	s := NewSelector(Config{
		Mode: Dynamic, FilterDepth: 10,
		A2LThreshold: 0.45, L2AThreshold: 0.2, Period: 1,
	})
	// Fill with hits (HR 1.0, lazy), then decay the ratio into the dead
	// zone with misses; an HR inside (0.2, 0.45) must hold lazy.
	for i := 0; i < 10; i++ {
		s.RecordComparison(true)
	}
	if s.Current() != Lazy {
		t.Fatal("setup failed")
	}
	for i := 0; i < 6; i++ {
		s.RecordComparison(false)
	}
	hr := s.HitRatio()
	if hr <= 0.2 || hr >= 0.45 {
		t.Fatalf("test drifted out of the dead zone: HR=%.2f", hr)
	}
	if s.Current() != Lazy {
		t.Error("dead zone failed to hold the lazy state")
	}
}

func TestSelectorPS(t *testing.T) {
	s := NewSelector(Config{
		Mode: Dynamic, FilterDepth: 8, Period: 1, PermanentAfter: 8,
	})
	for i := 0; i < 8; i++ {
		s.RecordComparison(true)
	}
	if s.Current() != Lazy {
		t.Fatal("PS should have decided lazy")
	}
	if s.Monitoring() {
		t.Error("PS must stop monitoring after freezing")
	}
	// Frozen: further comparisons are ignored.
	for i := 0; i < 20; i++ {
		s.RecordComparison(false)
	}
	if s.Current() != Lazy {
		t.Error("frozen PS switched")
	}
}

func TestSelectorPA(t *testing.T) {
	s := NewSelector(Config{
		Mode: Dynamic, FilterDepth: 32, Period: 1,
		PermanentAggressiveRun: 10,
	})
	// Get to lazy first.
	for i := 0; i < 32; i++ {
		s.RecordComparison(true)
	}
	if s.Current() != Lazy {
		t.Fatal("setup failed")
	}
	// 10 consecutive misses pin aggressive.
	for i := 0; i < 10; i++ {
		s.RecordComparison(false)
	}
	if s.Current() != Aggressive || s.Monitoring() {
		t.Errorf("PA did not pin aggressive (current %s)", s.Current())
	}
}

func TestStrategyAndModeStrings(t *testing.T) {
	if Aggressive.String() != "aggressive" || Lazy.String() != "lazy" {
		t.Error("strategy names")
	}
	if StaticAggressive.String() != "aggressive" || StaticLazy.String() != "lazy" || Dynamic.String() != "dynamic" {
		t.Error("mode names")
	}
}

// --- Manager tests ---

type harness struct {
	m     *Manager
	st    stats.Counters
	antis []*event.Event
	seq   uint64
}

func newHarness(mode Mode) *harness {
	h := &harness{}
	sel := NewSelector(Config{Mode: mode, FilterDepth: 8, Period: 1})
	// nil pool: the harness keeps referring to events after the manager
	// releases them, so reclamation stays with the garbage collector.
	h.m = NewManager(sel, func(a *event.Event) { h.antis = append(h.antis, a) }, &h.st, nil)
	return h
}

// in makes an input event of this object (receiver 1).
func in(recv vtime.Time, id uint64) *event.Event {
	return &event.Event{RecvTime: recv, Receiver: 1, Sender: 0, ID: id, SendSeq: uint32(id)}
}

// out makes an output message from this object to object 2.
func (h *harness) out(send, recv vtime.Time, payload byte) *event.Event {
	h.seq++
	return &event.Event{
		SendTime: send, RecvTime: recv, Sender: 1, Receiver: 2,
		ID: h.seq, SendSeq: uint32(send), Payload: []byte{payload},
	}
}

func TestManagerAggressiveRollback(t *testing.T) {
	h := newHarness(StaticAggressive)
	g1, g2, g3 := in(10, 1), in(20, 2), in(30, 3)
	h.m.RecordSent(h.out(10, 40, 'a'), g1)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.RecordSent(h.out(30, 60, 'c'), g3)

	// Straggler at 15: outputs of g2 and g3 must be cancelled immediately.
	strat := h.m.OnRollback(in(15, 99))
	if strat != Aggressive {
		t.Fatalf("strategy = %s", strat)
	}
	if len(h.antis) != 2 {
		t.Fatalf("%d anti-messages, want 2", len(h.antis))
	}
	for _, a := range h.antis {
		if !a.IsAnti() {
			t.Error("emitted message is not an anti-message")
		}
	}
	if h.m.SentLen() != 1 || h.m.PendingLen() != 0 {
		t.Errorf("queues: sent %d pending %d", h.m.SentLen(), h.m.PendingLen())
	}
	if h.st.AntiMsgsSent != 2 {
		t.Errorf("AntiMsgsSent = %d", h.st.AntiMsgsSent)
	}
}

func TestManagerLazyHit(t *testing.T) {
	h := newHarness(StaticLazy)
	g2 := in(20, 2)
	orig := h.out(20, 50, 'b')
	h.m.RecordSent(orig, g2)

	h.m.OnRollback(in(15, 99))
	if len(h.antis) != 0 {
		t.Fatal("lazy rollback must not cancel immediately")
	}
	if h.m.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d", h.m.PendingLen())
	}
	// Re-execution of g2 regenerates identical content: lazy hit.
	regen := h.out(20, 50, 'b')
	if h.m.FilterOutput(regen, g2) {
		t.Fatal("identical regeneration must not transmit (original stands)")
	}
	if h.m.PendingLen() != 0 || h.m.SentLen() != 1 {
		t.Error("hit must reinstate the original into the output queue")
	}
	h.m.AfterExecute(g2)
	if len(h.antis) != 0 {
		t.Error("hit entry must not be cancelled afterwards")
	}
	if h.st.LazyHits != 1 || h.st.LazyMisses != 0 {
		t.Errorf("hits/misses = %d/%d", h.st.LazyHits, h.st.LazyMisses)
	}
}

func TestManagerLazyMiss(t *testing.T) {
	h := newHarness(StaticLazy)
	g2 := in(20, 2)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.OnRollback(in(15, 99))

	// Re-execution produces different content: transmit new, and after g2
	// completes the unmatched original is cancelled.
	regen := h.out(20, 50, 'X')
	if !h.m.FilterOutput(regen, g2) {
		t.Fatal("different content must transmit")
	}
	h.m.RecordSent(regen, g2)
	h.m.AfterExecute(g2)
	if len(h.antis) != 1 {
		t.Fatalf("%d antis after miss, want 1", len(h.antis))
	}
	if h.st.LazyMisses != 1 {
		t.Errorf("misses = %d", h.st.LazyMisses)
	}
	if h.m.SentLen() != 1 {
		t.Errorf("SentLen = %d", h.m.SentLen())
	}
}

func TestManagerLazyExpiryOnSkippedGen(t *testing.T) {
	h := newHarness(StaticLazy)
	g2 := in(20, 2)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.OnRollback(in(15, 99))
	// g2 never re-executes (annihilated); executing a later event expires
	// the pending entry as a miss.
	h.m.AfterExecute(in(25, 5))
	if len(h.antis) != 1 || h.st.LazyMisses != 1 {
		t.Fatalf("antis=%d misses=%d", len(h.antis), h.st.LazyMisses)
	}
}

// TestManagerAfterExecuteCompaction: two rollbacks leave the pending list out
// of generation order, so the entry that expires sits between two that
// survive; the survivors must keep their order, content and anti-messages.
func TestManagerAfterExecuteCompaction(t *testing.T) {
	h := newHarness(StaticLazy)
	g2, g3, g4 := in(20, 2), in(30, 3), in(40, 4)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.RecordSent(h.out(30, 60, 'c'), g3)
	h.m.RecordSent(h.out(40, 70, 'd'), g4)
	h.m.OnRollback(in(35, 98)) // pending: d
	h.m.OnRollback(in(15, 99)) // pending: d, b, c
	if h.m.PendingLen() != 3 || h.m.SentLen() != 0 {
		t.Fatalf("queues: sent %d pending %d", h.m.SentLen(), h.m.PendingLen())
	}
	h.m.AfterExecute(in(12, 7)) // nothing expires
	if h.m.PendingLen() != 3 || len(h.antis) != 0 {
		t.Fatalf("pending %d antis %d after an execution before every generation", h.m.PendingLen(), len(h.antis))
	}
	h.m.AfterExecute(g2) // b expires, from the middle
	if h.m.PendingLen() != 2 || len(h.antis) != 1 || h.antis[0].RecvTime != 50 {
		t.Fatalf("pending %d antis %v after g2", h.m.PendingLen(), h.antis)
	}
	if min := h.m.MinPending(); min != 60 {
		t.Fatalf("MinPending = %v, want 60", min)
	}
	// Both survivors still match their regenerations, in either order.
	if h.m.FilterOutput(h.out(40, 70, 'd'), g4) || h.m.FilterOutput(h.out(30, 60, 'c'), g3) {
		t.Fatal("a surviving entry no longer matches its regeneration")
	}
	if h.m.PendingLen() != 0 || h.m.SentLen() != 2 || h.st.LazyHits != 2 || h.st.LazyMisses != 1 {
		t.Fatalf("pending %d sent %d hits %d misses %d", h.m.PendingLen(), h.m.SentLen(), h.st.LazyHits, h.st.LazyMisses)
	}
}

func TestManagerPassiveComparison(t *testing.T) {
	h := newHarness(Dynamic) // dynamic starts aggressive with monitoring
	g2 := in(20, 2)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.OnRollback(in(15, 99))
	if len(h.antis) != 1 {
		t.Fatal("aggressive with monitoring must still cancel immediately")
	}
	if h.m.PendingLen() != 1 {
		t.Fatal("passive entry must be retained for comparison")
	}
	// A passive hit still transmits (the original was annihilated).
	regen := h.out(20, 50, 'b')
	if !h.m.FilterOutput(regen, g2) {
		t.Fatal("passive hit must transmit the regenerated message")
	}
	if h.st.LazyHits != 1 {
		t.Errorf("hits = %d", h.st.LazyHits)
	}
	if len(h.antis) != 1 {
		t.Error("passive hit must not emit another anti")
	}
}

func TestManagerMinPendingAndDrain(t *testing.T) {
	h := newHarness(StaticLazy)
	g2, g3 := in(20, 2), in(30, 3)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.RecordSent(h.out(30, 45, 'c'), g3)
	h.m.OnRollback(in(15, 99))
	if got := h.m.MinPending(); got != 45 {
		t.Fatalf("MinPending = %s, want 45", got)
	}
	h.m.Drain()
	if h.m.PendingLen() != 0 || len(h.antis) != 2 {
		t.Error("Drain must cancel all pending entries")
	}
	if got := h.m.MinPending(); got != vtime.PosInf {
		t.Errorf("MinPending after drain = %s", got)
	}
}

func TestManagerFossilCollect(t *testing.T) {
	h := newHarness(StaticAggressive)
	if f := h.m.FossilFloor(); f != vtime.PosInf {
		t.Errorf("FossilFloor of an empty queue = %s", f)
	}
	for i := 1; i <= 5; i++ {
		g := in(vtime.Time(10*i), uint64(i))
		h.m.RecordSent(h.out(vtime.Time(10*i), vtime.Time(10*i+100), byte(i)), g)
	}
	// At or below the floor there is nothing to reclaim.
	if f := h.m.FossilFloor(); f != 10 || h.m.FossilCollect(f) != 0 {
		t.Errorf("FossilFloor = %s, want 10 and a no-op collection there", f)
	}
	// GVT 30: records generated at 10 and 20 are unreachable.
	n := h.m.FossilCollect(30)
	if n != 2 || h.m.SentLen() != 3 || h.m.FossilFloor() != 30 {
		t.Errorf("reclaimed %d (sent %d, floor %s), want 2 (3, 30)", n, h.m.SentLen(), h.m.FossilFloor())
	}
	// Remaining records still cancel correctly.
	h.m.OnRollback(in(35, 99))
	if len(h.antis) != 2 {
		t.Errorf("%d antis after rollback, want 2 (events at 40, 50)", len(h.antis))
	}
}

func TestManagerInitOutputsNeverCancelled(t *testing.T) {
	h := newHarness(StaticAggressive)
	h.m.RecordSent(h.out(0, 5, 'i'), nil) // Init output: gen == nil
	h.m.RecordSent(h.out(10, 40, 'a'), in(10, 1))
	h.m.OnRollback(in(5, 99))
	if len(h.antis) != 1 {
		t.Fatalf("%d antis, want 1 (Init output must survive)", len(h.antis))
	}
	if h.m.SentLen() != 1 {
		t.Errorf("SentLen = %d, want the Init record retained", h.m.SentLen())
	}
	// An Init record is reclaimable at any GVT: the floor says so.
	if f := h.m.FossilFloor(); f != vtime.NegInf || h.m.FossilCollect(0) != 1 {
		t.Errorf("FossilFloor = %s, want -inf and the Init record reclaimed", f)
	}
}

func TestManagerCrossGenMatch(t *testing.T) {
	// A pending output from g3 may be regenerated by a different event g2
	// (the object now sends it earlier); the hit must reattribute it.
	h := newHarness(StaticLazy)
	g3 := in(30, 3)
	orig := h.out(30, 60, 'z')
	h.m.RecordSent(orig, g3)
	h.m.OnRollback(in(15, 99))

	g2 := in(20, 2)
	// Regenerated message must be fully identical (including ordering key)
	// to count as the same message.
	regen := &event.Event{
		SendTime: orig.SendTime, RecvTime: orig.RecvTime,
		Sender: 1, Receiver: 2, ID: 777, SendSeq: orig.SendSeq,
		Payload: []byte{'z'},
	}
	if h.m.FilterOutput(regen, g2) {
		t.Fatal("identical message must hit")
	}
	// Rolling back past g2 must now cancel the reinstated original.
	h.m.OnRollback(in(18, 98))
	if h.m.PendingLen() != 1 {
		t.Error("reinstated original must be owned by g2 now")
	}
}

// TestRecordSize pins the output-queue entry at three words: two shared
// pointers and a flag, where a by-value generation stamp made it 96 bytes.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 24 {
		t.Errorf("unsafe.Sizeof(record{}) = %d, want at most 24", n)
	}
}

// TestManagerHoldsBalance runs the rounds benchmark/layers.go times — the same
// literal generating events reused across thousands of RecordSent,
// FossilCollect, OnRollback and FilterOutput rounds — over every way a record
// can die, on a pooled manager and on a nil-pool one: each round must leave
// the generating events with the one holder they started with (the test) and
// the pooled outputs recycled, and on a nil pool nothing is ever counted.
func TestManagerHoldsBalance(t *testing.T) {
	const window, rounds = 16, 2000
	for _, pooled := range []bool{true, false} {
		for _, mode := range []Mode{StaticAggressive, StaticLazy, Dynamic} {
			var pool *event.Pool
			if pooled {
				pool = event.NewPool()
			}
			var st stats.Counters
			m := NewManager(NewSelector(Config{Mode: mode, FilterDepth: 4, Period: 1}),
				func(a *event.Event) { pool.Put(a) }, &st, pool)
			gens := make([]*event.Event, window)
			for i := range gens {
				gens[i] = in(vtime.Time(10*(i+1)), uint64(i+1))
			}
			out := func(i int) *event.Event {
				e := pool.Get()
				e.SendTime, e.RecvTime = gens[i].RecvTime, gens[i].RecvTime+5
				e.Sender, e.Receiver, e.ID = 1, 2, uint64(i)
				return e
			}
			for r := 0; r < rounds; r++ {
				m.RecordSent(out(0), nil) // an Init output: no generating event
				for i := range gens {
					m.RecordSent(out(i), gens[i])
					m.RecordSent(out(i), gens[i]) // two records, one generating event
				}
				if want := map[bool]int{true: 3, false: 1}[pooled]; gens[0].Holders() != want {
					t.Fatalf("pooled=%v %s: generating event has %d holders under two records, want %d",
						pooled, mode, gens[0].Holders(), want)
				}
				// A straggler undoes the newer half; what a lazy or monitoring
				// manager parks is then regenerated (a hit), expired by the
				// execution passing it (a miss), or drained.
				m.OnRollback(gens[window/2])
				for i := window / 2; i < window && m.PendingLen() > 0; i++ {
					switch i % 3 {
					case 0:
						regen := out(i)
						if m.FilterOutput(regen, gens[i]) {
							m.RecordSent(regen, gens[i])
						} else {
							pool.Put(regen)
						}
					case 1:
						m.AfterExecute(gens[i])
					}
				}
				m.Drain()
				m.FossilCollect(vtime.PosInf)
				if m.SentLen() != 0 || m.PendingLen() != 0 {
					t.Fatalf("pooled=%v %s: %d sent and %d pending records survive a round", pooled, mode, m.SentLen(), m.PendingLen())
				}
				for i, g := range gens {
					if g.Holders() != 1 || g.ID != uint64(i+1) {
						t.Fatalf("pooled=%v %s round %d: generating event %d left with %d holders, id %d",
							pooled, mode, r, i, g.Holders(), g.ID)
					}
				}
			}
			if allocs, reuses := pool.Stats(); pooled && (allocs > 4*window || reuses == 0) {
				t.Errorf("%s: %d events allocated and %d reused over %d rounds: outputs are not coming back",
					mode, allocs, reuses, rounds)
			}
			if mode != StaticAggressive && st.LazyHits == 0 {
				t.Errorf("pooled=%v %s: no lazy hit; the reattribution path was not exercised", pooled, mode)
			}
		}
	}
}

// TestManagerRemapVisitsEveryHold: Remap reaches each record's output and
// generating event, sent and pending, and stores what f returns.
func TestManagerRemapVisitsEveryHold(t *testing.T) {
	h := newHarness(StaticLazy)
	g1, g2 := in(10, 1), in(20, 2)
	h.m.RecordSent(h.out(0, 5, 'i'), nil)
	h.m.RecordSent(h.out(10, 40, 'a'), g1)
	h.m.RecordSent(h.out(20, 50, 'b'), g2)
	h.m.RecordSent(h.out(20, 55, 'c'), g2)
	h.m.OnRollback(in(15, 99)) // g2's two outputs go to the pending list
	seen := map[*event.Event]int{}
	h.m.Remap(func(e *event.Event) *event.Event { seen[e]++; return e })
	if len(seen) != 6 || seen[g1] != 1 || seen[g2] != 2 {
		t.Fatalf("Remap visited %d events (g1 %d times, g2 %d), want 6 (1, 2)", len(seen), seen[g1], seen[g2])
	}
	g2b := in(20, 2)
	h.m.Remap(func(e *event.Event) *event.Event {
		if e == g2 {
			return g2b
		}
		return e
	})
	seen = map[*event.Event]int{}
	h.m.Remap(func(e *event.Event) *event.Event { seen[e]++; return e })
	if seen[g2] != 0 || seen[g2b] != 2 {
		t.Errorf("after repointing, g2 is referred to %d times and its replacement %d, want 0 and 2", seen[g2], seen[g2b])
	}
}

// TestStaticSelectorHasNoControllerParts: a static selector builds no window,
// dead zone or ticker, reads zero where they would be consulted, and stays
// that way when a trace hook is offered — it never switches, so there is
// nothing to observe and nowhere to keep the hook.
func TestStaticSelectorHasNoControllerParts(t *testing.T) {
	for _, mode := range []Mode{StaticAggressive, StaticLazy} {
		s := NewSelector(Config{Mode: mode})
		want := s.Current()
		for _, fn := range []func(Strategy, float64){
			nil,
			func(Strategy, float64) { t.Errorf("%s selector called its hook", mode) },
		} {
			s.SetHook(fn)
			if s.ctl != nil || s.Switches() != 0 || s.Monitoring() {
				t.Errorf("%s selector built controller parts (hook set: %t)", mode, fn != nil)
			}
		}
		if size := unsafe.Sizeof(*s); size > 24 {
			t.Errorf("a Selector is %d bytes inline, want its strategy, the frozen bit and one pointer", size)
		}
		for _, hit := range []bool{true, true, false, true} {
			s.RecordComparison(hit)
		}
		if s.Current() != want || s.HitRatio() != 0 || s.Comparisons() != 0 {
			t.Errorf("%s selector moved to %s and reads HR %.2f over %d comparisons",
				mode, s.Current(), s.HitRatio(), s.Comparisons())
		}
	}
}

// TestBlock: the selectors and managers of a block share its allocations — a
// handful for any number of objects, dynamic controllers and their comparison
// windows included — each output queue starts on its own slot of the block's
// record array and the record that outgrows the slot moves the queue, the
// windows do not run into each other, and every manager reaches its LP through
// the one Host, which a later SetHost replaces.
func TestBlock(t *testing.T) {
	const n = 64
	cfg := Config{Mode: Dynamic, FilterDepth: 4, Period: 1, A2LThreshold: 0.5, L2AThreshold: 0.5}
	var st stats.Counters
	var antis int
	host := &Host{Emit: func(*event.Event) { antis++ }, Stats: &st}
	sels, mgrs := make([]Selector, n), make([]Manager, n)
	build := func() {
		b := NewBlock(cfg, n)
		for i := range sels {
			b.Bind(i, &sels[i], &mgrs[i], host)
		}
	}
	if allocs := testing.AllocsPerRun(10, build); allocs > 6 {
		t.Errorf("a block of %d dynamic objects cost %.0f allocations, want a handful", n, allocs)
	}
	gen := &event.Event{RecvTime: 1, Sender: 1, ID: 1}
	for i := range mgrs {
		if mgrs[i].Selector() != &sels[i] || !sels[i].Monitoring() || cap(mgrs[i].sent) != 1 {
			t.Fatalf("object %d: selector %p (want %p), monitoring %t, %d record slots",
				i, mgrs[i].Selector(), &sels[i], sels[i].Monitoring(), cap(mgrs[i].sent))
		}
		mgrs[i].RecordSent(&event.Event{ID: uint64(i)}, gen)
	}
	mgrs[0].RecordSent(&event.Event{ID: 1000}, gen)
	if mgrs[0].SentLen() != 2 || mgrs[1].SentLen() != 1 || mgrs[1].sent[0].ev.ID != 1 {
		t.Fatalf("after a second record on queue 0: %d there, %d on queue 1", mgrs[0].SentLen(), mgrs[1].SentLen())
	}
	// Four hits fill selector 0's window and switch it to lazy; its
	// neighbour's window must not have seen them.
	for i := 0; i < 4; i++ {
		sels[0].RecordComparison(true)
	}
	if sels[0].Current() != Lazy || sels[1].Current() != Aggressive || sels[1].Comparisons() != 0 || sels[0].Comparisons() != 4 {
		t.Errorf("selector 0: %s after %d comparisons; selector 1: %s after %d",
			sels[0].Current(), sels[0].Comparisons(), sels[1].Current(), sels[1].Comparisons())
	}
	// A manager cancels through whatever host it is pointed at.
	var moved stats.Counters
	mgrs[1].SetHost(&Host{Emit: func(*event.Event) { antis += 100 }, Stats: &moved})
	mgrs[1].OnRollback(&event.Event{})
	mgrs[2].OnRollback(&event.Event{})
	if antis != 101 || moved.AntiMsgsSent != 1 || st.AntiMsgsSent != 1 {
		t.Errorf("anti-messages: %d emitted, %d counted by the new host, %d by the old", antis, moved.AntiMsgsSent, st.AntiMsgsSent)
	}

	static := NewBlock(Config{Mode: StaticLazy}, 1)
	static.Bind(0, &sels[0], &mgrs[0], host)
	if sels[0].ctl != nil || sels[0].Current() != Lazy || sels[0].Monitoring() {
		t.Errorf("a static selector from a block: controller %v, %s, monitoring %t", sels[0].ctl, sels[0].Current(), sels[0].Monitoring())
	}
}
