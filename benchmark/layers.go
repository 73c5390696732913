package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"gowarp"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/pq"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// The layer drivers time calls into each hot layer's public functions from
// outside, with fixed seeded operation mixes and fixed iteration counts. A
// number is the median of layerBatches batches; allocs/op comes from
// runtime.MemStats deltas around a batch. The internal functions called here
// (constructor plus hot methods) are listed in README.md: changing one of
// those signatures needs a benchmark change first.
const layerBatches = 5

// layerRun carries the seeded generator and the iteration divisor (1 for a
// real run, large for the smoke test) through the drivers.
type layerRun struct {
	rng *rand.Rand
	div int
	out map[string]float64
}

// measure runs batch(n) layerBatches times. batch performs n operations and
// returns the time spent on the measured part of them; measure returns the
// median ns/op and the median heap allocations per operation.
func (l *layerRun) measure(n int, batch func(n int) time.Duration) (nsPerOp, allocsPerOp float64) {
	if n /= l.div; n < 16 {
		n = 16
	}
	var ns, allocs []float64
	var before, after runtime.MemStats
	for b := 0; b < layerBatches; b++ {
		runtime.ReadMemStats(&before)
		d := batch(n)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// runLayers runs every driver and returns metric name -> value.
func runLayers(seed uint64, div int) (map[string]float64, error) {
	l := &layerRun{rng: rand.New(rand.NewSource(int64(seed))), div: div, out: map[string]float64{}}
	l.pqDrivers()
	l.eventDrivers()
	l.statesaveDrivers()
	l.cancelDrivers()
	l.codecDrivers()
	l.commDrivers()
	if err := l.tcpDrivers(); err != nil {
		return nil, err
	}
	l.gvtDrivers()
	return l.out, nil
}

func (l *layerRun) newEvent(id uint64, at vtime.Time) *event.Event {
	return &event.Event{
		SendTime: at, RecvTime: at + 1 + vtime.Time(l.rng.ExpFloat64()*10),
		Sender: event.ObjectID(l.rng.Intn(4096)), Receiver: event.ObjectID(l.rng.Intn(4096)),
		ID: id, Payload: make([]byte, 8),
	}
}

// pqDrivers: the classic hold model (pop the minimum, push a successor) at
// three pending-set sizes per implementation, removal by identity at 1024
// pending (annihilation of an unprocessed event), and the dispatcher's
// rekey (ScheduleHeap Min + UpdateKey) at two slot counts.
func (l *layerRun) pqDrivers() {
	kinds := []struct {
		name string
		kind pq.Kind
	}{{"heap", pq.Heap}, {"splay", pq.Splay}, {"calendar", pq.Calendar}}
	for _, k := range kinds {
		for _, size := range []int{16, 1024, 65536} {
			set := pq.New(k.kind)
			id := uint64(0)
			for ; id < uint64(size); id++ {
				set.Push(l.newEvent(id, vtime.Time(l.rng.Intn(100))))
			}
			ns, _ := l.measure(20_000, func(n int) time.Duration {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					e := set.PopMin()
					at := e.RecvTime
					e.SendTime, e.RecvTime = at, at+1+vtime.Time(l.rng.ExpFloat64()*10)
					e.ID = id
					id++
					set.Push(e)
				}
				return time.Since(t0)
			})
			l.out[fmt.Sprintf("pq.%s.hold_ns.%d", k.name, size)] = ns
		}

		set := pq.New(k.kind)
		evs := make([]*event.Event, 1024)
		for i := range evs {
			evs[i] = l.newEvent(uint64(i), vtime.Time(l.rng.Intn(100)))
			set.Push(evs[i])
		}
		ns, _ := l.measure(50_000, func(n int) time.Duration {
			var d time.Duration
			for done := 0; done < n; done += 256 {
				picks := l.rng.Perm(len(evs))[:256]
				t0 := time.Now()
				for _, p := range picks {
					set.Remove(pq.IdentityOf(evs[p]))
				}
				d += time.Since(t0)
				for _, p := range picks {
					set.Push(evs[p])
				}
			}
			return d
		})
		l.out["pq."+k.name+".remove_ns"] = ns
	}

	for _, slots := range []int{256, 4096} {
		h := pq.NewScheduleHeap(slots)
		for i := 0; i < slots; i++ {
			h.UpdateKey(i, vtime.Time(l.rng.Intn(100)), uint64(i), int32(i))
		}
		seq := uint64(slots)
		ns, _ := l.measure(200_000, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				slot, t := h.Min()
				h.UpdateKey(slot, t+1+vtime.Time(l.rng.ExpFloat64()*10), seq, int32(slot))
				seq++
			}
			return time.Since(t0)
		})
		l.out[fmt.Sprintf("pq.schedule.update_ns.%d", slots)] = ns
	}
}

// eventDrivers: the per-LP event pool's get/put and clone cycles in steady
// state, and the wire encoding of one event with an 8-byte payload.
func (l *layerRun) eventDrivers() {
	pool := event.NewPool()
	payload := make([]byte, 8)
	src := l.newEvent(1, 10)
	ns, allocs := l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e := pool.Get()
			pool.SetPayload(e, payload)
			pool.Put(e)
		}
		return time.Since(t0)
	})
	l.out["event.pool.getput_ns"] = ns
	l.out["event.pool.allocs_per_op"] = allocs
	l.out["event.pool.clone_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pool.Put(pool.Clone(src))
		}
		return time.Since(t0)
	})
	var buf []byte
	l.out["event.encode_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf = src.Encode(buf[:0])
		}
		return time.Since(t0)
	})
	l.out["event.decode_into_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e, _, err := pool.DecodeInto(buf)
			if err != nil {
				panic(err)
			}
			pool.Put(e)
		}
		return time.Since(t0)
	})
}

// nopContext lets a driver execute a model event outside the kernel.
type nopContext struct{}

func (nopContext) Self() gowarp.ObjectID                              { return 0 }
func (nopContext) Now() gowarp.VTime                                  { return 0 }
func (nopContext) EndTime() gowarp.VTime                              { return gowarp.EndOfTime }
func (nopContext) Send(gowarp.ObjectID, gowarp.VTime, uint32, []byte) {}

// pholdStates returns n successive states of one PHOLD object of about the
// given size, each one event's execution (a counter, the random stream, one
// padding byte) after the previous. It is the state type the kernel
// checkpoints on four of the five workloads, and implements model.Reusable
// and codec.DeltaState.
func pholdStates(bytes, n int) []gowarp.State {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{Objects: 2, Sparse: true, StatePadding: bytes - 32})
	obj := m.Objects[0]
	st := obj.InitialState()
	ev := &gowarp.Event{Payload: make([]byte, 8)}
	out := make([]gowarp.State, n)
	for i := range out {
		obj.Execute(nopContext{}, st, ev)
		out[i] = st.Clone()
	}
	return out
}

// statesaveDrivers: checkpointing in the kernel's rhythm — 64 saves of
// successive states, then a fossil collection that feeds the spare list the
// next saves refill.
func (l *layerRun) statesaveDrivers() {
	const window = 64
	saveLoop := func(states []gowarp.State, cd *codec.StateCodec, windows int) (ns, allocs, fossilNS float64) {
		q := statesave.NewQueue(states[0], statesave.Snapshot{}, cd)
		at := vtime.Time(0)
		var fossil time.Duration
		var collected int
		ns, allocs = l.measure(window*windows, func(n int) time.Duration {
			var d time.Duration
			for done := 0; done < n; done += window {
				t0 := time.Now()
				for _, st := range states {
					at++
					q.Save(st, statesave.Snapshot{Time: at, Mark: int64(at)})
				}
				t1 := time.Now()
				collected += q.FossilCollect(at)
				fossil += time.Since(t1)
				d += t1.Sub(t0)
			}
			return d
		})
		return ns, allocs, float64(fossil) / float64(collected)
	}

	l.out["statesave.save_ns.64b"], _, _ = saveLoop(pholdStates(64, window), nil, 400)
	big := pholdStates(16<<10, window)
	l.out["statesave.save_ns.16k"], l.out["statesave.allocs_per_save"], l.out["statesave.fossil_ns_per_snap"] = saveLoop(big, nil, 400)
	l.out["statesave.save_delta_ns.16k"], _, _ = saveLoop(big, codec.NewState(codec.Config{Mode: codec.Delta}), 40)

	// Restore: rollback over half of a 16-snapshot history (clone path).
	q := statesave.NewQueue(big[0], statesave.Snapshot{}, nil)
	l.out["statesave.restore_ns.16k"], _ = l.measure(4_000, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			for t := vtime.Time(1); t <= 16; t++ {
				q.Save(big[t], statesave.Snapshot{Time: t, Mark: int64(t)})
			}
			t0 := time.Now()
			snap := q.RestoreBefore(9)
			d += time.Since(t0)
			if snap.Time != 8 {
				panic("statesave driver: wrong restore point")
			}
			q.RestoreBefore(1)
		}
		return d
	})
}

// cancelDrivers: the output queue of one object under aggressive and lazy
// cancellation.
func (l *layerRun) cancelDrivers() {
	pool := event.NewPool()
	var st stats.Counters
	emit := func(e *event.Event) { pool.Put(e) }
	gen := func(i int) *event.Event {
		return &event.Event{RecvTime: vtime.Time(i), Sender: 1, Receiver: 2, ID: uint64(i)}
	}
	out := func(i int) *event.Event {
		e := pool.Get()
		e.SendTime, e.RecvTime = vtime.Time(i), vtime.Time(i+5)
		e.Sender, e.Receiver, e.ID = 2, 3, uint64(i)
		return e
	}
	const window = 64
	gens := make([]*event.Event, window+1)
	for i := range gens {
		gens[i] = gen(i + 1)
	}

	// record_sent and fossil: 64 records, then everything below GVT goes.
	m := cancel.NewManager(cancel.NewSelector(cancel.Config{Mode: cancel.StaticAggressive}), emit, &st, pool)
	var fossil time.Duration
	var collected int
	l.out["cancel.record_sent_ns"], _ = l.measure(window*2000, func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += window {
			outs := make([]*event.Event, window)
			for i := range outs {
				outs[i] = out(i + 1)
			}
			t0 := time.Now()
			for i, o := range outs {
				m.RecordSent(o, gens[i])
			}
			t1 := time.Now()
			collected += m.FossilCollect(vtime.Time(window + 2))
			fossil += time.Since(t1)
			d += t1.Sub(t0)
		}
		return d
	})
	l.out["cancel.fossil_ns_per_record"] = float64(fossil) / float64(collected)

	// Aggressive rollback: a straggler undoes the newer half of 64 records,
	// one anti-message each.
	l.out["cancel.rollback_aggr_ns_per_anti"], _ = l.measure(window/2*2000, func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += window / 2 {
			for i := 0; i < window; i++ {
				m.RecordSent(out(i+1), gens[i])
			}
			t0 := time.Now()
			m.OnRollback(gens[window/2])
			d += time.Since(t0)
			m.FossilCollect(vtime.Time(window + 2))
		}
		return d
	})

	// Lazy hit: 16 parked outputs, each regenerated identically.
	lazy := cancel.NewManager(cancel.NewSelector(cancel.Config{Mode: cancel.StaticLazy}), emit, &st, pool)
	l.out["cancel.lazy_filter_hit_ns"], _ = l.measure(16*4000, func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += 16 {
			for i := 0; i < 16; i++ {
				lazy.RecordSent(out(i+1), gens[i])
			}
			lazy.OnRollback(gens[0])
			regen := make([]*event.Event, 16)
			for i := range regen {
				regen[i] = out(i + 1)
			}
			t0 := time.Now()
			for i, r := range regen {
				if lazy.FilterOutput(r, gens[i]) {
					panic("cancel driver: expected a lazy hit")
				}
			}
			d += time.Since(t0)
			for _, r := range regen {
				pool.Put(r)
			}
			lazy.FossilCollect(vtime.Time(window + 2))
		}
		return d
	})

	// Growth from nil: a cold manager's first 12 records (an object of
	// phold-scale executes about that many events in a run).
	cold := make([]*event.Event, 12)
	for i := range cold {
		cold[i] = out(i + 1)
	}
	sel := cancel.NewSelector(cancel.Config{Mode: cancel.StaticAggressive})
	_, l.out["cancel.allocs_per_record"] = l.measure(12*20_000, func(n int) time.Duration {
		t0 := time.Now()
		for done := 0; done < n; done += 12 {
			cm := cancel.NewManager(sel, emit, &st, nil)
			for i, o := range cold {
				cm.RecordSent(o, gens[i])
			}
		}
		return time.Since(t0)
	})
}

// codecDrivers: the sparse delta on a 16 KiB encoding with 1% of the bytes
// dirty, and the LZ coder on a stream of encoded events.
func (l *layerRun) codecDrivers() {
	const size = 16 << 10
	old := make([]byte, size)
	l.rng.Read(old)
	cur := append([]byte(nil), old...)
	for i := 0; i < size/100; i++ {
		cur[l.rng.Intn(size)]++
	}
	var delta []byte
	l.out["codec.delta_append_ns.16k"], _ = l.measure(2_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			delta = codec.AppendDelta(delta[:0], old, cur)
		}
		return time.Since(t0)
	})
	l.out["codec.delta_apply_ns.16k"], _ = l.measure(4_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := codec.ApplyDelta(old, delta); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})

	var stream []byte
	for i := 0; len(stream) < 64<<10; i++ {
		stream = l.newEvent(uint64(i), vtime.Time(i)).Encode(stream)
	}
	var packed []byte
	ns, _ := l.measure(100, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			packed = codec.Compress(packed[:0], stream)
		}
		return time.Since(t0)
	})
	l.out["codec.lz_compress_mb_per_s"] = float64(len(stream)) / ns * 1e9 / (1 << 20)
	ns, _ = l.measure(100, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := codec.Decompress(packed); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})
	l.out["codec.lz_decompress_mb_per_s"] = float64(len(stream)) / ns * 1e9 / (1 << 20)
}

// commDrivers: wire framing of a 256-byte events packet, the in-process
// transport's send (each paired with the receive that keeps the inbox from
// filling), and the endpoint's send path from event to decoded event at the
// receiver, without aggregation and under SAAW.
func (l *layerRun) commDrivers() {
	pkt := comm.Packet{Kind: comm.PktEvents, From: 0, Count: 8, Payload: make([]byte, 256)}
	var frame []byte
	l.out["comm.frame_append_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			var err error
			if frame, err = comm.AppendFrame(frame[:0], 1, pkt); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})
	l.out["comm.frame_decode_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := comm.DecodeFrame(frame[4:]); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})

	net2 := comm.NewInProc(2)
	l.out["comm.inproc_send_ns"], _ = l.measure(1_000_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			net2.Send(1, pkt, len(pkt.Payload))
			<-net2.Recv(1)
		}
		return time.Since(t0)
	})

	// Two endpoints take turns sending, as LPs do, so that wire buffers
	// circulate between their free lists.
	endpointLoop := func(cfg comm.AggConfig) (ns, allocs float64) {
		tr := comm.NewInProc(2)
		var st stats.Counters
		eps := [2]*comm.Endpoint{comm.NewEndpoint(tr, 0, cfg, &st), comm.NewEndpoint(tr, 1, cfg, &st)}
		eps[0].Pool, eps[1].Pool = event.NewPool(), event.NewPool()
		ev := l.newEvent(1, 10)
		drain := func(rx *comm.Endpoint) {
			for {
				select {
				case p := <-rx.Recv():
					evs, err := rx.DecodeEvents(p)
					if err != nil {
						panic(err)
					}
					for _, e := range evs {
						rx.Pool.Put(e)
					}
				default:
					return
				}
			}
		}
		return l.measure(200_000, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tx, rx := eps[i&1], eps[i&1^1]
				tx.Send(ev, i&1^1, false)
				// The LP loop polls the aggregation windows once per event.
				tx.Poll(time.Now())
				drain(rx)
			}
			for i, ep := range eps {
				ep.FlushAll(comm.FlushIdle)
				drain(eps[i^1])
			}
			return time.Since(t0)
		})
	}
	l.out["comm.endpoint_send_ns"], l.out["comm.allocs_per_send"] = endpointLoop(comm.AggConfig{Policy: comm.NoAggregation})
	l.out["comm.endpoint_send_saaw_ns"], _ = endpointLoop(comm.AggConfig{Policy: comm.SAAW})
}

// tcpDrivers: two TCP loopback ranks in this process, one LP each. A
// ping-pong of null messages gives the round-trip percentiles; a one-way
// stream of 256-byte events frames gives frames per second.
func (l *layerRun) tcpDrivers() error {
	var lns []net.Listener
	var addrs []string
	for r := 0; r < 2; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("tcp driver: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	trs := make([]*comm.TCP, 2)
	for r := range trs {
		tr, err := comm.NewTCP(comm.TCPConfig{Rank: r, Addrs: addrs, NumLPs: 2, Listener: lns[r]})
		if err != nil {
			return fmt.Errorf("tcp driver: %w", err)
		}
		trs[r] = tr
	}
	started := make(chan error, 1) // one send, from rank 1's Start
	go func() { started <- trs[1].Start() }()
	if err := trs[0].Start(); err != nil {
		return fmt.Errorf("tcp driver: rank 0 start: %w", err)
	}
	if err := <-started; err != nil {
		return fmt.Errorf("tcp driver: rank 1 start: %w", err)
	}

	trips := 4000 / l.div
	if trips < 1000 {
		trips = 1000 // the p99 needs ten samples beyond it
	}
	frames := 40_000 / l.div
	if frames < 1000 {
		frames = 1000
	}
	// Rank 1: echo every null message, then count the events frames.
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for i := 0; i < trips; i++ {
			p := <-trs[1].Recv(1)
			trs[1].Send(0, comm.Packet{Kind: comm.PktNull, From: 1, Bound: p.Bound}, 32)
		}
		for i := 0; i < frames; i++ {
			<-trs[1].Recv(1)
		}
		trs[1].Send(0, comm.Packet{Kind: comm.PktNull, From: 1}, 32)
	}()

	rtt := make([]float64, trips)
	for i := range rtt {
		t0 := time.Now()
		trs[0].Send(1, comm.Packet{Kind: comm.PktNull, From: 0, Bound: vtime.Time(i)}, 32)
		<-trs[0].Recv(0)
		rtt[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(rtt)
	l.out["comm.tcp_rtt_us.p50"] = rtt[len(rtt)/2]
	l.out["comm.tcp_rtt_us.p99"] = rtt[len(rtt)*99/100]

	pkt := comm.Packet{Kind: comm.PktEvents, From: 0, Count: 8, Payload: make([]byte, 256)}
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		trs[0].Send(1, pkt, len(pkt.Payload))
	}
	<-trs[0].Recv(0) // rank 1 has received them all
	l.out["comm.tcp_frames_per_s"] = float64(frames) / time.Since(t0).Seconds()
	<-echoed

	closed := make(chan error, 1) // one send, from rank 1's Close
	go func() { closed <- trs[1].Close() }()
	if err := trs[0].Close(); err != nil {
		return fmt.Errorf("tcp driver: rank 0 close: %w", err)
	}
	if err := <-closed; err != nil {
		return fmt.Errorf("tcp driver: rank 1 close: %w", err)
	}
	return nil
}

// gvtDrivers: one Mattern token round (initiate, visit every LP, complete at
// the initiator) driven from a single goroutine over the in-process
// transport, at the LP counts of phold-lp and phold-scale.
func (l *layerRun) gvtDrivers() {
	for _, lps := range []int{8, 390} {
		tr := comm.NewInProc(lps)
		var st stats.Counters
		mgrs := make([]*gvt.Manager, lps)
		for i := range mgrs {
			ep := comm.NewEndpoint(tr, i, comm.AggConfig{}, &st)
			mgrs[i] = gvt.NewManager(i, lps, ep, time.Nanosecond, &st)
		}
		ns, _ := l.measure(80_000/lps, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				mgrs[0].MaybeInitiate(vtime.Time(i), false)
				for lp := 1; lp < lps; lp++ {
					p := <-tr.Recv(lp)
					mgrs[lp].OnToken(p.Token, vtime.Time(i))
				}
				p := <-tr.Recv(0)
				if _, found := mgrs[0].OnToken(p.Token, vtime.Time(i)); !found {
					panic("gvt driver: round did not complete")
				}
			}
			return time.Since(t0)
		})
		l.out[fmt.Sprintf("gvt.round_us.%d", lps)] = ns / 1e3
	}
}
