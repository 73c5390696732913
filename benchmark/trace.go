package main

import (
	"sort"
	"sync"
	"time"

	"gowarp"
	"gowarp/internal/comm"
)

// Tracing from outside the kernel: the traced run wraps every model object in
// a timing decorator, wraps the transport where the engine accepts one (the
// goroutine-per-LP engine; the worker pool owns its own), and turns the
// kernel's structured tracer on. Spans live in memory until the run ends.
// Every boundary keeps an accumulator (count, total time) and records one
// individual span in sampleEvery; spans inside the kernel are a later change
// (ROADMAP item 5).
const sampleEvery = 1024

// span is one timed interval at a layer boundary. Times are nanoseconds from
// the start of the timed phase; Parent is the ID of the enclosing span (-1
// for the root); Run names the run every span of it shares.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// accumulator is the per-boundary tally the spans are sampled from.
type accumulator struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// traceData is what a traced child hands back.
type traceData struct {
	Spans []span `json:"spans"`
	// Execute sums the per-object accumulators of the model decorator: whole
	// Execute calls, Context.Send calls included. CtxSend sums the sends made
	// inside them — the kernel's send path, a child span of apps.execute — so
	// the model's own time is Execute minus CtxSend.
	Execute accumulator `json:"apps.execute"`
	CtxSend accumulator `json:"core.context_send"`
	// Send holds one accumulator per sending LP (empty on the pool engine).
	Send      []accumulator `json:"comm.send,omitempty"`
	SendP50NS float64       `json:"comm.send_ns.p50"`
	SendP99NS float64       `json:"comm.send_ns.p99"`
	// KernelEvents counts the kernel tracer's records by kind; Dropped is how
	// many its rings overwrote.
	KernelEvents map[string]int64 `json:"kernel_events"`
	Dropped      int64            `json:"kernel_events_dropped"`
}

// sampledSpan is one sampled apps.execute or comm.send interval, kept with
// its rank until finish knows the ID of that rank's gowarp.Run span.
type sampledSpan struct {
	name       string
	rank       int
	start, end int64
}

type traceCollector struct {
	w     *workload
	start time.Time

	mu      sync.Mutex
	sampled []sampledSpan

	objects    [][]*tracedObject // per rank
	transports []*tracedTransport
	tracers    []*gowarp.Tracer
}

func newTraceCollector(w *workload) *traceCollector {
	return &traceCollector{w: w, start: time.Now()}
}

// wrap decorates one rank's model and configuration in place.
func (tc *traceCollector) wrap(rank int, m *gowarp.Model, b *gowarp.ConfigBuilder) {
	objs := make([]*tracedObject, len(m.Objects))
	for i, o := range m.Objects {
		objs[i] = &tracedObject{Object: o, tc: tc, rank: rank, salt: int64(i)}
		objs[i].ctx.o = objs[i]
		m.Objects[i] = objs[i]
	}
	tc.objects = append(tc.objects, objs)

	lps := m.NumLPs()
	if tc.w.Engine == "lp" {
		inner := b.Build().Transport
		if inner == nil {
			inner = gowarp.NewInProcTransport(lps)
		}
		tt := &tracedTransport{Transport: inner, tc: tc, rank: rank, lps: make([]sendTally, lps)}
		tc.transports = append(tc.transports, tt)
		b.WithTransport(tt)
	}

	// About 256k retained kernel records in all, whatever the LP count.
	capacity := (1 << 18) / lps
	if capacity < 512 {
		capacity = 512
	}
	tr := gowarp.NewTracer(capacity)
	tc.tracers = append(tc.tracers, tr)
	b.WithTracer(tr)
}

func (tc *traceCollector) sample(name string, rank int, t0 time.Time, d time.Duration) {
	start := int64(t0.Sub(tc.start))
	tc.mu.Lock()
	tc.sampled = append(tc.sampled, sampledSpan{name: name, rank: rank, start: start, end: start + int64(d)})
	tc.mu.Unlock()
}

// tracedObject times Execute and, through tracedContext, the Context.Send
// calls made inside it. An object executes on one goroutine at a time (its
// LP's, or the worker that owns the LP), so its tallies need no lock.
type tracedObject struct {
	gowarp.Object
	tc     *traceCollector
	rank   int
	salt   int64
	count  int64
	ns     int64
	sends  int64
	sendNS int64
	ctx    tracedContext
}

// tracedContext is the object's reusable wrapper around the kernel's Context.
type tracedContext struct {
	gowarp.Context
	o *tracedObject
}

func (c *tracedContext) Send(to gowarp.ObjectID, delay gowarp.VTime, kind uint32, payload []byte) {
	t0 := time.Now()
	c.Context.Send(to, delay, kind, payload)
	c.o.sends++
	c.o.sendNS += int64(time.Since(t0))
}

func (o *tracedObject) Execute(ctx gowarp.Context, st gowarp.State, ev *gowarp.Event) {
	o.ctx.Context = ctx
	t0 := time.Now()
	o.Object.Execute(&o.ctx, st, ev)
	d := time.Since(t0)
	o.count++
	o.ns += int64(d)
	// Salted by object index so that objects executing only a few events
	// (phold-scale) are sampled at the same 1-in-1024 rate.
	if (o.count+o.salt)%sampleEvery == 0 {
		o.tc.sample("apps.execute", o.rank, t0, d)
	}
}

// sendTally is one sending LP's tally. Sends with one From value normally
// come from one goroutine, but the end-of-run report and the stop broadcast
// of a failing LP do not, hence the lock.
type sendTally struct {
	mu    sync.Mutex
	acc   accumulator
	durNS []int32
}

type tracedTransport struct {
	gowarp.Transport
	tc   *traceCollector
	rank int
	lps  []sendTally
}

func (t *tracedTransport) Send(dst int, p comm.Packet, payloadBytes int) {
	t0 := time.Now()
	t.Transport.Send(dst, p, payloadBytes)
	d := time.Since(t0)
	if p.From < 0 || p.From >= len(t.lps) {
		return
	}
	s := &t.lps[p.From]
	s.mu.Lock()
	s.acc.Count++
	s.acc.TotalNS += int64(d)
	s.acc.Bytes += int64(payloadBytes)
	s.durNS = append(s.durNS, int32(min(int64(d), 1<<31-1)))
	n := s.acc.Count
	s.mu.Unlock()
	if n%sampleEvery == 0 {
		t.tc.sample("comm.send", t.rank, t0, d)
	}
}

// finish assembles the span tree: a root span for the timed phase, the model
// build and one gowarp.Run span per rank under it, and under each Run span
// the sampled decorator spans plus the kernel tracer's GVT cycles and
// rollback coast-forwards (which carry their own durations).
func (tc *traceCollector) finish(run string, build, wall time.Duration) *traceData {
	td := &traceData{KernelEvents: map[string]int64{}}
	add := func(name string, start, end int64, parent int) int {
		id := len(td.Spans)
		td.Spans = append(td.Spans, span{ID: id, Name: name, StartNS: start, EndNS: end, Parent: parent, Run: run})
		return id
	}
	root := add("benchmark.run", 0, int64(wall), -1)
	add("apps.model_build", 0, int64(build), root)
	runSpan := make([]int, len(tc.objects))
	for r := range runSpan {
		runSpan[r] = add("gowarp.Run", int64(build), int64(wall), root)
	}
	for _, s := range tc.sampled {
		add(s.name, s.start, s.end, runSpan[s.rank])
	}

	for r, tr := range tc.tracers {
		evs := tr.Events()
		td.Dropped += tr.Dropped()
		// Keep at most ~2048 spans of each kind per rank.
		total := map[string]int{}
		for _, e := range evs {
			total[e.Kind.String()]++
		}
		seen := map[string]int{}
		for _, e := range evs {
			kind := e.Kind.String()
			td.KernelEvents[kind]++
			name := ""
			switch kind {
			case "gvt":
				name = "gvt.cycle"
			case "rollback":
				name = "core.rollback_coast"
			}
			if name == "" || e.Dur <= 0 {
				continue
			}
			seen[kind]++
			if seen[kind]%(total[kind]/2048+1) != 0 {
				continue
			}
			end := int64(build) + int64(e.Wall)
			add(name, end-int64(e.Dur), end, runSpan[r])
		}
	}

	for _, objs := range tc.objects {
		for _, o := range objs {
			td.Execute.Count += o.count
			td.Execute.TotalNS += o.ns
			td.CtxSend.Count += o.sends
			td.CtxSend.TotalNS += o.sendNS
		}
	}
	var durs []int32
	for _, tt := range tc.transports {
		for i := range tt.lps {
			s := &tt.lps[i]
			if len(td.Send) <= i {
				td.Send = append(td.Send, accumulator{})
			}
			td.Send[i].Count += s.acc.Count
			td.Send[i].TotalNS += s.acc.TotalNS
			td.Send[i].Bytes += s.acc.Bytes
			durs = append(durs, s.durNS...)
		}
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		td.SendP50NS = float64(durs[len(durs)/2])
		td.SendP99NS = float64(durs[len(durs)*99/100])
	}
	return td
}
