// Package smmp implements the SMMP application of Section 7 of the paper: a
// shared-memory multiprocessor model. Each simulated processor owns a local
// cache with access to a common global memory; the model is deliberately
// contrived in that memory requests are not serialized — a memory bank
// serves any number of pending requests concurrently, each after a fixed
// access delay.
//
// The object graph per processor is CPU → Cache → MemoryPort, partitioned so
// a processor's pipeline shares one LP; the global memory is interleaved
// across one bank per LP, so ~ (L-1)/L of cache misses cross LPs. Generation
// is open loop, as the paper describes: each processor emits its test
// vectors on a self-scheduled exponential tick, each token carrying its
// creation time; replies are consumed for latency accounting only.
//
// Cancellation behaviour (deliberately mirroring the paper's observation
// that every SMMP object strictly favors lazy cancellation): banks and ports
// are stateless per request and caches consume their random stream only on
// CPU-originated requests, which arrive in order, so rollbacks triggered by
// straggler memory fills regenerate byte-identical messages — lazy hits.
package smmp

import (
	"encoding/binary"
	"fmt"

	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Event kinds.
const (
	// KindRequest is a CPU memory request entering its cache.
	KindRequest uint32 = iota
	// KindMiss is a cache miss forwarded to the memory port.
	KindMiss
	// KindMemRequest is a port request to a global memory bank.
	KindMemRequest
	// KindFill is a bank's reply filling the cache.
	KindFill
	// KindReply is the cache's reply to its CPU.
	KindReply
	// KindGenerate is a CPU's self-scheduled request-generation tick: the
	// processor emits test vectors open loop, each carrying its creation
	// time, as the paper describes.
	KindGenerate
)

// Config parameterizes the SMMP model. The zero value, filled with defaults,
// is the paper's configuration: 16 processors on 4 LPs, 10ns cache, 100ns
// memory, 90% hit ratio.
type Config struct {
	Processors int
	LPs        int
	// CacheDelay and MemDelay are the cache and main-memory access times in
	// virtual time units (nanoseconds in the paper's terms).
	CacheDelay, MemDelay vtime.Time
	// BusDelay is the port/interconnect traversal time.
	BusDelay vtime.Time
	// HitRatio is the cache hit probability.
	HitRatio float64
	// ThinkMean is the mean exponential think time between a reply and the
	// next request.
	ThinkMean float64
	// Requests is the number of test vectors each processor generates;
	// 0 means unbounded (run to the simulation end time).
	Requests int
	// Seed drives the deterministic random streams.
	Seed uint64
	// StatePadding adds bytes to every object state so checkpointing has a
	// realistic cost.
	StatePadding int
}

func (c Config) withDefaults() Config {
	if c.Processors < 1 {
		c.Processors = 16
	}
	if c.LPs < 1 {
		c.LPs = 4
	}
	if c.LPs > c.Processors {
		c.LPs = c.Processors
	}
	if c.CacheDelay <= 0 {
		c.CacheDelay = 10
	}
	if c.MemDelay <= 0 {
		c.MemDelay = 100
	}
	if c.BusDelay <= 0 {
		c.BusDelay = 5
	}
	if c.HitRatio == 0 {
		c.HitRatio = 0.9
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 25
	}
	if c.Seed == 0 {
		c.Seed = 0x5A4D4D50 // "SMMP"
	}
	return c
}

// request payload layout: addr(4) seq(4) cache(4) created(8).
func putReq(p []byte, addr, seq uint32, cache event.ObjectID, created vtime.Time) {
	binary.LittleEndian.PutUint32(p[0:], addr)
	binary.LittleEndian.PutUint32(p[4:], seq)
	binary.LittleEndian.PutUint32(p[8:], uint32(cache))
	binary.LittleEndian.PutUint64(p[12:], uint64(created))
}

func encodeReq(addr, seq uint32, cache event.ObjectID, created vtime.Time) []byte {
	p := make([]byte, reqBytes)
	putReq(p, addr, seq, cache, created)
	return p
}

const reqBytes = 20

func decodeReq(p []byte) (addr, seq uint32, cache event.ObjectID) {
	return binary.LittleEndian.Uint32(p[0:]),
		binary.LittleEndian.Uint32(p[4:]),
		event.ObjectID(binary.LittleEndian.Uint32(p[8:]))
}

// pad returns a padding slice for object state, or nil.
func pad(n int) []byte {
	if n <= 0 {
		return nil
	}
	return make([]byte, n)
}

// cpuState is a processor's state.
type cpuState struct {
	Rng        model.Rand
	Issued     int64
	Done       int64
	LatencySum int64 // accumulated request round-trip virtual time
	Pad        []byte
}

func (s *cpuState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable: refill dst, a retired checkpoint of the
// same type, reusing its Pad backing array.
func (s *cpuState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*cpuState)
	if !ok {
		return s.Clone()
	}
	pad := d.Pad
	*d = *s
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *cpuState) StateBytes() int { return 64 + len(s.Pad) }

// appendHead appends the fixed-width front of the encoding: everything but Pad.
func (s *cpuState) appendHead(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	buf = codec.AppendInt64(buf, s.Issued)
	buf = codec.AppendInt64(buf, s.Done)
	return codec.AppendInt64(buf, s.LatencySum)
}

// MarshalState implements codec.DeltaState (fixed layout, delta-friendly).
func (s *cpuState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(s.appendHead(buf), s.Pad)
}

// MarshalDirty implements codec.DirtyState by construction, with no marks to
// keep: Execute writes the counters and never Pad, so what may have changed
// since the kernel last saw the encoding is its head, and a checkpoint of a
// padded processor costs 32 bytes whatever StatePadding is.
func (s *cpuState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(s.appendHead(data), len(data), at)
}

// UnmarshalState implements codec.DeltaState, decoding into s itself: every
// field is overwritten and Pad keeps its backing array, as in CopyInto.
func (s *cpuState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = cpuState{
		Rng:        model.RandFromState(r.Uint64()),
		Issued:     r.Int64(),
		Done:       r.Int64(),
		LatencySum: r.Int64(),
		Pad:        r.BytesInto(s.Pad),
	}
	return s, r.Err()
}

type cpu struct {
	name  string
	cache event.ObjectID
	cfg   Config
	seed  uint64
	// buf is the request-payload scratch buffer; the kernel copies payloads
	// during Send, so it is reusable immediately after each call.
	buf [reqBytes]byte
}

// req encodes a request into the object's scratch buffer.
func (o *cpu) req(addr, seq uint32, created vtime.Time) []byte {
	putReq(o.buf[:], addr, seq, o.cache, created)
	return o.buf[:]
}

func (o *cpu) Name() string { return o.name }

func (o *cpu) InitialState() model.State {
	return &cpuState{Rng: model.NewRand(o.seed), Pad: pad(o.cfg.StatePadding)}
}

func (o *cpu) Init(ctx model.Context, st model.State) {
	s := st.(*cpuState)
	ctx.Send(ctx.Self(), vtime.Time(s.Rng.Exp(o.cfg.ThinkMean)), KindGenerate, nil)
}

func (o *cpu) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*cpuState)
	switch ev.Kind {
	case KindGenerate:
		// Open-loop generation: emit a test vector now and schedule the
		// next generation tick; requests do not wait for replies.
		addr := uint32(s.Rng.Uint64())
		seq := uint32(s.Issued)
		s.Issued++
		ctx.Send(o.cache, 1, KindRequest, o.req(addr, seq, ctx.Now().Add(1)))
		if o.cfg.Requests == 0 || s.Issued < int64(o.cfg.Requests) {
			ctx.Send(ctx.Self(), vtime.Time(s.Rng.Exp(o.cfg.ThinkMean)), KindGenerate, nil)
		}
	case KindReply:
		s.Done++
		// Round-trip latency from the request's creation time, carried in
		// the token (the paper's "creation time" field).
		_, _, _ = decodeReq(ev.Payload)
		s.LatencySum += int64(ctx.Now() - o.creationTime(ev))
	default:
		panic(fmt.Sprintf("smmp: cpu %s: unexpected event kind %d", o.name, ev.Kind))
	}
}

// creationTime recovers the request's creation time from its payload.
func (o *cpu) creationTime(ev *event.Event) vtime.Time {
	return vtime.Time(binary.LittleEndian.Uint64(ev.Payload[12:]))
}

// cacheState is a cache's state.
type cacheState struct {
	Rng    model.Rand
	Hits   int64
	Misses int64
	Fills  int64
	Pad    []byte
}

func (s *cacheState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable (see cpuState.CopyInto).
func (s *cacheState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*cacheState)
	if !ok {
		return s.Clone()
	}
	pad := d.Pad
	*d = *s
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *cacheState) StateBytes() int { return 48 + len(s.Pad) }

func (s *cacheState) appendHead(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	buf = codec.AppendInt64(buf, s.Hits)
	buf = codec.AppendInt64(buf, s.Misses)
	return codec.AppendInt64(buf, s.Fills)
}

// MarshalState implements codec.DeltaState.
func (s *cacheState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(s.appendHead(buf), s.Pad)
}

// MarshalDirty implements codec.DirtyState (see cpuState.MarshalDirty).
func (s *cacheState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(s.appendHead(data), len(data), at)
}

// UnmarshalState implements codec.DeltaState (see cpuState.UnmarshalState).
func (s *cacheState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = cacheState{
		Rng:    model.RandFromState(r.Uint64()),
		Hits:   r.Int64(),
		Misses: r.Int64(),
		Fills:  r.Int64(),
		Pad:    r.BytesInto(s.Pad),
	}
	return s, r.Err()
}

type cache struct {
	name string
	cpu  event.ObjectID
	port event.ObjectID
	cfg  Config
	seed uint64
}

func (o *cache) Name() string { return o.name }

func (o *cache) InitialState() model.State {
	return &cacheState{Rng: model.NewRand(o.seed), Pad: pad(o.cfg.StatePadding)}
}

func (o *cache) Init(ctx model.Context, st model.State) {}

func (o *cache) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*cacheState)
	switch ev.Kind {
	case KindRequest:
		if s.Rng.Float64() < o.cfg.HitRatio {
			s.Hits++
			ctx.Send(o.cpu, o.cfg.CacheDelay, KindReply, ev.Payload)
		} else {
			s.Misses++
			ctx.Send(o.port, o.cfg.CacheDelay, KindMiss, ev.Payload)
		}
	case KindFill:
		s.Fills++
		ctx.Send(o.cpu, o.cfg.CacheDelay, KindReply, ev.Payload)
	default:
		panic(fmt.Sprintf("smmp: cache %s: unexpected event kind %d", o.name, ev.Kind))
	}
}

// portState is a memory port's state.
type portState struct {
	Routed int64
	Pad    []byte
}

func (s *portState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable (see cpuState.CopyInto).
func (s *portState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*portState)
	if !ok {
		return s.Clone()
	}
	pad := d.Pad
	*d = *s
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *portState) StateBytes() int { return 16 + len(s.Pad) }

// MarshalState implements codec.DeltaState.
func (s *portState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(codec.AppendInt64(buf, s.Routed), s.Pad)
}

// MarshalDirty implements codec.DirtyState (see cpuState.MarshalDirty).
func (s *portState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(codec.AppendInt64(data, s.Routed), len(data), at)
}

// UnmarshalState implements codec.DeltaState (see cpuState.UnmarshalState).
func (s *portState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = portState{Routed: r.Int64(), Pad: r.BytesInto(s.Pad)}
	return s, r.Err()
}

type port struct {
	name  string
	banks []event.ObjectID
	cfg   Config
}

func (o *port) Name() string { return o.name }

func (o *port) InitialState() model.State {
	return &portState{Pad: pad(o.cfg.StatePadding)}
}

func (o *port) Init(ctx model.Context, st model.State) {}

func (o *port) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*portState)
	s.Routed++
	addr, _, _ := decodeReq(ev.Payload)
	bank := o.banks[int(addr)%len(o.banks)]
	ctx.Send(bank, o.cfg.BusDelay, KindMemRequest, ev.Payload)
}

// bankState is a memory bank's state.
type bankState struct {
	Served int64
	Pad    []byte
}

func (s *bankState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable (see cpuState.CopyInto).
func (s *bankState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*bankState)
	if !ok {
		return s.Clone()
	}
	pad := d.Pad
	*d = *s
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *bankState) StateBytes() int { return 16 + len(s.Pad) }

// MarshalState implements codec.DeltaState.
func (s *bankState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(codec.AppendInt64(buf, s.Served), s.Pad)
}

// MarshalDirty implements codec.DirtyState (see cpuState.MarshalDirty).
func (s *bankState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(codec.AppendInt64(data, s.Served), len(data), at)
}

// UnmarshalState implements codec.DeltaState (see cpuState.UnmarshalState).
func (s *bankState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = bankState{Served: r.Int64(), Pad: r.BytesInto(s.Pad)}
	return s, r.Err()
}

type bank struct {
	name string
	cfg  Config
}

func (o *bank) Name() string { return o.name }

func (o *bank) InitialState() model.State {
	return &bankState{Pad: pad(o.cfg.StatePadding)}
}

func (o *bank) Init(ctx model.Context, st model.State) {}

func (o *bank) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*bankState)
	s.Served++
	// Requests are not serialized: every request is served MemDelay after
	// arrival regardless of concurrent requests (the paper's simplification).
	_, _, cacheID := decodeReq(ev.Payload)
	ctx.Send(cacheID, o.cfg.MemDelay, KindFill, ev.Payload)
}

// New builds the SMMP model: per processor a CPU→Cache→Port pipeline on one
// LP, plus one interleaved global memory bank per LP.
func New(cfg Config) *model.Model {
	cfg = cfg.withDefaults()
	m := &model.Model{Name: "smmp"}

	// ID layout: [cpu_i, cache_i, port_i] for each processor, then banks.
	cpuID := func(i int) event.ObjectID { return event.ObjectID(3 * i) }
	cacheID := func(i int) event.ObjectID { return event.ObjectID(3*i + 1) }
	portID := func(i int) event.ObjectID { return event.ObjectID(3*i + 2) }
	bankID := func(b int) event.ObjectID { return event.ObjectID(3*cfg.Processors + b) }
	banks := make([]event.ObjectID, cfg.LPs)
	for b := range banks {
		banks[b] = bankID(b)
	}

	for i := 0; i < cfg.Processors; i++ {
		lp := i * cfg.LPs / cfg.Processors
		m.Objects = append(m.Objects,
			&cpu{
				name:  model.IndexedName("smmp.cpu.", i),
				cache: cacheID(i),
				cfg:   cfg,
				seed:  cfg.Seed ^ (uint64(i)+1)*0xA5A5A5A5A5A5A5A5,
			},
			&cache{
				name: model.IndexedName("smmp.cache.", i),
				cpu:  cpuID(i),
				port: portID(i),
				cfg:  cfg,
				seed: cfg.Seed ^ (uint64(i)+101)*0xC3C3C3C3C3C3C3C3,
			},
			&port{
				name:  model.IndexedName("smmp.port.", i),
				banks: banks,
				cfg:   cfg,
			},
		)
		m.Partition = append(m.Partition, lp, lp, lp)
	}
	for b := 0; b < cfg.LPs; b++ {
		m.Objects = append(m.Objects, &bank{
			name: model.IndexedName("smmp.bank.", b),
			cfg:  cfg,
		})
		m.Partition = append(m.Partition, b)
	}
	return m
}

// TotalRequests returns the number of test vectors the configuration will
// generate (Processors × Requests), for harness reporting.
func TotalRequests(cfg Config) int {
	cfg = cfg.withDefaults()
	return cfg.Processors * cfg.Requests
}
