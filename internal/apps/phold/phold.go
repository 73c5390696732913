// Package phold implements the classic PHOLD synthetic workload: a fixed
// population of tokens bouncing among simulation objects with exponentially
// distributed virtual-time delays. PHOLD is not in the paper's evaluation;
// it is the standard stress and calibration workload for Time Warp kernels
// and is used here for correctness tests, property tests and the design
// ablation benchmarks.
package phold

import (
	"encoding/binary"

	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Config parameterizes the PHOLD model.
type Config struct {
	// Objects is the number of simulation objects.
	Objects int
	// TokensPerObject is the initial token population per object.
	TokensPerObject int
	// MeanDelay is the mean of the exponential virtual-time hop delay.
	MeanDelay float64
	// MinDelay is a hard lower bound added to every hop delay — the
	// model's lookahead guarantee, which conservative synchronization
	// exploits. Default 1.
	MinDelay int64
	// Locality is the probability that a token stays on the sender's LP
	// (0 = always remote when possible, 1 = always local), controlling the
	// inter-LP communication intensity.
	Locality float64
	// LPs is the number of logical processes.
	LPs int
	// Seed drives every object's deterministic random stream.
	Seed uint64
	// StatePadding adds bytes of saved-but-unread state so checkpointing
	// has a real cost.
	StatePadding int
	// Sparse selects arithmetic destination choice over the block partition
	// instead of per-object neighbor lists. The dense default precomputes an
	// O(Objects) list per object — O(Objects^2) overall, fine at benchmark
	// scale, prohibitive at 10^5..10^6 objects. Sparse objects hold O(1)
	// state each and share one Config, so a million-object model allocates
	// megabytes, not terabytes. Sparse draws a different (but equally
	// deterministic) destination sequence than dense; the dense path is
	// byte-for-byte unchanged.
	Sparse bool
	// HotSpot is the probability that a token's next hop targets object 0
	// regardless of locality (0 = uniform PHOLD) — the skewed workload whose
	// load concentrates on one LP, built to exercise load balancing and the
	// worker pool's LP->worker remapping. Needs Sparse.
	HotSpot float64
}

func (c Config) withDefaults() Config {
	if c.Objects < 1 {
		c.Objects = 16
	}
	if c.TokensPerObject < 1 {
		c.TokensPerObject = 1
	}
	if c.MeanDelay <= 0 {
		c.MeanDelay = 10
	}
	if c.MinDelay < 1 {
		c.MinDelay = 1
	}
	if c.LPs < 1 {
		c.LPs = 1
	}
	if c.LPs > c.Objects {
		c.LPs = c.Objects
	}
	if c.Seed == 0 {
		c.Seed = 0xD1CE
	}
	return c
}

// state is one PHOLD object's state.
type state struct {
	Rng      model.Rand
	Received int64
	Hops     int64 // accumulated hop counts of received tokens
	Pad      []byte
}

// Clone implements model.State with a deep copy.
func (s *state) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable: refill dst, a retired checkpoint of the
// same type, reusing its Pad backing array.
func (s *state) CopyInto(dst model.State) model.State {
	d, ok := dst.(*state)
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

// StateBytes reports the approximate saved size, for statistics.
func (s *state) StateBytes() int { return 32 + len(s.Pad) }

// MarshalState implements codec.DeltaState: a deterministic fixed-layout
// encoding so successive checkpoints stay positionally aligned for the
// sparse delta.
func (s *state) MarshalState(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	buf = codec.AppendInt64(buf, s.Received)
	buf = codec.AppendInt64(buf, s.Hops)
	return codec.AppendBytes(buf, s.Pad)
}

// UnmarshalState implements codec.DeltaState, decoding into s itself: every
// field is overwritten and Pad keeps its backing array, as in CopyInto.
func (s *state) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = state{
		Rng:      model.RandFromState(r.Uint64()),
		Received: r.Int64(),
		Hops:     r.Int64(),
		Pad:      r.BytesInto(s.Pad),
	}
	return s, r.Err()
}

type object struct {
	name string
	self int
	cfg  Config
	// lpMates lists the object IDs sharing this object's LP (for the
	// locality draw); others holds the rest.
	lpMates, others []event.ObjectID
	// buf is the reusable payload scratch: Context.Send copies the payload
	// before returning, so one buffer per object (objects execute on a
	// single goroutine) replaces a per-send allocation.
	buf [8]byte
}

// Name implements model.Object.
func (o *object) Name() string { return o.name }

// InitialState implements model.Object.
func (o *object) InitialState() model.State {
	s := &state{Rng: model.NewRand(o.cfg.Seed ^ (uint64(o.self)+1)*0x9E3779B97F4A7C15)}
	if o.cfg.StatePadding > 0 {
		s.Pad = make([]byte, o.cfg.StatePadding)
	}
	return s
}

// Init launches the object's initial token population.
func (o *object) Init(ctx model.Context, st model.State) {
	s := st.(*state)
	for i := 0; i < o.cfg.TokensPerObject; i++ {
		o.launch(ctx, s, 0)
	}
}

// Execute receives a token and forwards it after an exponential delay.
func (o *object) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*state)
	s.Received++
	hops := binary.LittleEndian.Uint64(ev.Payload)
	s.Hops += int64(hops)
	if len(s.Pad) > 0 {
		// Touch the padded state so it is live data, not dead weight.
		s.Pad[int(s.Received)%len(s.Pad)]++
	}
	o.launch(ctx, s, hops+1)
}

func (o *object) launch(ctx model.Context, s *state, hops uint64) {
	var dest event.ObjectID
	pool := o.others
	if len(pool) == 0 || s.Rng.Float64() < o.cfg.Locality {
		pool = o.lpMates
	}
	dest = pool[s.Rng.Intn(len(pool))]
	delay := vtime.Time(o.cfg.MinDelay - 1 + s.Rng.Exp(o.cfg.MeanDelay))
	binary.LittleEndian.PutUint64(o.buf[:], hops)
	ctx.Send(dest, delay, 0, o.buf[:])
}

// sparseObject is the O(1)-memory PHOLD object: no neighbor lists, a shared
// Config, and arithmetic destination choice over the block partition.
type sparseObject struct {
	self int
	cfg  *Config
	// lpLo/lpHi bound this object's LP block [lpLo, lpHi) in object-ID space.
	lpLo, lpHi int32
	buf        [8]byte
}

// Name implements model.Object. Computed on demand: a million stored name
// strings would dwarf the objects themselves.
func (o *sparseObject) Name() string { return model.IndexedName("phold.", int(o.self)) }

// InitialState implements model.Object.
func (o *sparseObject) InitialState() model.State {
	s := &state{Rng: model.NewRand(o.cfg.Seed ^ (uint64(o.self)+1)*0x9E3779B97F4A7C15)}
	if o.cfg.StatePadding > 0 {
		s.Pad = make([]byte, o.cfg.StatePadding)
	}
	return s
}

// Init launches the object's initial token population.
func (o *sparseObject) Init(ctx model.Context, st model.State) {
	s := st.(*state)
	for i := 0; i < o.cfg.TokensPerObject; i++ {
		o.launch(ctx, s, 0)
	}
}

// Execute receives a token and forwards it after an exponential delay.
func (o *sparseObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*state)
	s.Received++
	hops := binary.LittleEndian.Uint64(ev.Payload)
	s.Hops += int64(hops)
	if len(s.Pad) > 0 {
		s.Pad[int(s.Received)%len(s.Pad)]++
	}
	o.launch(ctx, s, hops+1)
}

func (o *sparseObject) launch(ctx model.Context, s *state, hops uint64) {
	cfg := o.cfg
	var dest event.ObjectID
	mates := int(o.lpHi - o.lpLo)
	switch {
	case cfg.HotSpot > 0 && s.Rng.Float64() < cfg.HotSpot:
		dest = 0
	case mates == cfg.Objects || s.Rng.Float64() < cfg.Locality:
		// Stay local: a uniform draw inside this object's LP block.
		dest = event.ObjectID(int(o.lpLo) + s.Rng.Intn(mates))
	default:
		// Go remote: a uniform draw over the IDs outside the block, skipping
		// over it arithmetically instead of consulting a list.
		r := s.Rng.Intn(cfg.Objects - mates)
		if r >= int(o.lpLo) {
			r += mates
		}
		dest = event.ObjectID(r)
	}
	delay := vtime.Time(cfg.MinDelay - 1 + s.Rng.Exp(cfg.MeanDelay))
	binary.LittleEndian.PutUint64(o.buf[:], hops)
	ctx.Send(dest, delay, 0, o.buf[:])
}

// newSparse builds the sparse variant: the same block partition, objects that
// compute their neighborhoods arithmetically.
func newSparse(cfg Config) *model.Model {
	part := make([]int, cfg.Objects)
	for i := range part {
		part[i] = i * cfg.LPs / cfg.Objects
	}
	// LP p hosts the ID block [ceil(p*N/LPs), ceil((p+1)*N/LPs)).
	blockLo := func(p int) int { return (p*cfg.Objects + cfg.LPs - 1) / cfg.LPs }
	shared := &cfg
	m := &model.Model{Name: "phold", Partition: part, Objects: make([]model.Object, cfg.Objects)}
	for i := 0; i < cfg.Objects; i++ {
		m.Objects[i] = &sparseObject{
			self: i,
			cfg:  shared,
			lpLo: int32(blockLo(part[i])),
			lpHi: int32(blockLo(part[i] + 1)),
		}
	}
	return m
}

// New builds a PHOLD model with a block partition of objects onto LPs.
func New(cfg Config) *model.Model {
	cfg = cfg.withDefaults()
	if cfg.Sparse {
		return newSparse(cfg)
	}
	part := make([]int, cfg.Objects)
	for i := range part {
		part[i] = i * cfg.LPs / cfg.Objects
	}
	byLP := make([][]event.ObjectID, cfg.LPs)
	for i, p := range part {
		byLP[p] = append(byLP[p], event.ObjectID(i))
	}
	m := &model.Model{Name: "phold", Partition: part}
	for i := 0; i < cfg.Objects; i++ {
		o := &object{
			name: model.IndexedName("phold.", i),
			self: i,
			cfg:  cfg,
		}
		o.lpMates = byLP[part[i]]
		for j := 0; j < cfg.Objects; j++ {
			if part[j] != part[i] {
				o.others = append(o.others, event.ObjectID(j))
			}
		}
		m.Objects = append(m.Objects, o)
	}
	return m
}
