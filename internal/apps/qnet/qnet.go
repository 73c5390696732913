// Package qnet implements a closed queueing network: a fixed population of
// jobs circulating among FCFS single-server service stations connected by a
// routing matrix. Queueing networks are the other classic PDES benchmark
// family (alongside synthetic PHOLD and digital logic), and they exercise
// the cancellation machinery from the opposite corner as gate-level
// simulation: a station's departure time depends on every earlier arrival
// (FCFS waiting), so a straggler arrival changes all subsequent departures —
// rollback re-execution regenerates *different* messages, which is exactly
// the regime where aggressive cancellation beats lazy.
package qnet

import (
	"encoding/binary"

	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Config parameterizes the network.
type Config struct {
	// Stations is the number of service stations.
	Stations int
	// Jobs is the circulating population.
	Jobs int
	// ServiceMean is the mean exponential service demand.
	ServiceMean float64
	// TransitDelay is the (fixed) virtual-time travel delay between
	// stations — the model's lookahead.
	TransitDelay vtime.Time
	// Locality is the probability a departing job re-enters a station on
	// the same LP.
	Locality float64
	// LPs is the number of logical processes.
	LPs int
	// Seed drives routing and service draws.
	Seed uint64
	// StatePadding adds bytes to every station state.
	StatePadding int
}

func (c Config) withDefaults() Config {
	if c.Stations < 1 {
		c.Stations = 16
	}
	if c.Jobs < 1 {
		c.Jobs = c.Stations * 2
	}
	if c.ServiceMean <= 0 {
		c.ServiceMean = 20
	}
	if c.TransitDelay < 1 {
		c.TransitDelay = 5
	}
	if c.LPs < 1 {
		c.LPs = 1
	}
	if c.LPs > c.Stations {
		c.LPs = c.Stations
	}
	if c.Seed == 0 {
		c.Seed = 0x51AE7
	}
	return c
}

// Event kind: a job arrival. Payload: job id (4 bytes).
const kindArrival uint32 = 1

func decodeJob(p []byte) uint32 { return binary.LittleEndian.Uint32(p) }

// stationState is one station's mutable state. FCFS with a single server is
// simulated with the standard busy-until clock: an arrival's departure time
// is max(now, busyUntil) + service; no explicit queue is needed, yet the
// departure depends on every earlier arrival through BusyUntil — the
// order-sensitivity this model exists to provide.
type stationState struct {
	Rng       model.Rand
	BusyUntil vtime.Time
	Arrivals  int64
	Busy      int64 // accumulated service time, for utilization
	WaitSum   int64 // accumulated queueing delay
	Pad       []byte
}

func (s *stationState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable: refill dst, a retired checkpoint of the
// same type, reusing its Pad backing array.
func (s *stationState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*stationState)
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

func (s *stationState) StateBytes() int { return 56 + len(s.Pad) }

// MarshalState implements codec.DeltaState: a deterministic fixed-layout
// encoding so successive checkpoints stay positionally aligned for the
// sparse delta.
func (s *stationState) MarshalState(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	buf = codec.AppendInt64(buf, int64(s.BusyUntil))
	buf = codec.AppendInt64(buf, s.Arrivals)
	buf = codec.AppendInt64(buf, s.Busy)
	buf = codec.AppendInt64(buf, s.WaitSum)
	return codec.AppendBytes(buf, s.Pad)
}

// UnmarshalState implements codec.DeltaState, decoding into s itself: every
// field is overwritten and Pad keeps its backing array, as in CopyInto.
func (s *stationState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = stationState{
		Rng:       model.RandFromState(r.Uint64()),
		BusyUntil: vtime.Time(r.Int64()),
		Arrivals:  r.Int64(),
		Busy:      r.Int64(),
		WaitSum:   r.Int64(),
		Pad:       r.BytesInto(s.Pad),
	}
	return s, r.Err()
}

type station struct {
	name string
	self int
	cfg  Config
	// lpMates / others support the locality draw, as in PHOLD.
	lpMates, others []event.ObjectID
	// buf is the reusable arrival-payload scratch; Context.Send copies the
	// payload before returning.
	buf [4]byte
}

// job encodes a job id into the station's scratch payload buffer.
func (o *station) job(id uint32) []byte {
	binary.LittleEndian.PutUint32(o.buf[:], id)
	return o.buf[:]
}

func (o *station) Name() string { return o.name }

func (o *station) InitialState() model.State {
	s := &stationState{Rng: model.NewRand(o.cfg.Seed ^ (uint64(o.self)+1)*0xD6E8FEB86659FD93)}
	if o.cfg.StatePadding > 0 {
		s.Pad = make([]byte, o.cfg.StatePadding)
	}
	return s
}

// Init seeds the population: station i starts with its share of the jobs,
// arriving in the first few ticks.
func (o *station) Init(ctx model.Context, st model.State) {
	s := st.(*stationState)
	jobs := o.cfg.Jobs / o.cfg.Stations
	if o.self < o.cfg.Jobs%o.cfg.Stations {
		jobs++
	}
	for j := 0; j < jobs; j++ {
		id := uint32(o.self*o.cfg.Jobs + j)
		// Stagger initial arrivals so the servers do not all start in
		// lockstep.
		ctx.Send(ctx.Self(), vtime.Time(1+s.Rng.Intn(int(o.cfg.ServiceMean))), kindArrival, o.job(id))
	}
}

// Execute serves an arriving job FCFS and forwards it to the next station.
func (o *station) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*stationState)
	now := ctx.Now()
	s.Arrivals++

	start := now
	if s.BusyUntil.After(start) {
		start = s.BusyUntil
	}
	s.WaitSum += int64(start - now)
	service := vtime.Time(s.Rng.Exp(o.cfg.ServiceMean))
	depart := start.Add(service)
	s.BusyUntil = depart
	s.Busy += int64(service)

	// Route to the next station; the job leaves at its departure time and
	// arrives a transit delay later.
	pool := o.others
	if len(pool) == 0 || s.Rng.Float64() < o.cfg.Locality {
		pool = o.lpMates
	}
	dest := pool[s.Rng.Intn(len(pool))]
	ctx.Send(dest, (depart-now)+o.cfg.TransitDelay, kindArrival, ev.Payload)
}

// New builds the queueing network with a block partition.
func New(cfg Config) *model.Model {
	cfg = cfg.withDefaults()
	part := make([]int, cfg.Stations)
	for i := range part {
		part[i] = i * cfg.LPs / cfg.Stations
	}
	byLP := make([][]event.ObjectID, cfg.LPs)
	for i, p := range part {
		byLP[p] = append(byLP[p], event.ObjectID(i))
	}
	m := &model.Model{Name: "qnet", Partition: part}
	for i := 0; i < cfg.Stations; i++ {
		o := &station{
			name: model.IndexedName("qnet.station.", i),
			self: i,
			cfg:  cfg,
		}
		o.lpMates = byLP[part[i]]
		for j := 0; j < cfg.Stations; j++ {
			if part[j] != part[i] {
				o.others = append(o.others, event.ObjectID(j))
			}
		}
		m.Objects = append(m.Objects, o)
	}
	return m
}
