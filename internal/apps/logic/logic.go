// Package logic implements a gate-level digital logic simulation — the
// application domain the paper's group actually worked in (their
// observations on cancellation strategies come from "digital systems models
// written in the hardware description language VHDL"). Circuits are netlists
// of combinational gates and D flip-flops with per-gate propagation delays,
// driven by clocked stimulus generators; signal changes are events.
//
// Gate evaluation is event-driven with output suppression: a gate emits a
// new value only when its output actually changes, so rollback re-execution
// regenerates identical messages whenever the straggler does not alter the
// logic — the behaviour that made lazy cancellation attractive in the
// paper's VHDL studies.
package logic

import (
	"fmt"

	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// GateKind enumerates the supported primitives.
type GateKind int

const (
	// AND, OR, XOR, NAND and NOT are combinational gates.
	AND GateKind = iota
	OR
	XOR
	NAND
	NOT
	// DFF is a positive-edge D flip-flop (clocked by a Stimulus tick wired
	// to its clock pin).
	DFF
	// Stimulus drives a pseudo-random bit stream on its output.
	Stimulus
	// Clock toggles its output every Period (for DFF clock pins).
	Clock
	// Probe observes a signal and accumulates a fingerprint of the
	// waveform it sees (for validation).
	Probe
)

// String names the gate kind.
func (k GateKind) String() string {
	switch k {
	case AND:
		return "and"
	case OR:
		return "or"
	case XOR:
		return "xor"
	case NAND:
		return "nand"
	case NOT:
		return "not"
	case DFF:
		return "dff"
	case Stimulus:
		return "stim"
	case Clock:
		return "clk"
	case Probe:
		return "probe"
	default:
		return "?"
	}
}

// Pin identifies an input pin of a gate.
type Pin struct {
	Gate int // gate index in the netlist
	Pin  int // input pin index
}

// Gate is one netlist element.
type Gate struct {
	Kind GateKind
	// Delay is the propagation delay in virtual time units.
	Delay vtime.Time
	// Fanout lists the input pins this gate's output drives.
	Fanout []Pin
	// Period is the Stimulus tick period (Stimulus only).
	Period vtime.Time
	// Inputs is the number of input pins (derived for fixed-arity kinds).
	Inputs int
}

// Netlist is a complete circuit.
type Netlist struct {
	Gates []Gate
	// Name identifies the circuit in reports.
	Name string
}

// Config parameterizes the simulation model built from a netlist.
type Config struct {
	// LPs is the number of logical processes; gates are block-partitioned
	// in index order (builders lay out pipelines contiguously).
	LPs int
	// Seed drives stimulus bit streams.
	Seed uint64
	// Ticks bounds each stimulus to that many output transitions
	// (0 = unbounded).
	Ticks int
	// StatePadding adds bytes to every gate state.
	StatePadding int
}

// event kind for signal changes; the payload is [pin, value].
const kindSignal uint32 = 1

func decodeSignal(p []byte) (pin int, v bool) {
	return int(p[0]), p[1] != 0
}

// gateState is a gate's mutable state: input latches, last driven output,
// the DFF's stored bit, the stimulus RNG, and the probe fingerprint.
type gateState struct {
	Rng     model.Rand
	In      [4]bool
	Out     bool
	OutInit bool // whether Out has been driven yet
	Stored  bool // DFF state
	Ticks   int64
	// Fingerprint accumulates (time, value) observations at probes.
	Fingerprint uint64
	Pad         []byte
}

func (s *gateState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable: refill dst, a retired checkpoint of the
// same type, reusing its Pad backing array.
func (s *gateState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*gateState)
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

func (s *gateState) StateBytes() int { return 64 + len(s.Pad) }

// Bit positions of the boolean fields inside the packed flags word of the
// MarshalState encoding: In[0..3] occupy bits 0-3.
const (
	flagOut = 1 << (4 + iota)
	flagOutInit
	flagStored
)

// MarshalState implements codec.DeltaState: a deterministic fixed-layout
// encoding so successive checkpoints stay positionally aligned for the
// sparse delta. The seven booleans pack into one flags word.
func (s *gateState) MarshalState(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	var flags uint64
	for i, v := range s.In {
		if v {
			flags |= 1 << i
		}
	}
	if s.Out {
		flags |= flagOut
	}
	if s.OutInit {
		flags |= flagOutInit
	}
	if s.Stored {
		flags |= flagStored
	}
	buf = codec.AppendUint64(buf, flags)
	buf = codec.AppendInt64(buf, s.Ticks)
	buf = codec.AppendUint64(buf, s.Fingerprint)
	return codec.AppendBytes(buf, s.Pad)
}

// UnmarshalState implements codec.DeltaState, decoding into s itself: every
// field is overwritten and Pad keeps its backing array, as in CopyInto.
func (s *gateState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	s.Rng = model.RandFromState(r.Uint64())
	flags := r.Uint64()
	for i := range s.In {
		s.In[i] = flags&(1<<i) != 0
	}
	s.Out = flags&flagOut != 0
	s.OutInit = flags&flagOutInit != 0
	s.Stored = flags&flagStored != 0
	s.Ticks = r.Int64()
	s.Fingerprint = r.Uint64()
	s.Pad = r.BytesInto(s.Pad)
	return s, r.Err()
}

// gate is the simulation object for one netlist element.
type gate struct {
	name string
	id   int
	g    Gate
	cfg  Config
	// fanout resolved to object IDs at model build time.
	fanout []Pin
	// buf is the reusable signal-payload scratch; Context.Send copies the
	// payload before returning, so one buffer per gate (objects execute on
	// a single goroutine) replaces a per-send allocation.
	buf [2]byte
}

// signal encodes a [pin, value] payload into the gate's scratch buffer.
func (o *gate) signal(pin int, v bool) []byte {
	o.buf[0] = byte(pin)
	o.buf[1] = 0
	if v {
		o.buf[1] = 1
	}
	return o.buf[:]
}

func (o *gate) Name() string { return o.name }

func (o *gate) InitialState() model.State {
	s := &gateState{Rng: model.NewRand(o.cfg.Seed ^ (uint64(o.id)+1)*0x9E3779B97F4A7C15)}
	if o.cfg.StatePadding > 0 {
		s.Pad = make([]byte, o.cfg.StatePadding)
	}
	return s
}

func (o *gate) Init(ctx model.Context, st model.State) {
	if o.g.Kind == Stimulus || o.g.Kind == Clock {
		// First tick after one period.
		ctx.Send(ctx.Self(), o.g.Period, kindSignal, o.signal(0, false))
	}
}

// eval computes the combinational function over the latched inputs.
func (o *gate) eval(s *gateState) bool {
	switch o.g.Kind {
	case AND:
		v := true
		for i := 0; i < o.g.Inputs; i++ {
			v = v && s.In[i]
		}
		return v
	case OR:
		v := false
		for i := 0; i < o.g.Inputs; i++ {
			v = v || s.In[i]
		}
		return v
	case XOR:
		v := false
		for i := 0; i < o.g.Inputs; i++ {
			v = v != s.In[i]
		}
		return v
	case NAND:
		v := true
		for i := 0; i < o.g.Inputs; i++ {
			v = v && s.In[i]
		}
		return !v
	case NOT:
		return !s.In[0]
	default:
		return s.Out
	}
}

// drive emits the new output value to the fanout if it changed.
func (o *gate) drive(ctx model.Context, s *gateState, v bool) {
	if s.OutInit && s.Out == v {
		return // no transition, no events
	}
	s.Out = v
	s.OutInit = true
	for _, dst := range o.fanout {
		ctx.Send(event.ObjectID(dst.Gate), o.g.Delay, kindSignal, o.signal(dst.Pin, v))
	}
}

func (o *gate) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*gateState)
	pin, v := decodeSignal(ev.Payload)
	switch o.g.Kind {
	case Stimulus, Clock:
		// Self tick: drive the next value and reschedule.
		bit := !s.Out // Clock toggles
		if o.g.Kind == Stimulus {
			bit = s.Rng.Float64() < 0.5
		}
		s.Ticks++
		o.drive(ctx, s, bit)
		if o.cfg.Ticks == 0 || s.Ticks < int64(o.cfg.Ticks) {
			ctx.Send(ctx.Self(), o.g.Period, kindSignal, o.signal(0, false))
		}
	case DFF:
		// Pin 0 = D, pin 1 = clock; latch on the clock's rising edge.
		if pin == 1 {
			rising := v && !s.In[1]
			s.In[1] = v
			if rising {
				s.Stored = s.In[0]
				o.drive(ctx, s, s.Stored)
			}
			return
		}
		s.In[0] = v
	case Probe:
		// Accumulate an order-sensitive waveform fingerprint.
		x := uint64(ev.RecvTime) * 2
		if v {
			x++
		}
		s.Fingerprint = s.Fingerprint*0x100000001B3 ^ x
	default:
		if pin >= o.g.Inputs {
			panic(fmt.Sprintf("logic: gate %s pin %d out of range", o.name, pin))
		}
		s.In[pin] = v
		o.drive(ctx, s, o.eval(s))
	}
}

// New builds the simulation model for a netlist.
func New(nl *Netlist, cfg Config) *model.Model {
	if cfg.LPs < 1 {
		cfg.LPs = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x10061C
	}
	n := len(nl.Gates)
	if cfg.LPs > n {
		cfg.LPs = n
	}
	m := &model.Model{Name: "logic:" + nl.Name}
	for i, g := range nl.Gates {
		if g.Inputs == 0 {
			switch g.Kind {
			case NOT, Probe:
				g.Inputs = 1
			case DFF:
				g.Inputs = 2
			case Stimulus, Clock:
				g.Inputs = 0
			default:
				g.Inputs = 2
			}
		}
		if g.Delay <= 0 {
			g.Delay = 1
		}
		m.Objects = append(m.Objects, &gate{
			name:   model.IndexedName(nl.Name+"."+g.Kind.String()+".", i),
			id:     i,
			g:      g,
			cfg:    cfg,
			fanout: g.Fanout,
		})
		m.Partition = append(m.Partition, i*cfg.LPs/n)
	}
	return m
}
