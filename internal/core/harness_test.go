package core

import (
	"fmt"
	"sync"

	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// newTestKernel wires m's logical processes and objects exactly as Run does
// — newKernel, over the transport Run makes without a Config.Transport — and
// initialises the objects, but starts no worker: the caller drives the LPs
// synchronously, one kernel step at a time. Init's inter-LP sends sit in the
// spillboxes until the caller drains them.
func newTestKernel(m *model.Model, cfg *Config) []*lpRun {
	cfg.Audit.Bind(m.NumLPs(), cfg.EndTime)
	d := newKernel(m, cfg, comm.Peers{Local: comm.BlockRanks(m.NumLPs(), 1, 0)}, inProc(m, cfg), nil)
	for _, lp := range d.lps {
		lp.initObjects()
	}
	return d.lps
}

// inProc is the transport Run makes for m when Config.Transport is nil.
func inProc(m *model.Model, cfg *Config) comm.Transport {
	return comm.NewInProc(m.NumLPs(), comm.WithCost(cfg.Cost))
}

// runWorkers runs d's workers until the run ends, as Run does.
func runWorkers(d *dispatcher) {
	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
}

// next returns the object with the least key of lp's range of the worker's
// schedule tree, nil if the LP hosts none, and that key's virtual time.
func (lp *lpRun) next() (*simObject, vtime.Time) {
	slot, t := lp.sched.MinIn(lp.base, lp.base+len(lp.objs))
	if slot < 0 {
		return nil, t
	}
	return lp.objs[slot-lp.base], t
}

// execStep executes lp's lowest-timestamped pending event as the worker would
// had it picked that object, reporting whether anything ran.
func (lp *lpRun) execStep() bool {
	o, t := lp.next()
	if t == vtime.PosInf || !lp.runnable(t) {
		return false
	}
	lp.exec(o)
	return true
}

// nilState is a zero-size model.State. Boxing a zero-size value into an
// interface reuses the runtime's shared zero word, so Clone costs no heap
// allocation — which lets the checkpoint path participate in exact
// zero-allocation measurements without exempting it.
type nilState struct{}

func (nilState) Clone() model.State { return nilState{} }
func (nilState) StateBytes() int    { return 0 }

// pingObject passes a token to its peer with delay 1 per execution; seeded
// objects put one token in flight at Init.
type pingObject struct {
	name    string
	peer    event.ObjectID
	seeded  bool
	payload []byte
}

func (p *pingObject) Name() string              { return p.name }
func (p *pingObject) InitialState() model.State { return nilState{} }

func (p *pingObject) Init(ctx model.Context, st model.State) {
	if p.seeded {
		ctx.Send(p.peer, 1, 0, p.payload)
	}
}

func (p *pingObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	ctx.Send(p.peer, 1, 0, p.payload)
}

// ringModel returns a one-LP model of n objects of which the first active
// pass tokens round a ring among themselves — the first tokens of them start
// with one in flight — and the rest never see an event.
func ringModel(n, active, tokens int) *model.Model {
	m := &model.Model{Name: "ring", Partition: make([]int, n)}
	for i := 0; i < n; i++ {
		p := &pingObject{name: fmt.Sprintf("ring.%d", i), peer: event.ObjectID(i), payload: make([]byte, 8)}
		if i < active {
			p.peer = event.ObjectID((i + 1) % active)
			p.seeded = i < tokens
		}
		m.Objects = append(m.Objects, p)
	}
	return m
}

// pairModel returns a one-LP model of n objects in pairs, each pair passing
// one token of the given payload size back and forth.
func pairModel(n, payload int) *model.Model {
	m := &model.Model{Name: "pairs", Partition: make([]int, n)}
	for i := 0; i < n; i++ {
		m.Objects = append(m.Objects, &pingObject{
			name: fmt.Sprintf("pair.%d", i), peer: event.ObjectID(i ^ 1),
			seeded: i&1 == 0, payload: make([]byte, payload),
		})
	}
	return m
}
