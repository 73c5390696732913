package core

import (
	"fmt"

	"gowarp/internal/cancel"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/route"
	"gowarp/internal/statesave"
)

// newTestKernel wires m's logical processes and objects the way Run does —
// in-process transport, endpoints, GVT managers, event pools, schedule heaps,
// initialised objects — but starts no goroutine: the caller drives the LPs
// synchronously, one kernel step at a time. Init's inter-LP sends sit in the
// inbox channels until the caller drains them, so keep models small enough
// for InboxDepth or fully local.
func newTestKernel(m *model.Model, cfg *Config) []*lpRun {
	numLPs := m.NumLPs()
	tr := comm.NewInProc(numLPs, comm.WithInboxDepth(cfg.InboxDepth))
	sh := &shared{rt: route.New(m.Partition), objs: make([]*simObject, len(m.Objects))}
	cfg.Audit.Bind(numLPs, cfg.EndTime)
	lps := make([]*lpRun, numLPs)
	for i := range lps {
		lp := &lpRun{
			id:       i,
			cfg:      cfg,
			k:        sh,
			inbox:    tr.Recv(i),
			running:  true,
			numLPs:   numLPs,
			pool:     event.NewPool(),
			au:       cfg.Audit.LP(i),
			local:    make([]*simObject, len(m.Objects)),
			outbound: make(map[event.ObjectID]int),
		}
		lp.ep = comm.NewEndpoint(tr, i, cfg.Aggregation, &lp.st)
		lp.ep.Pool = lp.pool
		lp.gvtMgr = gvt.NewManager(i, numLPs, lp.ep, cfg.GVTPeriod, &lp.st)
		lps[i] = lp
	}
	for id, obj := range m.Objects {
		lp := lps[m.Partition[id]]
		o := &simObject{
			id:      event.ObjectID(id),
			slot:    len(lp.objs),
			obj:     obj,
			lp:      lp,
			pending: pq.New(cfg.PendingSet),
		}
		o.au = lp.au.Object(o.id)
		o.ectx.o = o
		o.ckpt = statesave.NewCheckpointer(cfg.Checkpoint)
		o.out = cancel.NewManager(cancel.NewSelector(cfg.Cancellation), lp.emitAnti, &lp.st, lp.pool)
		bindObjectHooks(lp, o)
		sh.objs[id] = o
		lp.objs = append(lp.objs, o)
		lp.local[id] = o
	}
	for _, lp := range lps {
		lp.sched = pq.NewScheduleHeap(len(lp.objs))
		lp.initObjects()
	}
	return lps
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
	name   string
	peer   event.ObjectID
	seeded bool
	buf    [8]byte
}

func (p *pingObject) Name() string              { return p.name }
func (p *pingObject) InitialState() model.State { return nilState{} }

func (p *pingObject) Init(ctx model.Context, st model.State) {
	if p.seeded {
		ctx.Send(p.peer, 1, 0, p.buf[:])
	}
}

func (p *pingObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	ctx.Send(p.peer, 1, 0, p.buf[:])
}

// ringModel returns a one-LP model of n objects of which the first active
// pass tokens round a ring among themselves — the first tokens of them start
// with one in flight — and the rest never see an event.
func ringModel(n, active, tokens int) *model.Model {
	m := &model.Model{Name: "ring", Partition: make([]int, n)}
	for i := 0; i < n; i++ {
		p := &pingObject{name: fmt.Sprintf("ring.%d", i), peer: event.ObjectID(i)}
		if i < active {
			p.peer = event.ObjectID((i + 1) % active)
			p.seeded = i < tokens
		}
		m.Objects = append(m.Objects, p)
	}
	return m
}
