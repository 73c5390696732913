package core

import (
	"gowarp/internal/control"
	"gowarp/internal/event"
	"gowarp/internal/partition"
	"gowarp/internal/stats"
)

// This file is the load-balancing controller: the <O,I,S,T,P> tuple the
// paper's framework prescribes, applied to object placement.
//
//	O — per-LP committed-event share (processed share before any commits)
//	    and per-object execution counts, published to a shared load board at
//	    each GVT application;
//	I — the object→LP assignment (the routing table);
//	S — the model's static partition;
//	T — a dead-zoned transfer function migrating the best boundary object
//	    from the most- to the least-loaded LP (partition.Rebalance);
//	P — a multiple of the GVT period.

// loadRecorder accumulates one LP's observations between GVT applications,
// entirely thread-local; publishLoad folds the deltas into the shared board
// once per application, off the per-event path.
type loadRecorder struct {
	exec  []int64          // executions per hosted object since last publish
	edges map[uint64]int64 // stats.EdgeKey -> events sent between objects

	// Snapshots of the LP counters at the last publish, so publishes carry
	// deltas without a second set of hot-path increments.
	lastProcessed  int64
	lastCommitted  int64
	lastRolledBack int64
	lastRollbacks  int64
}

func newLoadRecorder(objects int) *loadRecorder {
	return &loadRecorder{
		exec:  make([]int64, objects),
		edges: make(map[uint64]int64),
	}
}

// publishLoad folds this LP's accumulated deltas into the shared board.
func (lp *lpRun) publishLoad() {
	ld := lp.ld
	st := &lp.st
	lp.k.board.Publish(lp.id, ld.exec, ld.edges,
		st.EventsProcessed-ld.lastProcessed,
		st.EventsCommitted-ld.lastCommitted,
		st.EventsRolledBack-ld.lastRolledBack,
		st.Rollbacks-ld.lastRollbacks)
	for i := range ld.exec {
		ld.exec[i] = 0
	}
	clear(ld.edges)
	ld.lastProcessed = st.EventsProcessed
	ld.lastCommitted = st.EventsCommitted
	ld.lastRolledBack = st.EventsRolledBack
	ld.lastRollbacks = st.Rollbacks
}

// balancer is the controller state, owned by LP 0.
type balancer struct {
	cfg    BalanceConfig
	tick   *control.Ticker   // P: fires every Period GVT applications
	dz     *control.DeadZone // T's hysteresis on the imbalance metric
	base   stats.LoadSample  // start of the current observation window
	primed bool
}

func newBalancer(cfg BalanceConfig) *balancer {
	return &balancer{
		cfg:  cfg,
		tick: control.NewTicker(cfg.Period),
		dz:   control.NewDeadZone(cfg.LowWater, cfg.HighWater, false),
	}
}

// runBalancer is LP 0's controller step, called at GVT application after
// publishLoad. It observes the window since the last firing, feeds the
// imbalance through the dead zone, and actuates by migrating locally hosted
// objects directly and requesting migration from other owners.
func (lp *lpRun) runBalancer() {
	b := lp.bal
	if lp.numLPs < 2 || !b.tick.Tick() {
		return
	}
	cur := lp.k.board.Snapshot()
	if !b.primed {
		b.base, b.primed = cur, true
		return
	}
	win := cur.Sub(b.base)
	if win.TotalProcessed() < b.cfg.MinSample {
		return // too thin to act on; extend the window
	}
	b.base = cur

	imb := imbalanceOf(win, lp.numLPs)
	active := b.dz.Input(imb)
	var moves []partition.Move
	if active {
		part := lp.k.rt.Assignment()
		g := partition.FromMeasurements(len(part), loadOf(win), win.Edges())
		moves = partition.Rebalance(g, part, lp.numLPs, b.cfg.MaxMoves)

		// Group moves by (source, destination) so co-migrating objects share
		// one capsule (locally hosted) or one request (remote owners).
		type lane struct{ from, to int }
		groups := make(map[lane][]int32)
		var order []lane // deterministic actuation order
		for _, m := range moves {
			l := lane{m.From, m.To}
			if _, seen := groups[l]; !seen {
				order = append(order, l)
			}
			groups[l] = append(groups[l], int32(m.Object))
		}
		for _, l := range order {
			objs := groups[l]
			if l.from != lp.id {
				lp.ep.SendMigrateReq(l.from, objs, l.to)
				continue
			}
			batch := make([]*simObject, 0, len(objs))
			for _, id := range objs {
				o := lp.hosted(event.ObjectID(id))
				if o == nil || len(lp.objs)-len(batch) <= 1 {
					continue
				}
				batch = append(batch, o)
			}
			if len(batch) > 0 {
				lp.migrateOutBatch(batch, l.to)
			}
		}
		if len(moves) > 0 {
			lp.st.BalanceSteps++
		}
	}
	lp.tr.BalanceStep(int64(imb*1000), active, int64(len(moves)))
}

// imbalanceOf computes the sampled output O: max over mean of per-LP
// committed events in the window, falling back to processed events while the
// window saw no commits (early in a run, or under heavy rollback).
func imbalanceOf(win stats.LoadSample, lps int) float64 {
	loads := win.Committed
	var total int64
	for _, v := range loads {
		total += v
	}
	if total == 0 {
		loads = win.Processed
		for _, v := range loads {
			total += v
		}
	}
	if total <= 0 {
		return 1
	}
	mean := float64(total) / float64(lps)
	max := 0.0
	for _, v := range loads {
		if float64(v) > max {
			max = float64(v)
		}
	}
	return max / mean
}

// loadOf renders the window's per-object execution counts as vertex weights.
func loadOf(win stats.LoadSample) []float64 {
	out := make([]float64, len(win.ObjExec))
	for i, v := range win.ObjExec {
		out[i] = float64(v)
	}
	return out
}
