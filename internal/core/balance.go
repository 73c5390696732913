package core

import (
	"gowarp/internal/control"
	"gowarp/internal/partition"
)

// This file is the load-balancing controller: the <O,I,S,T,P> tuple the
// paper's framework prescribes, applied to object placement.
//
//	O — per-LP committed-event share (processed share before any commits)
//	    over the controller's progressWindow, and the per-object execution
//	    and object-pair message counts taken since its last decision;
//	I — the object→LP assignment (the routing table);
//	S — the model's static partition;
//	T — a dead-zoned transfer function migrating the best boundary object
//	    from the most- to the least-loaded LP (partition.Rebalance);
//	P — a multiple of the GVT period.

// balancer is the controller state, owned by LP 0. load and part are T's
// scratch, one slot per object, made once: what each object executed over
// the window and where it is.
type balancer struct {
	cfg  BalanceConfig
	tick *control.Ticker   // P: fires every Period GVT applications
	dz   *control.DeadZone // T's hysteresis on the imbalance metric
	win  *progressWindow
	load []float64
	part []int
}

func newBalancer(cfg BalanceConfig, lps []*lpRun, objects int) *balancer {
	return &balancer{
		cfg:  cfg,
		tick: control.NewTicker(cfg.Period),
		dz:   control.NewDeadZone(cfg.LowWater, cfg.HighWater, false),
		win:  newProgressWindow(lps),
		load: make([]float64, objects),
		part: make([]int, objects),
	}
}

// runBalancer is LP 0's controller step, called at GVT completion before the
// broadcast. It observes the window since its last decision, takes the
// per-object and per-pair counts gathered over it, feeds the imbalance
// through the dead zone, and returns the moves to actuate: the GVT broadcast
// carries them to every LP, and each migrates the ones that name it as
// source (migrateMoves).
func (lp *lpRun) runBalancer() []partition.Move {
	b := lp.bal
	if lp.numLPs < 2 || !b.tick.Tick() {
		return nil
	}
	win, total, ok := b.win.observe(lp.loads[0].at)
	if !ok || total.processed < b.cfg.MinSample {
		return nil // unreadable or too thin to act on; extend the window
	}
	b.win.decide()
	for i, o := range lp.k.objs {
		b.load[i] = float64(o.execs.Swap(0))
	}
	edges := lp.k.board.Take()

	imb := imbalanceOf(win, total)
	active := b.dz.Input(imb)
	var moves []partition.Move
	if active {
		for i := range b.part {
			b.part[i] = lp.k.rt.Owner(i)
		}
		moves = partition.Rebalance(b.part, b.load, edges, lp.numLPs, b.cfg.MaxMoves)
		if len(moves) > 0 {
			lp.st.BalanceSteps++
		}
	}
	lp.tr.BalanceStep(int64(imb*1000), active, int64(len(moves)))
	return moves
}

// imbalanceOf computes the sampled output O: max over mean of per-LP
// committed events in the window, falling back to processed events while the
// window saw no commits (early in a run, or under heavy rollback).
func imbalanceOf(win []progress, total progress) float64 {
	load := func(p progress) int64 { return p.committed }
	sum := total.committed
	if sum == 0 {
		load, sum = func(p progress) int64 { return p.processed }, total.processed
	}
	if sum <= 0 {
		return 1
	}
	var top int64
	for _, p := range win {
		top = max(top, load(p))
	}
	return float64(top) * float64(len(win)) / float64(sum)
}
