package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/model"
	"gowarp/internal/stats"
)

// Distributed runs: the kernel spans several OS processes (ranks), each
// hosting a contiguous block of LPs behind a comm.Transport. Events, GVT
// tokens and the stop broadcast flow through the transport unchanged — the
// Mattern protocol never cared where an LP lives. What needs explicit
// machinery is the end of the run: rank 0's caller expects a Result covering
// the whole model, so after its LPs terminate every other rank marshals its
// final states (via the codec facet's DeltaState encoding) and counters into
// one gob-encoded PktReport addressed to LP 0, and rank 0 folds them in.
//
// Each rank is a dispatcher over the LPs it hosts (dispatch.go), at whatever
// width its Config.Workers asks for. The workers read and write the sockets
// themselves when the transport is comm.Polled, as TCP is; otherwise its
// deliveries reach the LPs' spillboxes through the forwarders Run starts.
//
// The ordering that makes the report safe: the stop broadcast originates at
// rank 0's LP 0 (which stops itself first), so by the time any remote rank's
// workers have joined and its report is sent, LP 0 reads no more packets.
// Whatever reaches LP 0 from then on stays in its spillbox, and that is where
// gatherReports looks, polling and flushing the transport itself now that the
// workers are gone; behind forwarders, a report that arrives after they stopped waits in
// the transport's receive channel, where gatherReports looks next.

// reportTimeout bounds how long rank 0 waits for the other ranks' end-of-run
// reports. A missing report means a peer process died after termination was
// already detected; waiting forever would hide that.
const reportTimeout = 30 * time.Second

// wireReport is one rank's end-of-run contribution to the coordinator's
// Result.
type wireReport struct {
	Rank    int
	PerLP   map[int]stats.Counters
	Objects []wireObjectReport
}

// wireObjectReport carries one object's final state (DeltaState encoding)
// and per-object observations.
type wireObjectReport struct {
	ID    int32
	State []byte
	Stats stats.PerObject
}

// checkDistributed rejects configurations that require process-shared state
// and therefore cannot span ranks. Every rank runs the same check, so a
// misconfigured fleet fails everywhere with the same message.
func checkDistributed(m *model.Model, cfg *Config) error {
	if cfg.Balance.Dynamic() {
		return fmt.Errorf("core: dynamic load balancing requires the in-process transport (migration capsules and the live routing table cannot cross a process boundary)")
	}
	if cfg.Optimism.Adaptive() {
		return fmt.Errorf("core: adaptive optimism requires the in-process transport (the controller's window lives in process-shared state)")
	}
	if cfg.Audit != nil {
		return fmt.Errorf("core: the on-line auditor requires the in-process transport (its message-conservation ledger is global)")
	}
	for id, obj := range m.Objects {
		if _, ok := obj.InitialState().(codec.DeltaState); !ok {
			return fmt.Errorf("core: object %d (%s): state %T does not implement codec.DeltaState, required to report final states across ranks",
				id, obj.Name(), obj.InitialState())
		}
	}
	return nil
}

// sendReport marshals this rank's slice of the results and ships it to the
// coordinator.
func sendReport(tr comm.Transport, rank int, locals []*lpRun, res *Result) error {
	rep := wireReport{Rank: rank, PerLP: make(map[int]stats.Counters, len(locals))}
	for _, lp := range locals {
		rep.PerLP[lp.id] = res.PerLP[lp.id]
		for _, o := range lp.objs {
			ds, ok := o.state.(codec.DeltaState)
			if !ok {
				// Guarded up front by checkDistributed; a state type that
				// changes shape mid-run would be a model bug.
				return fmt.Errorf("core: object %d final state %T lost its codec.DeltaState encoding", o.id, o.state)
			}
			rep.Objects = append(rep.Objects, wireObjectReport{
				ID:    int32(o.id),
				State: ds.MarshalState(nil),
				Stats: res.PerObject[o.id],
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rep); err != nil {
		return fmt.Errorf("core: rank %d report encode: %w", rank, err)
	}
	tr.Send(0, comm.Packet{Kind: comm.PktReport, From: rank, Payload: buf.Bytes()}, buf.Len())
	return nil
}

// gatherReports folds every other rank's report into res on rank 0. Reports
// may already sit in LP 0's spillbox or, defensively, its stash; the rest are
// awaited on the transport with a bounded timeout. A stop among them ends the
// wait at once: LP 0 is the one LP nobody tells to stop in a run that ends
// well, so a link failed or a peer gave up, and its report is not coming.
func gatherReports(tr comm.Transport, d *dispatcher, m *model.Model, res *Result) error {
	peers := tr.Peers()
	pending := make(map[int]bool, peers.NumRanks-1)
	for r := 1; r < peers.NumRanks; r++ {
		pending[r] = true
	}

	apply := func(p comm.Packet) error {
		if p.Kind == comm.PktStop {
			return fmt.Errorf("core: the run was stopped from outside LP 0 with the reports of ranks %v outstanding", sortedKeys(pending))
		}
		if p.Kind != comm.PktReport {
			return nil // post-termination stragglers (flushed events, GVT echoes)
		}
		var rep wireReport
		if err := gob.NewDecoder(bytes.NewReader(p.Payload)).Decode(&rep); err != nil {
			return fmt.Errorf("core: rank report decode: %w", err)
		}
		if !pending[rep.Rank] {
			return fmt.Errorf("core: duplicate or unexpected end-of-run report from rank %d", rep.Rank)
		}
		delete(pending, rep.Rank)
		for lpid, c := range rep.PerLP {
			if lpid < 0 || lpid >= len(res.PerLP) {
				return fmt.Errorf("core: rank %d reports counters for out-of-range LP %d", rep.Rank, lpid)
			}
			res.PerLP[lpid] = c
			res.Stats.Merge(&c)
		}
		for _, or := range rep.Objects {
			id := int(or.ID)
			if id < 0 || id >= len(res.FinalStates) {
				return fmt.Errorf("core: rank %d reports out-of-range object %d", rep.Rank, id)
			}
			proto, ok := m.Objects[id].InitialState().(codec.DeltaState)
			if !ok {
				return fmt.Errorf("core: object %d state cannot decode a remote report (no codec.DeltaState)", id)
			}
			st, err := proto.UnmarshalState(or.State)
			if err != nil {
				return fmt.Errorf("core: rank %d object %d final state decode: %w", rep.Rank, id, err)
			}
			res.FinalStates[id] = st
			res.PerObject[id] = or.Stats
		}
		return nil
	}

	lp0 := d.byID[0]
	for _, p := range append(lp0.stash, lp0.spill.take()...) {
		if err := apply(p); err != nil {
			return err
		}
	}

	// What is still to come arrives in the transport's channel when forwarders
	// fed the spillbox (they have stopped), and in the spillbox itself when
	// the workers polled the transport. They have stopped, so poll here — and
	// flush: a worker's last flush wrote what the sockets took, and what they
	// refused may include the stop a peer is waiting for before it reports.
	// Between looks rank 0 waits as an idle worker does: for the doorbell,
	// armed before the look, or for the idle tick, which is what notices a
	// socket with room again for the rest of rank 0's out-buffer.
	deadline := time.NewTimer(reportTimeout)
	defer deadline.Stop()
	var inbox <-chan comm.Packet
	if d.wire == nil {
		inbox = tr.Recv(0)
	}
	for len(pending) > 0 {
		var arrived []comm.Packet
		var tick <-chan time.Time
		if d.wire != nil {
			d.wire.Flush(true)
			d.wire.Arm()
			d.wire.Poll()
			if arrived = lp0.spill.take(); len(arrived) == 0 {
				tick = time.After(d.idleTick)
			}
		}
		if len(arrived) == 0 {
			select {
			case p := <-inbox:
				arrived = append(arrived, p)
			case <-d.workers[0].wake: // the ring; the workers have stopped
			case <-tick:
			case <-deadline.C:
				return fmt.Errorf("core: timed out after %v waiting for end-of-run reports from ranks %v", reportTimeout, sortedKeys(pending))
			}
		}
		for _, p := range arrived {
			if err := apply(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(set map[int]bool) []int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
