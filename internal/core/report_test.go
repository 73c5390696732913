package core

import (
	"bytes"
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/model"
)

// TestGatherReportsFlushesBacklog: rank 0's workers never block in a socket
// write, so when LP 0 stops, what the sockets have refused — here 16 MiB, far
// more than loopback's buffers hold, with the stop broadcast behind it — sits
// in rank 0's out-buffer, and the workers that would have flushed it next
// round are gone. gatherReports has to keep writing while it waits, or the
// peer never sees the stop, never reports, and rank 0 waits out reportTimeout.
func TestGatherReportsFlushesBacklog(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*comm.TCP, 2)
	wires := make([]comm.Polled, 2)
	for i := range trs {
		tr, err := comm.NewTCP(comm.TCPConfig{
			Rank: i, Addrs: addrs, NumLPs: 2,
			DialTimeout: 5 * time.Second, DrainTimeout: 5 * time.Second,
			Listener: lns[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := comm.Transport(tr).(comm.Polled)
		if !ok {
			t.Skip("TCP is not Polled on this platform")
		}
		trs[i], wires[i] = tr, p
	}

	// Rank 0 is a kernel nobody runs: LP 0, its spillbox, the transport's sink.
	m := &model.Model{Name: "two", Partition: []int{0, 1}}
	for range m.Partition {
		m.Objects = append(m.Objects, &pingObject{name: "idle"})
	}
	cfg := DefaultConfig(100)
	d := newKernel(m, &cfg, trs[0].Peers(), trs[0], nil)
	d.wire = wires[0]
	wires[0].SetSink(d.deliver, d.ring)

	// Rank 1 files what arrives and does not look at its sockets yet.
	stopped := make(chan struct{})
	wires[1].SetSink(func(lp int, p comm.Packet) {
		if p.Kind == comm.PktStop {
			close(stopped)
		}
	}, func() {})

	var start sync.WaitGroup
	for _, tr := range trs {
		start.Add(1)
		go func(tr *comm.TCP) {
			defer start.Done()
			if err := tr.Start(); err != nil {
				t.Error(err)
			}
		}(tr)
	}
	start.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The last rounds of rank 0's workers: events, then the stop, each round
	// ending in the flush that writes what the socket will take.
	const frames, size = 256, 64 << 10
	payload := make([]byte, size)
	for i := 0; i < frames; i++ {
		trs[0].Send(1, comm.Packet{Kind: comm.PktEvents, From: 0, Payload: payload}, size)
	}
	trs[0].Send(1, comm.Packet{Kind: comm.PktStop, From: 0}, 0)
	wires[0].Flush(true)

	// Rank 1 from here on: poll until the stop, report, keep the wire moving.
	done := make(chan struct{})
	var peer sync.WaitGroup
	peer.Add(1)
	go func() {
		defer peer.Done()
		reported := false
		for {
			wires[1].Poll()
			select {
			case <-stopped:
				if !reported {
					reported = true
					var buf bytes.Buffer
					if err := gob.NewEncoder(&buf).Encode(&wireReport{Rank: 1}); err != nil {
						t.Error(err)
					}
					trs[1].Send(0, comm.Packet{Kind: comm.PktReport, From: 1, Payload: buf.Bytes()}, buf.Len())
				}
			case <-done:
				return
			default:
			}
			wires[1].Flush(true)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	gathered := make(chan error, 1)
	go func() { gathered <- gatherReports(trs[0], d, m, &Result{}) }()
	select {
	case err := <-gathered:
		if err != nil {
			t.Errorf("gatherReports: %v", err)
		}
	case <-time.After(reportTimeout / 2):
		t.Error("gatherReports left the stop in rank 0's out-buffer: the peer never saw it")
	}
	close(done)
	peer.Wait()

	var closing sync.WaitGroup
	for _, tr := range trs {
		closing.Add(1)
		go func(tr *comm.TCP) { defer closing.Done(); tr.Close() }(tr)
	}
	closing.Wait()
}
