package comm

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The wire's layer benchmarks: TCP's two drivers side by side over loopback
// (EXPERIMENTS.md, "Who gets a core", records the figures).

// BenchmarkTCPStream sends b.N 256-byte events frames one way, in worker
// rounds of 32: the polled driver flushes once a round, the reader driver
// writes every frame. frames/write is the coalescing the kernel gets.
func BenchmarkTCPStream(b *testing.B) {
	for _, d := range drivers {
		b.Run(d.name, func(b *testing.B) {
			r0, r1 := tcpMesh(b, 2, d.polled)
			var writes int
			write := r0.out[1].write
			r0.out[1].write = func(p []byte) (int, error) {
				n, err := write(p)
				if n > 0 {
					writes++
				}
				return n, err
			}
			received := make(chan struct{})
			go func() {
				defer close(received)
				for n := 0; n < b.N; {
					if !d.polled {
						<-r1.Recv(1)
						n++
						continue
					}
					r1.Poll()
					n += r1.takeAll(1)
					runtime.Gosched()
				}
			}()
			// One payload sent b.N times: rank 0 receives nothing, so the
			// slice it keeps recycling is never written to.
			pkt := Packet{Kind: PktEvents, From: 0, Count: 8, Payload: make([]byte, 256)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r0.Send(1, pkt, len(pkt.Payload))
				if d.polled && i%32 == 31 {
					r0.Flush(true)
				}
			}
			for d.polled && !flushed(r0.out[1]) {
				r0.Flush(true)
				runtime.Gosched()
			}
			<-received
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			b.ReportMetric(float64(b.N)/float64(writes), "frames/write")
			closeAll(r0.TCP, r1.TCP)
		})
	}
}

// takeAll empties what the sink has filed for lp and returns how much it was.
func (r *rank) takeAll(lp int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.got[lp])
	r.got[lp] = r.got[lp][:0]
	return n
}

func flushed(sc *tcpSendConn) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.buf) == sc.off
}

// BenchmarkTCPHopBusy times one frame's hop — from Send until the receiving
// rank has the packet where a worker would find it — while more goroutines
// than there are Ps never block, as a kernel's workers do: each burns a
// round's worth of CPU and yields, the sender among them. Under the polled
// driver those goroutines are the readers, polling once a round; under the
// reader driver the reader is a goroutine parked in the netpoller, which a
// Go scheduler with no idle P consults only from sysmon's 10 ms tick. An idle
// host hides the difference: there either driver's hop is tens of
// microseconds.
func BenchmarkTCPHopBusy(b *testing.B) {
	round := func() {
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		}
	}
	for _, d := range drivers {
		b.Run(d.name, func(b *testing.B) {
			r0, r1 := tcpMesh(b, 2, d.polled)
			var (
				start   = time.Now()
				sentAt  int64 // written before a send, read after the arrival it causes
				hops    = make([]float64, 0, b.N)
				arrived atomic.Bool // one frame in flight at a time
				stop    atomic.Bool
				wg      sync.WaitGroup
			)
			arrive := func() {
				hops = append(hops, float64(time.Since(start).Nanoseconds()-sentAt)/1e3)
				arrived.Store(true)
			}
			for i := 0; i < runtime.GOMAXPROCS(0); i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						round()
						if d.polled {
							if r1.Poll(); r1.takeAll(1) > 0 {
								arrive()
							}
						}
						runtime.Gosched()
					}
				}()
			}
			if !d.polled {
				wg.Add(1)
				go func() { // stands where the kernel's forwarder does
					defer wg.Done()
					for range r1.Recv(1) {
						if stop.Load() {
							return
						}
						arrive()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arrived.Store(false)
				sentAt = time.Since(start).Nanoseconds()
				r0.send(1, Packet{Kind: PktToken, From: 0})
				for !arrived.Load() {
					round()
					runtime.Gosched()
				}
			}
			b.StopTimer()
			stop.Store(true)
			if !d.polled {
				r1.TCP.deliver(1, Packet{}) // release the reader
			}
			wg.Wait()
			sort.Float64s(hops)
			b.ReportMetric(hops[len(hops)/2], "p50-us/hop")
			b.ReportMetric(hops[len(hops)-1], "max-us/hop")
			closeAll(r0.TCP, r1.TCP)
		})
	}
}
