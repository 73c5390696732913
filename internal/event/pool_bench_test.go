package event

import "testing"

// BenchmarkPool is the event pool's steady state, which a rollback storm
// multiplies: every executed, annihilated, cancelled or fossil-collected event
// passes through it. GetPut takes an event, gives it a 16-byte payload and
// recycles it; Share adds a second holder to an event, as a send within one
// LP does, and both holders release it. Each must read 0 allocs/op.
func BenchmarkPool(b *testing.B) {
	payload := make([]byte, 16)
	b.Run("GetPut", func(b *testing.B) {
		p := NewPool()
		p.Put(p.Get())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := p.Get()
			p.SetPayload(e, payload)
			p.Put(e)
		}
	})
	b.Run("Share", func(b *testing.B) {
		p := NewPool()
		p.Put(p.Get())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := p.Get()
			p.Put(p.Share(e))
			p.Put(e)
		}
	})
}
