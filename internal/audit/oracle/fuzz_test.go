package oracle

import (
	"testing"
)

// FuzzKernelOracle decodes fuzzer bytes into a random PHOLD or queueing-
// network scenario plus one configuration-matrix cell, then runs the full
// differential oracle on it: sequential reference, conservative kernel, and
// an audited parallel Time Warp run must all agree on committed events and
// final states, with zero invariant violations.
//
// Reproduce a failure:
//
//	go test ./internal/audit/oracle -run 'FuzzKernelOracle/<id>' -v
//
// Minimize it:
//
//	go test ./internal/audit/oracle -fuzz 'FuzzKernelOracle' -fuzzminimizetime 30s
func FuzzKernelOracle(f *testing.F) {
	// PHOLD, 8 objects / 3 LPs, cell 0 (chi1/aggr/noagg), unbounded.
	f.Add([]byte("\x00\x06\x02\x02\x02\x06\x01\x03\x00\x00"))
	// QNet, 10 stations / 3 LPs, cell 22 (dynchi/lazy/faw), windowed.
	f.Add([]byte("\x01\x08\x02\x02\x03\x04\x07\x05\x16\x3c"))
	// PHOLD again with the adaptive optimism controller on (byte 10).
	f.Add([]byte("\x00\x06\x02\x02\x02\x06\x01\x03\x00\x32\x05"))
	// PHOLD on the worker-pool dispatcher, 2 workers (byte 11).
	f.Add([]byte("\x00\x06\x02\x02\x02\x06\x01\x03\x00\x00\x00\x02"))
	// QNet on the pool with adaptive optimism and the cell's facets all on.
	f.Add([]byte("\x01\x08\x02\x02\x03\x04\x07\x05\x16\x3c\x05\x03"))
	// PHOLD, 4 LPs, at the kernel's default width (byte 11 = 4): a worker per
	// LP up to the cores of whatever machine this runs on.
	f.Add([]byte("\x00\x06\x03\x02\x02\x06\x01\x03\x00\x3c\x00\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := DecodeFuzzSpec(data)
		rep, err := Run(spec.Model(), spec.Options())
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("spec %+v:\n%s\n%v", spec, rep.Render(), err)
		}
	})
}
