package oracle

import (
	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/qnet"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// FuzzSpec is a small random simulation scenario decoded from fuzz input: a
// model topology plus one configuration-matrix cell. The decoding is total —
// every byte string maps to a valid spec — so the fuzzer explores scenario
// space instead of fighting validation.
type FuzzSpec struct {
	// ModelName is "phold" or "qnet".
	ModelName string
	// Objects is the object (or station) count, 2..11.
	Objects int
	// LPs is the logical-process count, 1..4.
	LPs int
	// Tokens is the tokens-per-object (or jobs-per-station) population, 1..3.
	Tokens int
	// Locality is the probability a send stays on the sender's LP.
	Locality float64
	// MeanDelay is the mean virtual-time hop delay, 4..19.
	MeanDelay float64
	// Seed drives the model's deterministic random streams (never 0).
	Seed uint64
	// EndTime is the virtual end time, 200..900.
	EndTime vtime.Time
	// Cell is the configuration-matrix cell to run, 0..26.
	Cell int
	// Optimism configures the optimism facet (zero value = static and
	// unbounded).
	Optimism core.OptimismConfig
	// Workers is the dispatcher width as Options.Workers spells it: 0 (a
	// worker per LP), 1 to 3, or DefaultWidth.
	Workers int
}

// DecodeFuzzSpec maps 12 fuzzer-controlled bytes onto a FuzzSpec. Inputs
// shorter than 12 bytes read as zero bytes, so every input decodes.
func DecodeFuzzSpec(data []byte) FuzzSpec {
	b := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	spec := FuzzSpec{
		ModelName: "phold",
		Objects:   2 + int(b(1))%10,
		LPs:       1 + int(b(2))%4,
		Tokens:    1 + int(b(3))%3,
		Locality:  float64(int(b(4))%10) / 10,
		MeanDelay: float64(4 + int(b(5))%16),
		Seed:      1 + uint64(b(6)),
		EndTime:   vtime.Time(200 + int64(b(7)%8)*100),
		Cell:      int(b(8)) % 27,
	}
	if b(0)%2 == 1 {
		spec.ModelName = "qnet"
	}
	// Byte 9 bounds a static run's optimism (0 = unbounded).
	if w := b(9); w != 0 {
		spec.Optimism.Window = vtime.Time(50 + int64(w)%200)
	}
	// Byte 10 turns on the adaptive optimism controller (0 = static) with
	// its own initial window, whatever byte 9 says, and an aggressive tuning
	// — tiny period and sample floor so short fuzz runs actually move the
	// window.
	if a := b(10); a != 0 {
		spec.Optimism = core.OptimismConfig{
			Mode:      core.OptimismAdaptive,
			Window:    vtime.Time(40 + int64(a)%200),
			Min:       8,
			Max:       1 << 12,
			Period:    1 + int(a)%3,
			HighWater: 0.3,
			LowWater:  0.1,
			Factor:    2,
			MinSample: 8 + int64(a)%32,
		}
	}
	// Byte 11 selects the dispatcher width: 0 = a worker per LP, 1..3 that
	// many workers (the kernel clamps to the LP count), 4 = whatever the
	// kernel defaults to on this machine.
	if spec.Workers = int(b(11)) % 5; spec.Workers == 4 {
		spec.Workers = DefaultWidth
	}
	return spec
}

// Model builds the spec's simulation model.
func (s FuzzSpec) Model() *model.Model {
	if s.ModelName == "qnet" {
		return qnet.New(qnet.Config{
			Stations:     s.Objects,
			Jobs:         s.Objects * s.Tokens,
			ServiceMean:  s.MeanDelay,
			TransitDelay: 5,
			Locality:     s.Locality,
			LPs:          s.LPs,
			Seed:         s.Seed,
		})
	}
	return phold.New(phold.Config{
		Objects:         s.Objects,
		TokensPerObject: s.Tokens,
		MeanDelay:       s.MeanDelay,
		MinDelay:        1,
		Locality:        s.Locality,
		LPs:             s.LPs,
		Seed:            s.Seed,
	})
}

// Options returns the oracle options for the spec: the one selected matrix
// cell.
func (s FuzzSpec) Options() Options {
	return Options{
		Name:     s.ModelName,
		EndTime:  s.EndTime,
		Optimism: s.Optimism,
		Workers:  s.Workers,
		Cells:    Matrix()[s.Cell : s.Cell+1],
	}
}
