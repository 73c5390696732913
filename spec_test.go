package gowarp

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseBalanceSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want BalanceConfig
	}{
		{"off", BalanceConfig{}},
		{"", BalanceConfig{}},
		{"dynamic", BalanceConfig{Mode: BalanceDynamic}},
		{
			"dynamic,period=4,high=1.2,low=1.1,moves=2,min-sample=32",
			BalanceConfig{Mode: BalanceDynamic, Period: 4, HighWater: 1.2, LowWater: 1.1, MaxMoves: 2, MinSample: 32},
		},
	} {
		got, err := ParseBalanceSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseBalanceSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBalanceSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseBalanceSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"off,period=4",
		"dynamic,period",
		"dynamic,period=0",
		"dynamic,high=-1",
		"dynamic,frobnicate=2",
	} {
		if _, err := ParseBalanceSpec(spec); err == nil {
			t.Errorf("ParseBalanceSpec(%q): want error, got nil", spec)
		}
	}
	// A bound that is not a finite number is refused, and the error names
	// its key.
	for spec, key := range map[string]string{
		"dynamic,high=NaN,low=1.1": "high",
		"dynamic,low=Inf":          "low",
		"dynamic,high=+Inf":        "high",
		"dynamic,low=-Inf":         "low",
	} {
		if _, err := ParseBalanceSpec(spec); err == nil || !strings.Contains(err.Error(), " "+key+" wants") {
			t.Errorf("ParseBalanceSpec(%q): err %v, want %s named", spec, err, key)
		}
	}
}

func TestParseCodecSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want CodecConfig
	}{
		{"off", CodecConfig{}},
		{"", CodecConfig{}},
		{"lz", CodecConfig{Mode: CodecFull, Compression: LZCompression}},
		{"full", CodecConfig{Mode: CodecFull}},
		{"full,lz", CodecConfig{Mode: CodecFull, Compression: LZCompression}},
		{"delta", CodecConfig{Mode: CodecDelta}},
		{"delta,lz", CodecConfig{Mode: CodecDelta, Compression: LZCompression}},
		{"dynamic", CodecConfig{Mode: CodecDynamic}},
		{"dynamic,lz", CodecConfig{Mode: CodecDynamic, Compression: LZCompression}},
	} {
		got, err := ParseCodecSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseCodecSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCodecSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseCodecSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"off,lz",
		"lz,period=8",
		"full,period=8",
		"delta,period=8",
		"dynamic,period=nope",
		"dynamic,low=0",
		"dynamic,what=1",
	} {
		if _, err := ParseCodecSpec(spec); err == nil {
			t.Errorf("ParseCodecSpec(%q): want error, got nil", spec)
		}
	}
	// The anchor cadence is gone: its key is unknown in every mode, and the
	// error says which key.
	for _, spec := range []string{"delta,full-every=8", "dynamic,lz,full-every=4", "full,full-every=4"} {
		if _, err := ParseCodecSpec(spec); err == nil || !strings.Contains(err.Error(), `unknown key "full-every"`) {
			t.Errorf("ParseCodecSpec(%q): err %v, want the unknown key named", spec, err)
		}
	}
}

func TestParseOptSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want OptimismConfig
	}{
		{"off", OptimismConfig{}},
		{"", OptimismConfig{}},
		{"static,window=2000", OptimismConfig{Mode: OptimismStatic, Window: 2000}},
		{"adaptive", OptimismConfig{Mode: OptimismAdaptive}},
		{"adaptive,window=2000", OptimismConfig{Mode: OptimismAdaptive, Window: 2000}},
		{
			"adaptive,window=2000,min=250,max=16000,period=2,high=0.5,low=0.2,min-sample=64",
			OptimismConfig{
				Mode: OptimismAdaptive, Window: 2000, Min: 250, Max: 16000, Period: 2,
				HighWater: 0.5, LowWater: 0.2, MinSample: 64,
			},
		},
	} {
		got, err := ParseOptSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseOptSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseOptSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseOptSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"off,window=100",
		"static",
		"static,window=0",
		"static,min=8",
		"adaptive,window=0",
		"adaptive,window",
		"adaptive,high=-1",
		"adaptive,min-sample=nope",
		"adaptive,frobnicate=2",
	} {
		if _, err := ParseOptSpec(spec); err == nil {
			t.Errorf("ParseOptSpec(%q): want error, got nil", spec)
		}
	}
	for spec, key := range map[string]string{
		"adaptive,high=NaN":         "high",
		"adaptive,low=nan":          "low",
		"adaptive,high=Inf":         "high",
		"adaptive,low=0.2,high=inf": "high",
	} {
		if _, err := ParseOptSpec(spec); err == nil || !strings.Contains(err.Error(), " "+key+" wants") {
			t.Errorf("ParseOptSpec(%q): err %v, want %s named", spec, err, key)
		}
	}
}

func TestParseTransportSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want TransportSpec
	}{
		{"", TransportSpec{Kind: "inproc", Rank: -1}},
		{"inproc", TransportSpec{Kind: "inproc", Rank: -1}},
		{
			"tcp,rank=0,peers=localhost:9001;localhost:9002",
			TransportSpec{Kind: "tcp", Rank: 0, Peers: []string{"localhost:9001", "localhost:9002"}},
		},
		{
			"tcp,rank=1,peers=a:1;b:2;c:3,listen=0.0.0.0:2,timeout=30s",
			TransportSpec{
				Kind: "tcp", Rank: 1, Peers: []string{"a:1", "b:2", "c:3"},
				Listen: "0.0.0.0:2", Timeout: 30 * time.Second,
			},
		},
	} {
		got, err := ParseTransportSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseTransportSpec(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseTransportSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	s, _ := ParseTransportSpec("inproc")
	if tr, err := s.NewTransport(2, CostModel{}); err == nil {
		t.Errorf("an inproc spec built a transport, %T", tr)
	}
}

func TestParseTransportSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"inproc,rank=0",
		"tcp",
		"tcp,rank=0",
		"tcp,peers=a:1;b:2",
		"tcp,rank=2,peers=a:1;b:2",
		"tcp,rank=-1,peers=a:1;b:2",
		"tcp,rank=x,peers=a:1;b:2",
		"tcp,rank=0,peers=a:1;;b:2",
		"tcp,rank=0,peers=a:1;b:2,timeout=fast",
		"tcp,rank=0,peers=a:1;b:2,timeout=-1s",
		"tcp,rank=0,peers=a:1;b:2,frobnicate=2",
		"tcp,rank",
	} {
		if _, err := ParseTransportSpec(spec); err == nil {
			t.Errorf("ParseTransportSpec(%q): want error, got nil", spec)
		}
	}
}

func TestParseSchedSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want SchedSpec
	}{
		// The library's default width (Config.Workers 0), spelled two ways.
		{"", SchedSpec{}},
		{"pool", SchedSpec{}},
		// A worker per LP is an explicit width the kernel clamps.
		{"lp", SchedSpec{Workers: WorkerPerLP}},
		{"pool,workers=8", SchedSpec{Workers: 8}},
		{"pool,workers=1", SchedSpec{Workers: 1}},
	} {
		got, err := ParseSchedSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSchedSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSchedSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseSchedSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"lp,workers=2",
		"pool,workers=0",
		"pool,workers=-2",
		"pool,workers",
		"pool,frobnicate=2",
	} {
		if _, err := ParseSchedSpec(spec); err == nil {
			t.Errorf("ParseSchedSpec(%q): want error, got nil", spec)
		}
	}
}

func TestConfigBuilder(t *testing.T) {
	tr := NewTracer(16)
	cfg := NewConfig(100_000).
		WithCheckpoint(DynamicCheckpointing, 4).
		WithCancellation(DynamicCancellation).
		WithAggregation(SAAW, 50*time.Microsecond).
		WithCodec(CodecDynamic, LZCompression).
		WithOptimism(OptimismAdaptive, 2000).
		WithWorkers(2).
		WithTracer(tr).
		Build()

	if cfg.EndTime != 100_000 {
		t.Errorf("EndTime = %v", cfg.EndTime)
	}
	if cfg.Checkpoint.Mode != DynamicCheckpointing || cfg.Checkpoint.Interval != 4 {
		t.Errorf("Checkpoint = %+v", cfg.Checkpoint)
	}
	if cfg.Cancellation.Mode != DynamicCancellation {
		t.Errorf("Cancellation = %+v", cfg.Cancellation)
	}
	if cfg.Aggregation.Policy != SAAW || cfg.Aggregation.Window != 50*time.Microsecond {
		t.Errorf("Aggregation = %+v", cfg.Aggregation)
	}
	if cfg.Codec.Mode != CodecDynamic || cfg.Codec.Compression != LZCompression {
		t.Errorf("Codec = %+v", cfg.Codec)
	}
	if cfg.Optimism.Mode != OptimismAdaptive || cfg.Optimism.Window != 2000 {
		t.Errorf("Optimism = %+v", cfg.Optimism)
	}
	if cfg.Tracer != tr {
		t.Errorf("tracer not threaded")
	}
	if cfg.Workers != 2 {
		t.Errorf("Workers = %d, want 2", cfg.Workers)
	}

	// The builder's config must actually run.
	m := NewPHOLD(PHOLDConfig{Objects: 8, LPs: 2, StatePadding: 64})
	res, err := Run(m, NewConfig(2000).WithCodec(CodecDelta, LZCompression).Build())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.EventsCommitted == 0 {
		t.Fatalf("no events committed")
	}
	if res.Stats.CheckpointBytes == 0 || res.Stats.CheckpointRawBytes == 0 {
		t.Fatalf("codec bytes not accounted: %+v", res.Stats)
	}
	if res.Stats.CheckpointBytes >= res.Stats.CheckpointRawBytes {
		t.Errorf("delta+lz did not shrink checkpoints: stored %d raw %d",
			res.Stats.CheckpointBytes, res.Stats.CheckpointRawBytes)
	}
	if len(res.FinalPartition) != 8 {
		t.Errorf("FinalPartition = %v", res.FinalPartition)
	}
}
