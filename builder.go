package gowarp

import (
	"time"
)

// ConfigBuilder assembles a Config facet by facet: five facets by their mode,
// with the one parameter each most often takes, and the tracer, transport and
// width:
//
//	cfg := gowarp.NewConfig(100_000).
//		WithCheckpoint(gowarp.DynamicCheckpointing, 4).
//		WithCancellation(gowarp.DynamicCancellation).
//		WithAggregation(gowarp.SAAW, 50*time.Microsecond).
//		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
//		WithOptimism(gowarp.OptimismAdaptive, 2000).
//		Build()
//
// Unset facets keep the DefaultConfig baseline (periodic check-pointing,
// aggressive cancellation, no aggregation, static placement, codec off,
// static unbounded optimism). Everything else — a facet's full block, the
// load balancer, the cost model, the GVT period, the event cost, the metrics
// registry and the auditor — is a field of the Config that Build returns:
// set it there.
type ConfigBuilder struct {
	cfg Config
}

// NewConfig starts a builder from DefaultConfig(endTime).
func NewConfig(endTime VTime) *ConfigBuilder {
	return &ConfigBuilder{cfg: DefaultConfig(endTime)}
}

// WithCheckpoint selects the check-pointing mode; interval is the fixed χ
// (PeriodicCheckpointing) or the initial χ (DynamicCheckpointing), 0 keeps
// the default.
func (b *ConfigBuilder) WithCheckpoint(mode CheckpointMode, interval int) *ConfigBuilder {
	b.cfg.Checkpoint = CheckpointConfig{Mode: mode, Interval: interval}
	return b
}

// WithCancellation selects the cancellation strategy.
func (b *ConfigBuilder) WithCancellation(mode CancellationMode) *ConfigBuilder {
	b.cfg.Cancellation = CancellationConfig{Mode: mode}
	return b
}

// WithAggregation selects the aggregation policy; window is the fixed (FAW)
// or initial (SAAW) aggregation window, 0 keeps the policy default.
func (b *ConfigBuilder) WithAggregation(policy AggregationPolicy, window time.Duration) *ConfigBuilder {
	b.cfg.Aggregation = AggregationConfig{Policy: policy, Window: window}
	return b
}

// WithCodec selects the state-codec mode and compression.
func (b *ConfigBuilder) WithCodec(mode CodecMode, comp CodecCompression) *ConfigBuilder {
	b.cfg.Codec = CodecConfig{Mode: mode, Compression: comp}
	return b
}

// WithOptimism selects the optimism mode; window is the fixed
// (OptimismStatic) or initial (OptimismAdaptive) window past GVT, 0 =
// unbounded.
func (b *ConfigBuilder) WithOptimism(mode OptimismMode, window VTime) *ConfigBuilder {
	b.cfg.Optimism = OptimismConfig{Mode: mode, Window: window}
	return b
}

// WithTracer attaches a structured trace recorder.
func (b *ConfigBuilder) WithTracer(t *Tracer) *ConfigBuilder {
	b.cfg.Tracer = t
	return b
}

// WithTransport sets the communication transport. With nil (the default)
// every LP lives in this process; a TCP transport makes this process one rank
// of a multi-process run.
func (b *ConfigBuilder) WithTransport(t Transport) *ConfigBuilder {
	b.cfg.Transport = t
	return b
}

// WithWorkers sets the dispatcher's width: n workers with
// least-timestamp-first schedule queues share the LPs this process hosts.
// n = 0 (the default) is min(hosted LPs, GOMAXPROCS, max(1, NumCPU / ranks on
// this host)): a worker per hosted LP up to this rank's share of the machine's
// cores; n above the LP count is clamped, so WorkerPerLP (or any n that large)
// is one worker per LP whatever the machine.
func (b *ConfigBuilder) WithWorkers(n int) *ConfigBuilder {
	b.cfg.Workers = n
	return b
}

// Build returns the assembled configuration.
func (b *ConfigBuilder) Build() Config { return b.cfg }
