package gowarp

import (
	"time"
)

// ConfigBuilder assembles a Config facet by facet. Every facet follows the
// same shape — a Mode selecting the policy, the policy's static parameters,
// and (for adaptive modes) a controller block — so the builder reads as six
// parallel WithX calls plus kernel-level knobs:
//
//	cfg := gowarp.NewConfig(100_000).
//		WithCheckpoint(gowarp.DynamicCheckpointing, 4).
//		WithCancellation(gowarp.DynamicCancellation).
//		WithAggregation(gowarp.SAAW, 50*time.Microsecond).
//		WithBalance(gowarp.BalanceDynamic).
//		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
//		WithOptimism(gowarp.OptimismAdaptive, 2000).
//		Build()
//
// Unset facets keep the DefaultConfig baseline (periodic check-pointing,
// aggressive cancellation, no aggregation, static placement, codec off,
// static unbounded optimism).
// For parameters beyond the common ones, the WithXConfig variants accept the
// facet's full config struct.
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

// WithCheckpointConfig sets the full check-pointing facet config.
func (b *ConfigBuilder) WithCheckpointConfig(c CheckpointConfig) *ConfigBuilder {
	b.cfg.Checkpoint = c
	return b
}

// WithCancellation selects the cancellation strategy.
func (b *ConfigBuilder) WithCancellation(mode CancellationMode) *ConfigBuilder {
	b.cfg.Cancellation = CancellationConfig{Mode: mode}
	return b
}

// WithCancellationConfig sets the full cancellation facet config.
func (b *ConfigBuilder) WithCancellationConfig(c CancellationConfig) *ConfigBuilder {
	b.cfg.Cancellation = c
	return b
}

// WithAggregation selects the aggregation policy; window is the fixed (FAW)
// or initial (SAAW) aggregation window, 0 keeps the policy default.
func (b *ConfigBuilder) WithAggregation(policy AggregationPolicy, window time.Duration) *ConfigBuilder {
	b.cfg.Aggregation = AggregationConfig{Policy: policy, Window: window}
	return b
}

// WithAggregationConfig sets the full aggregation facet config.
func (b *ConfigBuilder) WithAggregationConfig(c AggregationConfig) *ConfigBuilder {
	b.cfg.Aggregation = c
	return b
}

// WithBalance selects the load-balance mode with default controller tuning.
func (b *ConfigBuilder) WithBalance(mode BalanceMode) *ConfigBuilder {
	b.cfg.Balance = BalanceConfig{Mode: mode}
	return b
}

// WithBalanceConfig sets the full load-balance facet config.
func (b *ConfigBuilder) WithBalanceConfig(c BalanceConfig) *ConfigBuilder {
	b.cfg.Balance = c
	return b
}

// WithCodec selects the state-codec mode and compression with default
// controller tuning.
func (b *ConfigBuilder) WithCodec(mode CodecMode, comp CodecCompression) *ConfigBuilder {
	b.cfg.Codec = CodecConfig{Mode: mode, Compression: comp}
	return b
}

// WithCodecConfig sets the full state-codec facet config.
func (b *ConfigBuilder) WithCodecConfig(c CodecConfig) *ConfigBuilder {
	b.cfg.Codec = c
	return b
}

// WithCostModel sets the simulated communication cost model.
func (b *ConfigBuilder) WithCostModel(cm CostModel) *ConfigBuilder {
	b.cfg.Cost = cm
	return b
}

// WithGVTPeriod sets the wall-clock interval between GVT computations.
func (b *ConfigBuilder) WithGVTPeriod(d time.Duration) *ConfigBuilder {
	b.cfg.GVTPeriod = d
	return b
}

// WithOptimism selects the optimism mode; window is the fixed
// (OptimismStatic) or initial (OptimismAdaptive) window past GVT, 0 =
// unbounded.
func (b *ConfigBuilder) WithOptimism(mode OptimismMode, window VTime) *ConfigBuilder {
	b.cfg.Optimism = OptimismConfig{Mode: mode, Window: window}
	return b
}

// WithOptimismConfig sets the full optimism facet config.
func (b *ConfigBuilder) WithOptimismConfig(c OptimismConfig) *ConfigBuilder {
	b.cfg.Optimism = c
	return b
}

// WithEventCost sets the CPU burn charged per event execution.
func (b *ConfigBuilder) WithEventCost(d time.Duration) *ConfigBuilder {
	b.cfg.EventCost = d
	return b
}

// WithTracer attaches a structured trace recorder.
func (b *ConfigBuilder) WithTracer(t *Tracer) *ConfigBuilder {
	b.cfg.Tracer = t
	return b
}

// WithMetrics attaches a live metrics registry.
func (b *ConfigBuilder) WithMetrics(reg *MetricsRegistry) *ConfigBuilder {
	b.cfg.Metrics = reg
	return b
}

// WithAudit attaches a runtime invariant auditor.
func (b *ConfigBuilder) WithAudit(a *Auditor) *ConfigBuilder {
	b.cfg.Audit = a
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
