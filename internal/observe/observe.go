// Package observe is the kernel's observation layer: the half of the
// paper's <O,I,S,T,P> control tuple that produces the sampled outputs O.
// It turns the raw per-LP trace and counter streams into the quantities a
// Time Warp operator (or a future optimism controller) actually steers by:
//
//   - virtual-time roughness — the spread of local virtual times across
//     LPs, sampled on a wall-clock period (Korniss et al. show this
//     "surface width" governs optimistic scalability);
//   - rollback-depth histograms and wasted-work ratios;
//   - causal rollback attribution — linking each anti-message-induced
//     rollback to the rollback that emitted the anti-message, so cascades
//     form trees whose cost can be aggregated (see cascade.go).
//
// The Sampler is deliberately non-perturbing: LPs publish their LVTs into
// per-LP atomic slots (one store each) and add what each GVT application
// committed and rolled back to two run totals, and a dedicated goroutine reads
// them on a timer, records roughness samples into the tracer's system ring,
// and mirrors live gauges into the metrics registry. It observes; no
// controller reads its totals — the kernel's controllers read the LPs'
// progress records. Nothing on the LP side
// blocks, allocates, or changes simulation order; the differential oracle
// (cmd/twcheck's observation leg) verifies that runs with observation on
// still match the sequential reference bit for bit.
//
// Everything is nil-safe: every method on a nil *Sampler is a no-op, so
// the disabled path costs one pointer comparison at each hook site.
//
// The package owns no format. A Report is derived from events and a run
// record already in memory: telemetry.ReadJSONL reads a trace file,
// stats.ReadRunRecord an artifact.
package observe

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
)

// DepthBounds are the rollback-depth histogram bucket upper bounds: bucket
// i counts rollback episodes that undid at most DepthBounds[i] events; one
// extra overflow bucket follows the last bound.
var DepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// unpublished marks an LVT slot its LP has not written yet. It equals
// vtime.NegInf, which no executed event can carry.
const unpublished = math.MinInt64

// DefaultPeriod is the sampling period used when NewSampler is given a
// non-positive one: fine enough for a useful timeline, coarse enough that
// the sampler goroutine is invisible in profiles.
const DefaultPeriod = time.Millisecond

// Sampler is the run-scoped observation aggregator. Construct it with
// NewSampler, hand it to the kernel via the run configuration; the kernel
// binds it at run start, LP goroutines publish into its atomic slots, and
// its goroutine samples the LVT vector each period. After the run, Summary
// and DepthHist expose the aggregates for the run artifact.
type Sampler struct {
	period time.Duration

	// Written by LP goroutines, read by the sampling goroutine. lvt holds
	// each LP's last-executed receive time (unpublished until its first
	// event); committed and rolled are the run's totals as of the LPs' last
	// GVT applications; gvt is the last applied estimate.
	lvt       []atomic.Int64
	committed atomic.Int64
	rolled    atomic.Int64
	gvt       atomic.Int64

	// depth is the rollback-depth histogram (len(DepthBounds)+1, overflow
	// last); depthSum accumulates total events undone.
	depth    []atomic.Int64
	depthSum atomic.Int64

	// tr is the tracer's system ring (nil when tracing is off).
	tr *telemetry.LPTrace

	// Live gauges mirrored into the metrics registry (nil when metrics are
	// off; telemetry metrics are nil-safe).
	mWidth *telemetry.Metric
	mStd   *telemetry.Metric
	mLag   *telemetry.Metric
	mHist  *telemetry.HistMetric

	// Summary accumulators, written only by sample() (the sampling
	// goroutine, plus one final call from Stop after it has exited).
	samples  int64
	sumWidth float64
	maxWidth int64
	sumStd   float64

	// histScratch is the reused mirror buffer for SetAll.
	histScratch []uint64

	mu      sync.Mutex
	running bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler returns a sampler ticking every period (DefaultPeriod when
// period <= 0). Hand it to the kernel via Config.Observe.
func NewSampler(period time.Duration) *Sampler {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Sampler{period: period}
}

// Period returns the wall-clock sampling period.
func (s *Sampler) Period() time.Duration {
	if s == nil {
		return 0
	}
	return s.period
}

// Bind sizes the sampler for numLPs logical processes and attaches the
// tracer's system ring (nil when tracing is off). The kernel calls it at
// run start; rebinding discards previous observations. Nil-safe.
func (s *Sampler) Bind(numLPs int, tr *telemetry.LPTrace) {
	if s == nil {
		return
	}
	s.lvt = make([]atomic.Int64, numLPs)
	for i := range s.lvt {
		s.lvt[i].Store(unpublished)
	}
	s.committed.Store(0)
	s.rolled.Store(0)
	s.gvt.Store(unpublished)
	s.depth = make([]atomic.Int64, len(DepthBounds)+1)
	s.depthSum.Store(0)
	s.tr = tr
	s.samples, s.sumWidth, s.maxWidth, s.sumStd = 0, 0, 0, 0
	s.histScratch = make([]uint64, len(DepthBounds)+1)
	s.mWidth, s.mStd, s.mLag, s.mHist = nil, nil, nil, nil
}

// BindMetrics registers the sampler's live series in reg: the global LVT
// width and standard deviation, the per-LP GVT lag, and the rollback-depth
// histogram. Call after Bind (the kernel binds the registry for the run
// first, which clears it). Nil-safe in both arguments.
func (s *Sampler) BindMetrics(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	bounds := make([]float64, len(DepthBounds))
	for i, b := range DepthBounds {
		bounds[i] = float64(b)
	}
	s.mWidth = reg.Gauge("gowarp_lvt_width", "Spread (max-min) of local virtual times across LPs at the last roughness sample.", false)
	s.mStd = reg.Gauge("gowarp_lvt_stddev", "Standard deviation of local virtual times across LPs at the last roughness sample.", false)
	s.mLag = reg.Gauge("gowarp_lvt_lag", "This LP's local virtual time minus the last applied GVT (virtual-time units).", true)
	s.mHist = reg.Histogram("gowarp_rollback_depth", "Events undone per rollback episode.", bounds)
}

// PublishLVT stores LP lp's current local virtual time. Called by the LP
// goroutine after each event execution; one atomic store. Nil-safe.
func (s *Sampler) PublishLVT(lp int, t int64) {
	if s == nil || lp < 0 || lp >= len(s.lvt) {
		return
	}
	s.lvt[lp].Store(t)
}

// PublishGVT stores the last applied GVT estimate. Nil-safe.
func (s *Sampler) PublishGVT(g int64) {
	if s == nil {
		return
	}
	s.gvt.Store(g)
}

// AddProgress adds what an LP committed and rolled back since its previous
// GVT application to the run totals; called at each GVT application. Nil-safe.
func (s *Sampler) AddProgress(committed, rolled int64) {
	if s == nil {
		return
	}
	s.committed.Add(committed)
	s.rolled.Add(rolled)
}

// RecordRollback adds one rollback episode of the given depth (events
// undone) to the histogram. Called from the rollback path; two atomic adds,
// no allocation. Nil-safe.
func (s *Sampler) RecordRollback(depth int64) {
	if s == nil || s.depth == nil {
		return
	}
	i := 0
	for i < len(DepthBounds) && depth > DepthBounds[i] {
		i++
	}
	s.depth[i].Add(1)
	s.depthSum.Add(depth)
}

// LVTSpread returns the current spread (max − min) over the published local
// virtual times and whether any LP has published one yet — the roughness
// "surface width" at this instant, without waiting for the sampling
// goroutine's period. Atomic loads only, no allocation. Nil-safe.
func (s *Sampler) LVTSpread() (int64, bool) {
	if s == nil {
		return 0, false
	}
	minLVT, maxLVT := int64(math.MaxInt64), int64(math.MinInt64)
	n := 0
	for i := range s.lvt {
		v := s.lvt[i].Load()
		if v == unpublished || v == math.MaxInt64 {
			continue
		}
		if v < minLVT {
			minLVT = v
		}
		if v > maxLVT {
			maxLVT = v
		}
		n++
	}
	if n == 0 {
		return 0, false
	}
	return maxLVT - minLVT, true
}

// Start launches the sampling goroutine. The kernel calls it once the LPs
// are wired; Stop must be called before reading aggregates. Nil-safe, and
// a no-op when unbound or already running.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.lvt == nil {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sample()
		}
	}
}

// Stop halts the sampling goroutine and takes one final sample, so even a
// run shorter than the period gets a timeline entry. Idempotent; nil-safe.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	close(s.stop)
	<-s.done
	s.sample()
}

// sample reads the atomic slots, derives the roughness quantities, records
// a trace event and refreshes the live gauges. Runs on the sampling
// goroutine (or from Stop, strictly after that goroutine exited).
func (s *Sampler) sample() {
	minLVT, maxLVT := int64(math.MaxInt64), int64(math.MinInt64)
	var n int
	var sum, sumsq float64
	laggard := int32(-1)
	for i := range s.lvt {
		v := s.lvt[i].Load()
		if v == unpublished || v == math.MaxInt64 {
			continue
		}
		if v < minLVT {
			minLVT, laggard = v, int32(i)
		}
		if v > maxLVT {
			maxLVT = v
		}
		n++
		f := float64(v)
		sum += f
		sumsq += f * f
	}
	if n == 0 {
		return // nothing executed yet
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0 // float rounding
	}
	std := math.Sqrt(variance)
	width := maxLVT - minLVT

	comm, roll := s.committed.Load(), s.rolled.Load()
	var wastedPermille int64
	if comm > 0 {
		wastedPermille = roll * 1000 / comm
	}

	gvt := s.gvt.Load()
	s.tr.Roughness(gvt, minLVT, maxLVT, int64(mean), int64(std), laggard, wastedPermille)

	s.samples++
	s.sumWidth += float64(width)
	s.sumStd += std
	if width > s.maxWidth {
		s.maxWidth = width
	}

	s.mWidth.Set(0, float64(width))
	s.mStd.Set(0, std)
	if gvt != unpublished && gvt != math.MaxInt64 {
		for i := range s.lvt {
			v := s.lvt[i].Load()
			if v == unpublished || v == math.MaxInt64 {
				continue
			}
			s.mLag.Set(i, float64(v-gvt))
		}
	}
	if s.mHist != nil {
		for i := range s.depth {
			s.histScratch[i] = uint64(s.depth[i].Load())
		}
		s.mHist.SetAll(s.histScratch, float64(s.depthSum.Load()))
	}
}

// Summary returns the roughness aggregates, or nil when no samples were
// taken. Call after Stop.
func (s *Sampler) Summary() *stats.RoughnessSummary {
	if s == nil || s.samples == 0 {
		return nil
	}
	return &stats.RoughnessSummary{
		Samples:    s.samples,
		MeanWidth:  s.sumWidth / float64(s.samples),
		MaxWidth:   s.maxWidth,
		MeanStdDev: s.sumStd / float64(s.samples),
	}
}

// DepthHist returns the rollback-depth histogram counts (DepthBounds
// buckets plus overflow), or nil when no rollbacks were recorded. Call
// after Stop.
func (s *Sampler) DepthHist() []int64 {
	if s == nil || s.depth == nil {
		return nil
	}
	out := make([]int64, len(s.depth))
	var total int64
	for i := range s.depth {
		out[i] = s.depth[i].Load()
		total += out[i]
	}
	if total == 0 {
		return nil
	}
	return out
}
