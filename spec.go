package gowarp

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"gowarp/internal/comm"
)

// This file parses the compact facet-spec strings used by command-line
// front ends (twsim's -balance and -codec flags): one string per facet,
// "mode[,key=value]...", so a whole controller configuration travels in a
// single flag instead of a family of them.

// ParseBalanceSpec parses a load-balance facet spec:
//
//	off                        static placement (the default)
//	dynamic                    on-line balancing, default controller tuning
//	dynamic,period=4,high=1.2,low=1.1,moves=2,min-sample=32
//
// Keys: period (GVT cycles between firings), high/low (dead-zone bounds on
// the imbalance metric), moves (max migrations per firing), min-sample
// (minimum events observed before acting).
func ParseBalanceSpec(spec string) (BalanceConfig, error) {
	var cfg BalanceConfig
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "", "off":
		if len(parts) > 1 {
			return cfg, fmt.Errorf("balance spec %q: parameters need mode dynamic", spec)
		}
		return cfg, nil
	case "dynamic":
		cfg.Mode = BalanceDynamic
	default:
		return cfg, fmt.Errorf("balance spec %q: unknown mode %q (off or dynamic)", spec, parts[0])
	}
	for _, p := range parts[1:] {
		key, val, err := splitSpecParam(spec, p)
		if err != nil {
			return cfg, err
		}
		switch key {
		case "period":
			cfg.Period, err = parseSpecInt(spec, key, val)
		case "high":
			cfg.HighWater, err = parseSpecFloat(spec, key, val)
		case "low":
			cfg.LowWater, err = parseSpecFloat(spec, key, val)
		case "moves":
			cfg.MaxMoves, err = parseSpecInt(spec, key, val)
		case "min-sample":
			var n int
			n, err = parseSpecInt(spec, key, val)
			cfg.MinSample = int64(n)
		default:
			return cfg, fmt.Errorf("balance spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// ParseCodecSpec parses a state-codec facet spec:
//
//	off                        cloned full checkpoints (the default)
//	lz                         full encodings, LZ-compressed
//	full[,lz]                  marshalled full checkpoints
//	delta[,lz]                 incremental (reversible delta) checkpoints
//	dynamic[,lz][,period=N][,low=F][,high=F]
//	                           on-line full<->delta controller
//
// Keys: period (saves per controller window), low/high (dead-zone bounds on
// the delta/full stored-bytes ratio). "lz" turns on compression of
// checkpoints, migration capsules and aggregated wire payloads.
func ParseCodecSpec(spec string) (CodecConfig, error) {
	var cfg CodecConfig
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "", "off":
		if len(parts) > 1 {
			return cfg, fmt.Errorf("codec spec %q: parameters need a codec mode", spec)
		}
		return cfg, nil
	case "lz":
		cfg.Mode, cfg.Compression = CodecFull, LZCompression
		if len(parts) > 1 {
			return cfg, fmt.Errorf("codec spec %q: parameters need an explicit mode", spec)
		}
		return cfg, nil
	case "full":
		cfg.Mode = CodecFull
	case "delta":
		cfg.Mode = CodecDelta
	case "dynamic":
		cfg.Mode = CodecDynamic
	default:
		return cfg, fmt.Errorf("codec spec %q: unknown mode %q (off, lz, full, delta or dynamic)", spec, parts[0])
	}
	for _, p := range parts[1:] {
		if p == "lz" {
			cfg.Compression = LZCompression
			continue
		}
		key, val, err := splitSpecParam(spec, p)
		if err != nil {
			return cfg, err
		}
		switch key {
		case "period":
			if cfg.Mode != CodecDynamic {
				return cfg, fmt.Errorf("codec spec %q: %s needs mode dynamic", spec, key)
			}
			cfg.Controller.Period, err = parseSpecInt(spec, key, val)
		case "low":
			if cfg.Mode != CodecDynamic {
				return cfg, fmt.Errorf("codec spec %q: %s needs mode dynamic", spec, key)
			}
			cfg.Controller.LowRatio, err = parseSpecFloat(spec, key, val)
		case "high":
			if cfg.Mode != CodecDynamic {
				return cfg, fmt.Errorf("codec spec %q: %s needs mode dynamic", spec, key)
			}
			cfg.Controller.HighRatio, err = parseSpecFloat(spec, key, val)
		default:
			return cfg, fmt.Errorf("codec spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// ParseOptSpec parses an optimism facet spec:
//
//	off                        unbounded optimism (the default)
//	static,window=2000         fixed bounded time window
//	adaptive                   on-line controller, default tuning
//	adaptive,window=2000,min=250,max=16000,period=2,high=0.5,low=0.2,factor=2,min-sample=64,rough=4
//
// Keys: window (initial window in virtual-time units past GVT; adaptive
// runs without one start unbounded), min/max (adaptive window clamps;
// relaxing at max opens optimism fully), period (GVT cycles between
// controller firings), high/low (dead-zone bounds on the windowed
// wasted-work ratio), factor (multiplicative step), min-sample (minimum
// committed events per observation window), rough (LVT-spread multiple of
// max that triggers a preemptive tighten while unbounded).
func ParseOptSpec(spec string) (OptimismConfig, error) {
	var cfg OptimismConfig
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "", "off":
		if len(parts) > 1 {
			return cfg, fmt.Errorf("optimism spec %q: parameters need mode static or adaptive", spec)
		}
		return cfg, nil
	case "static":
		cfg.Mode = OptimismStatic
	case "adaptive":
		cfg.Mode = OptimismAdaptive
	default:
		return cfg, fmt.Errorf("optimism spec %q: unknown mode %q (off, static or adaptive)", spec, parts[0])
	}
	for _, p := range parts[1:] {
		key, val, err := splitSpecParam(spec, p)
		if err != nil {
			return cfg, err
		}
		if cfg.Mode == OptimismStatic && key != "window" {
			return cfg, fmt.Errorf("optimism spec %q: %s needs mode adaptive", spec, key)
		}
		var n int
		switch key {
		case "window":
			n, err = parseSpecInt(spec, key, val)
			cfg.Window = VTime(n)
		case "min":
			n, err = parseSpecInt(spec, key, val)
			cfg.Min = VTime(n)
		case "max":
			n, err = parseSpecInt(spec, key, val)
			cfg.Max = VTime(n)
		case "period":
			cfg.Period, err = parseSpecInt(spec, key, val)
		case "high":
			cfg.HighWater, err = parseSpecFloat(spec, key, val)
		case "low":
			cfg.LowWater, err = parseSpecFloat(spec, key, val)
		case "factor":
			cfg.Factor, err = parseSpecFloat(spec, key, val)
		case "min-sample":
			n, err = parseSpecInt(spec, key, val)
			cfg.MinSample = int64(n)
		case "rough":
			cfg.RoughFactor, err = parseSpecFloat(spec, key, val)
		default:
			return cfg, fmt.Errorf("optimism spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return cfg, err
		}
	}
	if cfg.Mode == OptimismStatic && cfg.Window <= 0 {
		return cfg, fmt.Errorf("optimism spec %q: mode static needs window=N", spec)
	}
	return cfg, nil
}

// WorkerPerLP is the Config.Workers value that asks for one worker per hosted
// LP on any machine and any model: the kernel clamps a width above the hosted
// LP count down to it.
const WorkerPerLP = math.MaxInt32

// SchedSpec is a parsed -sched flag: how wide the dispatcher runs.
type SchedSpec struct {
	// Workers is the number of dispatcher workers, as in Config.Workers: 0
	// means min(hosted LPs, GOMAXPROCS, max(1, NumCPU / ranks on this host)):
	// a worker per hosted LP up to this rank's share of the machine's cores,
	// WorkerPerLP one per LP.
	Workers int
}

// ParseSchedSpec parses a scheduler spec:
//
//	pool (or nothing)          Config.Workers 0, the default: min(hosted LPs,
//	                           GOMAXPROCS, max(1, NumCPU / ranks on this
//	                           host)): a worker per hosted LP up to this
//	                           rank's share of the machine's cores
//	pool,workers=N             N workers
//	lp                         one worker per LP, however many cores there are
//
// All spell the one engine: workers each pulling their lowest-timestamp
// runnable LP from a local schedule queue. A width the machine's cores can
// run at once is what lets least-timestamp-first decide who runs next, and
// what scales to object counts — and LP counts — far beyond what a goroutine
// per LP handles. Worker counts above the LP count are clamped by the kernel.
func ParseSchedSpec(spec string) (SchedSpec, error) {
	var s SchedSpec
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "lp":
		if len(parts) > 1 {
			return s, fmt.Errorf("sched spec %q: parameters need mode pool", spec)
		}
		s.Workers = WorkerPerLP
		return s, nil
	case "", "pool":
	default:
		return s, fmt.Errorf("sched spec %q: unknown mode %q (lp or pool)", spec, parts[0])
	}
	for _, p := range parts[1:] {
		key, val, err := splitSpecParam(spec, p)
		if err != nil {
			return s, err
		}
		switch key {
		case "workers":
			s.Workers, err = parseSpecInt(spec, key, val)
		default:
			return s, fmt.Errorf("sched spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// TransportSpec is a parsed -transport flag: which substrate carries the
// physical messages, and (for tcp) this process's place in the rank fleet.
type TransportSpec struct {
	// Kind is "inproc" or "tcp".
	Kind string
	// Rank is this process's rank (tcp only).
	Rank int
	// Peers is the rank-ordered list of peer addresses, including this
	// process's own (tcp only).
	Peers []string
	// Listen, when set, overrides the address this rank binds (defaults to
	// Peers[Rank]; useful to bind 0.0.0.0 while peers dial a routable name).
	Listen string
	// Timeout, when positive, bounds the join handshake.
	Timeout time.Duration
}

// ParseTransportSpec parses a transport spec:
//
//	inproc                     every LP hosted by this process's workers (default)
//	tcp,rank=N,peers=HOST:PORT;HOST:PORT;...[,listen=ADDR][,timeout=DUR]
//
// peers is the rank-ordered address list (";"-separated, one per rank,
// including this process's own at position rank); every rank of one logical
// run must be started with the same peers list and its own rank. listen
// overrides the bound address (default peers[rank]); timeout bounds the join
// handshake (default 10s).
func ParseTransportSpec(spec string) (TransportSpec, error) {
	s := TransportSpec{Kind: "inproc", Rank: -1}
	parts := strings.Split(spec, ",")
	switch parts[0] {
	case "", "inproc":
		if len(parts) > 1 {
			return s, fmt.Errorf("transport spec %q: parameters need mode tcp", spec)
		}
		s.Kind = "inproc"
		return s, nil
	case "tcp":
		s.Kind = "tcp"
	default:
		return s, fmt.Errorf("transport spec %q: unknown mode %q (inproc or tcp)", spec, parts[0])
	}
	for _, p := range parts[1:] {
		key, val, err := splitSpecParam(spec, p)
		if err != nil {
			return s, err
		}
		switch key {
		case "rank":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return s, fmt.Errorf("transport spec %q: rank wants a non-negative integer, got %q", spec, val)
			}
			s.Rank = n
		case "peers":
			for _, a := range strings.Split(val, ";") {
				if a == "" {
					return s, fmt.Errorf("transport spec %q: empty peer address", spec)
				}
				s.Peers = append(s.Peers, a)
			}
		case "listen":
			s.Listen = val
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return s, fmt.Errorf("transport spec %q: timeout wants a positive duration, got %q", spec, val)
			}
			s.Timeout = d
		default:
			return s, fmt.Errorf("transport spec %q: unknown key %q", spec, key)
		}
	}
	if s.Rank < 0 {
		return s, fmt.Errorf("transport spec %q: mode tcp needs rank=N", spec)
	}
	if len(s.Peers) == 0 {
		return s, fmt.Errorf("transport spec %q: mode tcp needs peers=ADDR;ADDR;...", spec)
	}
	if s.Rank >= len(s.Peers) {
		return s, fmt.Errorf("transport spec %q: rank %d out of range for %d peers", spec, s.Rank, len(s.Peers))
	}
	return s, nil
}

// NewTransport builds the TCP transport a tcp spec describes for a
// numLPs-process model, carrying the run's cost model into the substrate. An
// inproc spec has none to build: leave Config.Transport nil.
func (s TransportSpec) NewTransport(numLPs int, cost CostModel) (Transport, error) {
	if s.Kind != "tcp" {
		return nil, fmt.Errorf("transport spec: kind %q builds no transport", s.Kind)
	}
	cfg := TCPTransportConfig{
		Rank:        s.Rank,
		Addrs:       s.Peers,
		NumLPs:      numLPs,
		Cost:        cost,
		DialTimeout: s.Timeout,
	}
	if s.Listen != "" && s.Listen != s.Peers[s.Rank] {
		ln, err := net.Listen("tcp", s.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport listen %q: %w", s.Listen, err)
		}
		cfg.Listener = ln
	}
	return comm.NewTCP(cfg)
}

func splitSpecParam(spec, p string) (key, val string, err error) {
	key, val, ok := strings.Cut(p, "=")
	if !ok || key == "" || val == "" {
		return "", "", fmt.Errorf("spec %q: malformed parameter %q (want key=value)", spec, p)
	}
	return key, val, nil
}

func parseSpecInt(spec, key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("spec %q: %s wants a positive integer, got %q", spec, key, val)
	}
	return n, nil
}

func parseSpecFloat(spec, key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("spec %q: %s wants a positive number, got %q", spec, key, val)
	}
	return f, nil
}
