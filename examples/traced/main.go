// Traced example: a fully adaptive PHOLD run with the telemetry layer on —
// structured kernel tracing and the live metrics endpoint, side by side. It
// writes the same trace in both export formats (JSONL for grep/jq, Chrome
// trace_event for chrome://tracing or Perfetto), scrapes its own /metrics
// endpoint once mid-run for the progress and controller gauges, and prints a
// breakdown of the recorded events.
//
// Run:
//
//	go run ./examples/traced
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"gowarp"
	"gowarp/metricshttp"
)

func main() {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects:         32,
		TokensPerObject: 4,
		MeanDelay:       20,
		Locality:        0.5,
		LPs:             4,
		Seed:            99,
		StatePadding:    16 << 10,
	})

	// Telemetry: a per-LP trace ring plus a live metrics registry served over
	// HTTP for the duration of the run.
	tracer := gowarp.NewTracer(0)
	reg := gowarp.NewMetricsRegistry()

	cfg := gowarp.NewConfig(60_000).
		WithOptimism(gowarp.OptimismStatic, 1000).
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 10*time.Millisecond).
		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
		WithTracer(tracer).
		Build()
	cfg.Cost = gowarp.CostModel{PerMessage: 60 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	cfg.EventCost = 5 * time.Microsecond
	cfg.Metrics = reg
	srv, err := metricshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("metrics live at http://%s/metrics during the run\n\n", srv.Addr())

	// Scrape our own endpoint once while the kernel is running, the way an
	// external Prometheus would, a few seconds in so that the controllers have
	// had time to move off their starting points.
	scraped := make(chan string, 1)
	go func() {
		time.Sleep(3 * time.Second)
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			scraped <- "scrape failed: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		scraped <- string(body)
	}()

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d committed events in %s (%.0f ev/s), efficiency %.3f\n\n",
		m.Name, res.Stats.EventsCommitted, res.Elapsed.Round(time.Millisecond),
		res.EventRate(), res.Stats.Efficiency())

	// What did the kernel record? Break the merged trace down by kind.
	events := tracer.Events()
	byKind := map[string]int{}
	for _, ev := range events {
		byKind[ev.Kind.String()]++
	}
	fmt.Printf("trace: %d events (%d overwritten in the rings)\n", len(events), tracer.Dropped())
	for _, k := range []string{"rollback", "checkpoint_adjust", "strategy_switch", "gvt", "flush", "window_adjust", "codec_switch"} {
		if n := byKind[k]; n > 0 {
			fmt.Printf("  %-18s %6d\n", k, n)
		}
	}
	fmt.Println()

	// Export both formats. The Chrome file loads directly in chrome://tracing
	// or https://ui.perfetto.dev; the JSONL file is one event per line.
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{"traced.jsonl", tracer.WriteJSONL},
		{"traced.chrome.json", tracer.WriteChrome},
	} {
		f, err := os.Create(out.path)
		if err != nil {
			log.Fatal(err)
		}
		if err := out.write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", out.path)
	}
	fmt.Println()

	// The mid-run scrape: what an external monitor would have seen of each
	// LP's progress and controllers while the run was going.
	fmt.Println("mid-run /metrics scrape (progress and controller gauges):")
	shown := map[string]bool{
		"gowarp_gvt": true, "gowarp_events_committed_total": true, "gowarp_rollbacks_total": true,
		"gowarp_mean_checkpoint_interval": true, "gowarp_lazy_objects": true,
		"gowarp_hit_ratio": true, "gowarp_aggregation_window_seconds": true,
	}
	body := <-scraped
	if strings.HasPrefix(body, "scrape failed") {
		fmt.Printf("  %s\n", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if i := strings.IndexAny(line, "{ "); i > 0 && shown[line[:i]] {
			fmt.Printf("  %s\n", line)
		}
	}
}
