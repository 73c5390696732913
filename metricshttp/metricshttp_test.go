package metricshttp

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gowarp"
)

func TestServeEndpoints(t *testing.T) {
	r := gowarp.NewMetricsRegistry()
	r.Bind(2)
	r.Gauge("gowarp_gvt", "Last computed GVT.", false).Set(0, 42)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "# TYPE gowarp_gvt gauge") || !strings.Contains(metrics, "gowarp_gvt 42") {
		t.Errorf("/metrics missing gauge:\n%s", metrics)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"gowarp"`) || !strings.Contains(vars, "gowarp_gvt") {
		t.Errorf("/debug/vars missing gowarp export:\n%s", vars)
	}
}

// TestLiveMetricsScrape scrapes the metrics endpoint concurrently with a
// running simulation — under -race this exercises the atomic slot protocol
// between LP goroutines and HTTP readers.
func TestLiveMetricsScrape(t *testing.T) {
	reg := gowarp.NewMetricsRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			last = string(body)
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	cfg := gowarp.DefaultConfig(20_000)
	cfg.GVTPeriod = time.Millisecond
	cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.DynamicCheckpointing, Interval: 1, Period: 64}
	cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.DynamicCancellation}
	cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.SAAW, Window: time.Millisecond}
	cfg.Metrics = reg
	res, err := gowarp.Run(gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 16, TokensPerObject: 4, MeanDelay: 20,
		Locality: 0.5, LPs: 2, Seed: 7,
	}), cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted == 0 {
		t.Fatal("simulation committed no events")
	}
	// The registry holds the final sample; the scraper saw some snapshot.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	final := b.String()
	for _, want := range []string{
		"# TYPE gowarp_gvt gauge",
		"gowarp_events_processed_total{lp=",
		"gowarp_efficiency{lp=",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final metrics missing %q:\n%s", want, final)
		}
	}
	mu.Lock()
	scraped := last
	mu.Unlock()
	if scraped != "" && !strings.Contains(scraped, "gowarp_") {
		t.Errorf("mid-run scrape contained no gowarp metrics:\n%s", scraped)
	}
}
