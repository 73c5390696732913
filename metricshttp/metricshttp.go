// Package metricshttp serves a gowarp.MetricsRegistry over HTTP: /metrics in
// Prometheus text-exposition format and /debug/vars as expvar JSON. It is a
// leaf: the kernel publishes into the registry and never imports this package,
// so net/http and expvar are linked only into a program that asks for the
// endpoint (cmd/twsim -metrics-addr).
package metricshttp

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"gowarp"
)

// expvarOnce guards against double-publishing under the fixed expvar name
// when several servers are started in one process (tests, repeated runs).
var expvarOnce sync.Once

// publishExpvar exposes the registry under the "gowarp" expvar name. The
// last-published registry wins when servers are recreated; expvar has no
// unpublish, so the indirection goes through a process-wide pointer.
var expvarReg atomic.Pointer[gowarp.MetricsRegistry]

func publishExpvar(r *gowarp.MetricsRegistry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("gowarp", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}

// Handler returns an http.Handler serving the registry: /metrics in
// Prometheus text format and /debug/vars as expvar JSON.
func Handler(r *gowarp.MetricsRegistry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Server is a running metrics HTTP endpoint; Close shuts it down.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr (host:port; port 0 picks a free one)
// exposing reg at /metrics and /debug/vars. It returns once the listener is
// bound; scraping works for the lifetime of the process or until Close.
func Serve(addr string, reg *gowarp.MetricsRegistry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metricshttp: listen: %w", err)
	}
	publishExpvar(reg)
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
