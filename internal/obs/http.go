package obs

import (
	"bytes"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves the registry (plus manifest, may both be nil)
// as the same JSON document -metrics writes, so a long sweep can be
// inspected live with curl while it runs.
//
// The snapshot renders into a buffer first: a marshal failure can then
// still become a proper 500, and a failed response write — a client
// hanging up mid-scrape, not a server bug — is counted on
// obs/http_write_errors instead of being silently discarded or
// uselessly http.Error'd after the headers already went out.
func MetricsHandler(r *Registry, manifest func() *Manifest) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var m *Manifest
		if manifest != nil {
			m = manifest()
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf, m); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(buf.Bytes()); err != nil {
			r.Counter("obs/http_write_errors").Inc()
		}
	})
}

// Serve starts a debug HTTP server on addr exposing net/http/pprof
// (/debug/pprof/), Go's runtime vars via expvar (/debug/vars) and the
// live registry dump (/metrics). It returns the server and its bound
// address (useful with ":0") and never blocks; Close the server to
// stop it. The handlers are mounted on a private mux so importing this
// package does not pollute http.DefaultServeMux.
func Serve(addr string, r *Registry, manifest func() *Manifest) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler(r, manifest))
	srv := &http.Server{Handler: mux}
	//opmlint:allow goroleak — http.Server.Serve exits when the returned *http.Server is Closed; the caller owns that lifecycle
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return srv, ln.Addr(), nil
}
