// Package obshttp embeds a telemetry HTTP server into a running simulation:
// /metrics in the Prometheus text format, /healthz liveness with the last
// simulated-time progress mark, /snapshot and /decisions as JSON, /trace as
// Chrome trace-event JSON, and the standard net/http/pprof handlers under
// /debug/pprof/. The server only reads the obs structures — it shares the
// same observational contract as the registry itself, so scraping a live
// run cannot perturb its results.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"parm/internal/obs"
)

// Health is the /healthz document. Status is "ok" while the process serves;
// SimTimeS is the engine's last published simulated time and Events its
// event-loop iteration count, so a stalled run is visible as a frozen
// SimTimeS across scrapes even though the process answers.
type Health struct {
	Status   string  `json:"status"`
	SimTimeS float64 `json:"sim_time_s"`
	Events   uint64  `json:"events"`
}

// Config wires the telemetry sources into the server. Every field is
// optional: a nil Registry serves an empty exposition and a zero /healthz
// progress mark, a nil Timeline an empty trace, a nil Decisions an empty
// decision list.
type Config struct {
	Registry  *obs.Registry
	Timeline  *obs.Timeline
	Decisions *obs.DecisionLog
}

// NewHandler returns the telemetry mux for cfg. It is exported separately
// from Serve so tests can drive it through httptest and embedders can mount
// it under their own server.
func NewHandler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", obs.ExpositionContentType)
		if err := cfg.Registry.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is log the broken scrape.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		// The liveness probe reads the engine's progress mark from a
		// snapshot, which registers nothing; a metric the registry does not
		// hold (or a nil registry) reads zero.
		engine, _ := cfg.Registry.Snapshot()["engine"].(map[string]interface{})
		simTime, _ := engine["sim_time_s"].(float64)
		events, _ := engine["events"].(uint64)
		writeJSON(w, Health{Status: "ok", SimTimeS: simTime, Events: events})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.Registry.WriteSnapshot(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.Decisions.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if cfg.Timeline == nil {
			fmt.Fprintln(w, `{"traceEvents":[]}`) //parm:errok http response
			return
		}
		if err := cfg.Timeline.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// net/http/pprof registers on DefaultServeMux at import; mount the same
	// handlers explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Write(data) //parm:errok http response
}

// Server is a running telemetry listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the telemetry
// mux on a background goroutine. The bind itself is synchronous so a bad
// addr fails fast at startup instead of silently after the run began.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listening on %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(cfg)}}
	go func() {
		// ErrServerClosed on Close is the expected shutdown path.
		s.srv.Serve(ln) //parm:errok background server
	}()
	return s, nil
}

// Addr returns the bound listen address, with the real port when addr was
// ":0".
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	return s.srv.Close()
}
