package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the process-global expvar name (expvar.Publish panics
// on duplicates; only the first served registry owns it).
var publishOnce sync.Once

// Serve exposes live snapshots of the registry over HTTP on addr:
//
//	/metrics      JSON snapshot (sorted keys)
//	/metrics.csv  CSV snapshot
//	/debug/vars   standard expvar output, including a "clustersim" var
//	              holding the same snapshot
//	/debug/pprof/ Go profiling endpoints (only with withPprof)
//
// It returns once the listener is bound, so callers can start a long
// simulation immediately after; the registry's atomic metrics make
// concurrent reads safe while the simulation writes. It reports the bound
// address (resolving a ":0" port request) and a close function that shuts
// the listener down.
//
// withPprof adds the net/http/pprof handlers, so a long-running sweep can
// be profiled live (CPU, heap, goroutine, block) without restarting it.
// Both CLIs set it only under -pprof: the profile endpoints expose process
// internals.
func Serve(addr string, r *Registry, withPprof bool) (bound string, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	publishOnce.Do(func() {
		expvar.Publish("clustersim", expvar.Func(func() any { return r.Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.Snapshot().WriteJSON(w) //simlint:allow errflow a failed response write is the client's disconnect; nothing to recover server-side
	})
	mux.HandleFunc("/metrics.csv", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		r.Snapshot().WriteCSV(w) //simlint:allow errflow a failed response write is the client's disconnect; nothing to recover server-side
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), ln.Close, nil
}
