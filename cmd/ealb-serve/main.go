// Command ealb-serve runs the HTTP scenario service: an ealb simulation
// engine behind a JSON API.
//
// Usage:
//
//	ealb-serve                    # listen on :8080, one worker per CPU
//	ealb-serve -addr :9000 -workers 4 -drain 30s
//	ealb-serve -store-dir /var/lib/ealb   # durable run store; resumes interrupted runs on start
//	ealb-serve -tenant-quota 4    # cap concurrent runs per X-Tenant (0 = unlimited)
//	ealb-serve -pprof             # also expose /debug/pprof/ profiling handlers
//	ealb-serve -log-level debug   # per-request logs (JSON on stderr)
//
// Submit a scenario and fetch its result:
//
//	curl -s -X POST localhost:8080/v1/runs?wait=1 \
//	  -d '{"kind":"cluster","size":100,"band":"low","seed":2014,"intervals":40}'
//	curl -s localhost:8080/v1/runs
//	curl -s 'localhost:8080/v1/runs?status=done&limit=10'
//	curl -s localhost:8080/v1/runs/run-000001
//	curl -s localhost:8080/v1/runs/run-000001/intervals   # tails live runs
//	curl -s localhost:8080/v1/runs/run-000001/trace       # decision events ("trace":true runs)
//	curl -s -X DELETE localhost:8080/v1/runs/run-000001   # cancel
//	curl -s localhost:8080/metrics
//
// Sweep requests give lists for any axis and run the whole cross-product
// in one request, returning per-cell results plus aggregates:
//
//	curl -s -X POST localhost:8080/v1/runs?wait=1 \
//	  -d '{"sizes":[100,1000],"seeds":[1,2,3],"intervals":40}'
//
// Policy scenarios select a workload profile (constant, diurnal, trend,
// spike, burst):
//
//	curl -s -X POST localhost:8080/v1/runs?wait=1 \
//	  -d '{"kind":"policy","profiles":["burst","diurnal"],"base_rate":1000,"peak_rate":5000}'
//
// Without -store-dir, runs live in process memory and die with it. With
// -store-dir, every run — record, cell checkpoints, interval and trace
// streams — is persisted as NDJSON under the directory, run IDs stay
// unique across restarts, and on startup the service resumes runs that
// were queued or running when the previous process died, finishing them
// byte-identical to an uninterrupted run. Replicas may share one store
// directory: a lease keeps two processes from executing the same run.
// POST /v1/runs additionally honours an Idempotency-Key header (replays
// answer with the original run) and, with -tenant-quota, caps each
// X-Tenant's concurrently active runs.
//
// The service logs structured JSON lines to stderr (run lifecycle at
// info, per-request logs at debug). On SIGINT/SIGTERM the server stops
// accepting requests and drains: in-flight simulations get -drain to
// finish before being cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ealb/internal/engine"
	"ealb/internal/serve"
	"ealb/internal/store"
)

// The HTTP server's limits on a client. A request's header must arrive
// within readHeaderTimeout and fit in maxHeaderBytes, and an idle
// keep-alive connection is closed after idleTimeout. There is no write
// deadline, because the NDJSON streams are long by design; the submit
// handler bounds its body by size.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer returns the server that serves handler on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "engine worker count (0 = one per CPU)")
		drain       = flag.Duration("drain", 30*time.Second, "how long to let in-flight runs finish on shutdown before cancelling them")
		storeDir    = flag.String("store-dir", "", "durable run store directory (empty = in-memory, lost on exit)")
		owner       = flag.String("owner", "", "lease owner identity for a shared store (default: host name)")
		leaseTTL    = flag.Duration("lease", 30*time.Second, "run lease time-to-live in a shared store")
		tenantQuota = flag.Int("tenant-quota", 0, "max concurrently active runs per X-Tenant (0 = unlimited)")
		withPprof   = flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug adds per-request logs)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ealb-serve: invalid -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	opts := serve.Options{Owner: *owner, LeaseTTL: *leaseTTL, TenantQuota: *tenantQuota}
	if opts.Owner == "" {
		if host, err := os.Hostname(); err == nil {
			opts.Owner = host
		}
	}
	if *storeDir != "" {
		disk, err := store.OpenDisk(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ealb-serve: opening -store-dir: %v\n", err)
			os.Exit(1)
		}
		defer disk.Close()
		opts.Store = disk
	}

	pool := engine.NewPool(*workers)
	svc := serve.NewWith(pool, opts)
	svc.SetLogger(logger)
	if err := svc.Recover(context.Background()); err != nil {
		logger.Error("recovering runs from store", "error", err)
		os.Exit(1)
	}

	handler := svc.Handler()
	if *withPprof {
		// The profiling handlers are registered explicitly (not via the
		// package's DefaultServeMux side effect) so they exist only when
		// asked for, on the service's own mux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", pool.Workers(), "pprof", *withPprof)

	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("draining", "grace", *drain)
	grace, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := svc.Shutdown(grace); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("cancelled in-flight runs after drain timeout", "error", err)
	}
	logger.Info("stopped")
}
