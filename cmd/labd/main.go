// Command labd runs the persistent lab daemon: one long-lived Lab engine
// whose artifact store is backed by an on-disk content-addressed spill
// tier, behind an HTTP+JSON API.
//
// Usage:
//
//	labd -dir /var/lib/labd                     # serve on :8080
//	labd -dir ./store -addr 127.0.0.1:9000      # explicit listen address
//	labd -dir ./store -max-store-bytes 1e9 -j 4 # byte-budgeted store, bounded pool
//
// Submit sweeps with cmd/sweep's -addr flag (the daemon-side twin of a
// local sweep), or directly:
//
//	curl -s localhost:8080/v1/sweep -d '{"axes":["idle"],"benchmarks":["gap"]}'
//	curl -sN localhost:8080/v1/jobs/j1/events | report -render -
//	curl -s localhost:8080/v1/stats
//
// Because every job runs through one engine, concurrent clients share
// in-flight builds, and the disk store makes every heavy preparation stage
// survive daemon restarts: re-submitting a sweep after a restart rebuilds
// nothing. See EXPERIMENTS.md for the API and disk-layout details.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/labd"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold connections
// open indefinitely. Event streams are unaffected: it covers only the
// request headers, not the response.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "artifact store directory (required)")
	maxBytes := flag.Int64("max-store-bytes", 0, "disk store byte budget (0 = unlimited)")
	parallelism := flag.Int("j", 0, "worker-pool bound (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "simulation engine for every job: event or scan")
	mmapSpill := flag.Bool("mmap", true, "serve warm trace loads from read-only memory mappings (zero-copy; false = heap decode)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "labd: -dir is required")
		os.Exit(2)
	}
	srv, err := labd.New(labd.Config{Dir: *dir, MaxStoreBytes: *maxBytes,
		Parallelism: *parallelism, Engine: *engine,
		DisableMappedSpill: !*mmapSpill})
	if err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "labd: serving on %s, store in %s\n", *addr, *dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful stop: cancel running jobs, then drain connections (their
	// event streams terminate with the cancelled jobs).
	fmt.Fprintln(os.Stderr, "labd: shutting down")
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}
