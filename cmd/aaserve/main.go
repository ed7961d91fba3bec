// Command aaserve serves all-to-all simulation jobs over HTTP/JSON.
//
// Usage:
//
//	aaserve [-addr :8080] [-workers 4] [-queue 16] [-cache 512]
//	        [-timeout 2m] [-maxshards <cores>] [-maxnodes 65536]
//
// Submit a job and block for the result:
//
//	curl -s localhost:8080/v1/jobs -d '{"strategy":"tps","shape":"8x32x16","msg_bytes":1024}'
//
// Append ?async=1 to get 202 + a job id immediately, then poll
// GET /v1/jobs/{id}. GET /metrics reports queue depth, in-flight jobs,
// cache hit rate (by request and by simulated work saved) and per-strategy
// latency histograms. Concurrent identical submissions run one simulation.
// When the queue is full, submissions get 429 with a Retry-After estimate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alltoall/internal/serve"
)

// Connection timeouts. A request is at most 1 MiB of JSON, so a client that
// has not sent it within these is stalled or hostile. There is no write
// timeout: a synchronous job legitimately holds its response open for up to
// its own deadline.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "concurrent simulation workers")
	queue := flag.Int("queue", 0, "job queue depth (0 = 4*workers)")
	cache := flag.Int("cache", 512, "result cache entries (negative disables)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
	maxShards := flag.Int("maxshards", 0, "per-job ceiling on a forced shard count (0 = this machine's cores)")
	maxNodes := flag.Int("maxnodes", 64*1024, "per-job torus size ceiling")
	flag.Parse()

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		MaxShards:      *maxShards,
		MaxNodes:       *maxNodes,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "aaserve: listening on %s (%d workers)\n", *addr, *workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "aaserve:", err)
			os.Exit(1)
		}
	case <-sigc:
		fmt.Fprintln(os.Stderr, "aaserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		hs.Shutdown(ctx)
		cancel()
	}
	srv.Close()
}
