// Command priod is the scheduling daemon: a long-lived HTTP/JSON
// server exposing the prio pipeline (parse → prioritize → optionally
// simulate) to many concurrent tenants, with admission control and a
// /metrics observability surface. docs/API.md documents the wire
// protocol; docs/OPERATIONS.md is the runbook.
//
// Usage:
//
//	priod [flags]
//
//	-addr host:port        listen address (default :8080)
//	-max-inflight N        concurrent scheduling requests (default: logical CPUs)
//	-max-queue N           accept-queue depth beyond in-flight (default 4x in-flight)
//	-queue-timeout D       queue wait before a request is shed with 429 (default 2s)
//	-max-dag-bytes N       request body cap, bytes (default 16 MiB)
//	-max-jobs N            parsed dag node cap (default 200000)
//	-max-tenants N         live cache namespaces before LRU eviction (default 64)
//	-max-replications N    p*q cap on /v1/simulate (default 25000)
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish (up to 10s), new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// testHookListen, when set, observes the bound listener address; the
// CLI test uses it to reach a daemon started on port 0.
var testHookListen func(net.Addr)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "priod:", err)
		os.Exit(1)
	}
}

func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("priod", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent scheduling requests (0 = logical CPUs)")
	maxQueue := fs.Int("max-queue", 0, "accept-queue depth beyond in-flight (0 = 4x in-flight)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "queue wait before a request is shed with 429")
	maxDagBytes := fs.Int64("max-dag-bytes", 16<<20, "request body cap in bytes")
	maxJobs := fs.Int("max-jobs", 200_000, "parsed dag node cap")
	maxTenants := fs.Int("max-tenants", 64, "live cache namespaces before LRU eviction")
	maxReplications := fs.Int("max-replications", 25_000, "p*q cap on /v1/simulate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (priod takes no positional arguments)", fs.Arg(0))
	}

	s := serve.New(serve.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		MaxDagBytes:     *maxDagBytes,
		MaxJobs:         *maxJobs,
		MaxTenants:      *maxTenants,
		MaxReplications: *maxReplications,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if testHookListen != nil {
		testHookListen(ln.Addr())
	}
	fmt.Fprintf(os.Stderr, "priod: listening on %s\n", ln.Addr())

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	fmt.Fprintln(os.Stderr, "priod: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
