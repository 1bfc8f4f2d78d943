// Command prioload is the serving-layer load generator: it drives N
// concurrent clients posting DAGMan files at a priod daemon and reports
// latency percentiles, throughput, and server memory in `go test
// -bench` format, so the output pipes straight through cmd/benchjson
// into BENCH_serve.json (make bench-serve).
//
// Usage:
//
//	prioload [flags]
//
//	-url URL       target daemon (default: start an in-process server)
//	-dags LIST     comma-separated workload names or DAGMan paths (default airsn,inspiral,montage)
//	-scale N       divide paper dag sizes by N (default 1 = paper size)
//	-clients N     concurrent clients (default 32)
//	-requests N    requests per client after warmup (default 32)
//	-warmup N      untimed warmup requests (default 32)
//	-tenants N     spread clients over N tenant namespaces (default 1)
//
// Each dag emits one line such as
//
//	BenchmarkServeLoad/airsn/c32      1024      843210 ns/op      801220 p50-ns     1904110 p99-ns   1187.3 req/s    78643200 rss-bytes   0 errors
//
// ns/op is the mean request latency; p50-ns/p99-ns are percentiles over
// every timed request; req/s is total timed requests over wall-clock
// time; rss-bytes is the server's resident set (from its /metrics
// endpoint) after the run. Every client checks that all responses for a
// dag are byte-identical — the served schedule is deterministic — and
// the run fails on any mismatch or non-200 beyond admission sheds
// (which are counted in the errors column).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/dagman"
	"repro/internal/serve"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prioload:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("prioload", flag.ContinueOnError)
	urlFlag := fs.String("url", "", "target daemon base URL (default: start an in-process server)")
	dags := fs.String("dags", "airsn,inspiral,montage", "comma-separated workload names or DAGMan file paths")
	scale := fs.Int("scale", 1, "divide paper dag sizes by this factor (1 = paper size)")
	clients := fs.Int("clients", 32, "concurrent clients")
	requests := fs.Int("requests", 32, "timed requests per client")
	warmup := fs.Int("warmup", 32, "untimed warmup requests")
	tenants := fs.Int("tenants", 1, "spread clients over this many tenant namespaces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *clients < 1 || *requests < 1 || *tenants < 1 {
		return fmt.Errorf("-clients, -requests, and -tenants must be at least 1")
	}

	base := *urlFlag
	if base == "" {
		// Self-contained mode: serve in-process on a loopback port. The
		// accept queue is sized to the client count and the shed
		// deadline is generous, so the generator measures queueing
		// latency under saturation rather than its own sheds.
		s := serve.New(serve.Config{MaxQueue: *clients + 1, QueueTimeout: time.Minute})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: s.Handler()}
		// The buffered channel joins the serve goroutine: Serve returns
		// (with ErrServerClosed) once Close runs, and the buffer lets the
		// final send complete even before the receive.
		// TestRunJoinsGoroutines pins the join.
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		defer func() {
			if cerr := srv.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "prioload: closing server: %v\n", cerr)
			}
			<-errc
		}()
		base = "http://" + ln.Addr().String()
	}
	base = strings.TrimSuffix(base, "/")

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * *clients,
		MaxIdleConnsPerHost: 2 * *clients,
	}}
	defer client.CloseIdleConnections()

	for _, spec := range strings.Split(*dags, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		g, label, err := cli.LoadDag(spec, *scale)
		if err != nil {
			return err
		}
		text := dagman.FromGraph(g, nil).String()
		res, err := drive(client, base, text, *clients, *requests, *warmup, *tenants)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		rss, err := serverRSS(client, base)
		if err != nil {
			return fmt.Errorf("%s: reading /metrics: %w", label, err)
		}
		fmt.Fprintf(w, "BenchmarkServeLoad/%s/c%d \t%8d\t%12.0f ns/op\t%12.0f p50-ns\t%12.0f p99-ns\t%10.1f req/s\t%12d rss-bytes\t%4d errors\n",
			label, *clients, len(res.latencies), res.mean(), res.p50(), res.p99(), res.throughput, rss, res.errors)
		fmt.Fprintf(os.Stderr, "prioload: %s: %d jobs, %d requests in %v (%d warmup, %d clients, %d tenants), %d errors\n",
			label, g.NumNodes(), len(res.latencies), res.elapsed.Round(time.Millisecond),
			*warmup, *clients, *tenants, res.errors)
	}
	return nil
}

// result aggregates one dag's timed run.
type result struct {
	latencies  []float64 // nanoseconds, every timed 200 response
	errors     int       // non-200 responses (admission sheds against a remote daemon)
	elapsed    time.Duration
	throughput float64 // timed requests per wall-clock second
}

func (r *result) mean() float64 {
	if len(r.latencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.latencies {
		sum += v
	}
	return sum / float64(len(r.latencies))
}

func (r *result) p50() float64 { return stats.Percentile(r.latencies, 50) }
func (r *result) p99() float64 { return stats.Percentile(r.latencies, 99) }

// drive performs warmup sequential requests, then clients×requests
// timed requests from concurrent goroutines, checking that every
// successful response is byte-identical.
func drive(client *http.Client, base, text string, clients, requests, warmup, tenants int) (*result, error) {
	post := func(tenant string) (int, uint64, time.Duration, error) {
		req, err := http.NewRequest("POST", base+"/v1/prioritize", strings.NewReader(text))
		if err != nil {
			return 0, 0, 0, err
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set(serve.TenantHeader, tenant)
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, 0, err
		}
		h := fnv.New64a()
		_, err = io.Copy(h, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, 0, err
		}
		return resp.StatusCode, h.Sum64(), time.Since(start), nil
	}

	// Warmup: prime the tenant caches, the scratch pool, and the HTTP
	// connection pool, and record the reference response hash.
	var want uint64
	for i := 0; i < warmup || i == 0; i++ {
		status, sum, _, err := post(tenantFor(0, tenants))
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warmup request: status %d", status)
		}
		want = sum
	}

	res := &result{}
	perClient := make([][]float64, clients)
	errCounts := make([]int, clients)
	firstErr := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := tenantFor(c, tenants)
			lat := make([]float64, 0, requests)
			for i := 0; i < requests; i++ {
				status, sum, d, err := post(tenant)
				if err != nil {
					firstErr[c] = err
					return
				}
				if status != http.StatusOK {
					errCounts[c]++
					continue
				}
				if sum != want {
					firstErr[c] = fmt.Errorf("response mismatch: request %d of client %d differs from the warmup response", i, c)
					return
				}
				lat = append(lat, float64(d.Nanoseconds()))
			}
			perClient[c] = lat
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for c := 0; c < clients; c++ {
		if firstErr[c] != nil {
			return nil, firstErr[c]
		}
		res.latencies = append(res.latencies, perClient[c]...)
		res.errors += errCounts[c]
	}
	if res.elapsed > 0 {
		res.throughput = float64(len(res.latencies)) / res.elapsed.Seconds()
	}
	return res, nil
}

func tenantFor(client, tenants int) string {
	return fmt.Sprintf("load-%d", client%tenants)
}

// serverRSS reads the daemon's resident set size from GET /metrics.
func serverRSS(client *http.Client, base string) (uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	return snap.Mem.RSSBytes, nil
}
