package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dagman"
	"repro/internal/workloads"
)

// cliInstrumented reproduces exactly what cmd/prio does with a DAGMan
// file on stdin→stdout: parse, freeze, prioritize with default options,
// instrument.
func cliInstrumented(t testing.TB, text string) string {
	t.Helper()
	f, err := dagman.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sched := core.PrioritizeOpts(g, core.Options{})
	return string(f.InstrumentIDs(sched.Priority))
}

// TestServedBytesMatchCLI pins the daemon's format=dag responses to the
// cmd/prio pipeline byte-for-byte on the paper dags: serving through
// per-tenant caches, pooled scratch, and admission control must not
// perturb a single output byte.
func TestServedBytesMatchCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			scale := 1
			if testing.Short() && name == "sdss" {
				scale = 8 // 48k jobs is the full-run case; keep -short fast
			}
			g, err := workloads.ByName(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			text := dagman.FromGraph(g, nil).String()
			want := cliInstrumented(t, text)

			// Twice per dag: the second request exercises the warmed
			// tenant cache, which must be invisible in the bytes.
			for pass := 0; pass < 2; pass++ {
				resp := post(t, ts.URL+"/v1/prioritize?format=dag", text, nil)
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("pass %d: status %d", pass, resp.StatusCode)
				}
				if string(body) != want {
					t.Fatalf("pass %d: served dag differs from the cmd/prio output (%d vs %d bytes)",
						pass, len(body), len(want))
				}
			}
		})
	}
}

// TestConcurrentTenantsBitIdentical hammers one daemon from many
// goroutines across several tenants and dags and asserts every response
// matches the CLI bytes — run under -race (make check) this is the
// serving layer's isolation proof.
func TestConcurrentTenantsBitIdentical(t *testing.T) {
	type workItem struct{ text, want string }
	var items []workItem
	for _, tc := range []struct {
		name  string
		scale int
	}{{"airsn", 4}, {"inspiral", 8}, {"montage", 8}} {
		g, err := workloads.ByName(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		text := dagman.FromGraph(g, nil).String()
		items = append(items, workItem{text: text, want: cliInstrumented(t, text)})
	}

	_, ts := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 64, QueueTimeout: time.Minute})
	// The client deadline turns a handler that blocks into a failure
	// here rather than a hang until the binary's timeout.
	client := &http.Client{Timeout: 30 * time.Second}
	const goroutines, iters, tenants = 12, 4, 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", gi%tenants)
			for it := 0; it < iters; it++ {
				item := items[(gi+it)%len(items)]
				req, err := http.NewRequest("POST", ts.URL+"/v1/prioritize?format=dag", strings.NewReader(item.text))
				if err != nil {
					errs[gi] = err
					return
				}
				req.Header.Set(TenantHeader, tenant)
				resp, err := client.Do(req)
				if err != nil {
					errs[gi] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[gi] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[gi] = fmt.Errorf("goroutine %d iter %d: status %d", gi, it, resp.StatusCode)
					return
				}
				if string(body) != item.want {
					errs[gi] = fmt.Errorf("goroutine %d iter %d: response differs from the CLI bytes", gi, it)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrioritizeResponseDeterministic checks the response-determinism
// contract at runtime: /v1/prioritize answers one dag with the same
// bytes every time, sequentially and under concurrency, in either of
// two tenant namespaces, with /metrics scrapes interleaved (/metrics
// reads clocks, gauges and /proc by design; none of that may leak into
// a schedule response). format=dag must equal cmd/prio's output;
// format=json must carry core's schedule and equal the first JSON
// answer byte for byte. A response that embeds a clock read, a field
// rendered in map order, a goroutine count or a /proc read differs
// between two of these requests.
func TestPrioritizeResponseDeterministic(t *testing.T) {
	g, err := workloads.ByName("inspiral", 8)
	if err != nil {
		t.Fatal(err)
	}
	text := dagman.FromGraph(g, nil).String()
	_, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 64, QueueTimeout: time.Minute})
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(method, path, tenant, body string) (string, error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
		}
		return string(b), err
	}

	// The JSON reference is the first answer, checked against core's
	// schedule of the same dag.
	want := map[string]string{"dag": cliInstrumented(t, text)}
	first, err := get("POST", "/v1/prioritize?format=json", "alice", text)
	if err != nil {
		t.Fatal(err)
	}
	var doc prioritizeJSON
	if err := json.Unmarshal([]byte(first), &doc); err != nil {
		t.Fatalf("json response does not decode: %v", err)
	}
	f, err := dagman.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fg, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sched := core.PrioritizeOpts(fg, core.Options{})
	order := make([]string, len(sched.Order))
	prios := make(map[string]int, fg.NumNodes())
	for i, v := range sched.Order {
		order[i] = fg.Name(v)
	}
	for v := 0; v < fg.NumNodes(); v++ {
		prios[fg.Name(v)] = sched.Priority[v]
	}
	if doc.Jobs != fg.NumNodes() || !reflect.DeepEqual(doc.Order, order) || !reflect.DeepEqual(doc.Priorities, prios) {
		t.Fatal("json response does not carry core's schedule of the posted dag")
	}
	want["json"] = first

	tenants := []string{"alice", "bob"}
	formats := []string{"json", "dag"}
	// request i of a client: a schedule in one of the four
	// (tenant, format) combinations, or a /metrics scrape.
	request := func(i int) error {
		if i%3 == 2 {
			_, err := get("GET", "/metrics", "", "")
			return err
		}
		tenant, format := tenants[i%2], formats[(i/2)%2]
		body, err := get("POST", "/v1/prioritize?format="+format, tenant, text)
		if err == nil && body != want[format] {
			err = fmt.Errorf("request %d (tenant %s, format=%s): response differs from the reference (%d vs %d bytes)",
				i, tenant, format, len(body), len(want[format]))
		}
		return err
	}

	for i := 0; i < 24; i++ {
		if err := request(i); err != nil {
			t.Fatalf("sequential: %v", err)
		}
	}
	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient && errs[c] == nil; i++ {
				errs[c] = request(c + i)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("concurrent client %d: %v", c, err)
		}
	}
}
