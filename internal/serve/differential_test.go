package serve

import (
	"fmt"
	"io"
	"net/http"
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
				resp, err := http.DefaultClient.Do(req)
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
