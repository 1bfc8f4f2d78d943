package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// fig3Dag is the paper's worked 5-job example (Fig. 3): c has two
// children, a has one, so PRIO runs c first and c gets priority 5.
const fig3Dag = "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nJOB d d.sub\nJOB e e.sub\n" +
	"PARENT a CHILD b\nPARENT c CHILD d\nPARENT c CHILD e\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// prioritizeJSON mirrors the handler's hand-written document.
type prioritizeJSON struct {
	Jobs       int            `json:"jobs"`
	Arcs       int            `json:"arcs"`
	Components int            `json:"components"`
	Shortcuts  int            `json:"shortcuts_removed"`
	Order      []string       `json:"order"`
	Priorities map[string]int `json:"priorities"`
}

func TestPrioritizeJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/prioritize", fig3Dag, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	got := decodeBody[prioritizeJSON](t, resp)
	if got.Jobs != 5 || got.Arcs != 3 {
		t.Fatalf("jobs=%d arcs=%d, want 5 and 3", got.Jobs, got.Arcs)
	}
	if len(got.Order) != 5 || got.Order[0] != "c" {
		t.Fatalf("order = %v, want c first (Fig. 3)", got.Order)
	}
	if got.Priorities["c"] != 5 {
		t.Fatalf("priority[c] = %d, want 5 (Fig. 3)", got.Priorities["c"])
	}
}

func TestPrioritizeErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 3})
	url := ts.URL + "/v1/prioritize"
	for _, tc := range []struct {
		name, body, format string
		want               int
		errContains        string
	}{
		{"malformed JOB line", "JOB onlyname\n", "", http.StatusBadRequest, ""},
		{"cycle", "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a\n", "", http.StatusBadRequest, "cyclic"},
		{"undeclared dependency", "JOB a a.sub\nPARENT a CHILD ghost\n", "", http.StatusBadRequest, "undeclared"},
		{"splice", "SPLICE inner inner.dag\n", "", http.StatusBadRequest, "SPLICE"},
		{"oversized job count", "JOB a a.s\nJOB b b.s\nJOB c c.s\nJOB d d.s\n", "", http.StatusRequestEntityTooLarge, "limit is 3"},
		{"unknown format", fig3Dag, "?format=yaml", http.StatusBadRequest, "unknown format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, url+tc.format, tc.body, nil)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			e := decodeBody[errorBody](t, resp)
			if e.Status != tc.want {
				t.Fatalf("error body status = %d, want %d", e.Status, tc.want)
			}
			if !strings.Contains(e.Error, tc.errContains) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.errContains)
			}
		})
	}
}

func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDagBytes: 64})
	big := strings.Repeat("# padding line\n", 100) + fig3Dag
	resp := post(t, ts.URL+"/v1/prioritize", big, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/prioritize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/prioritize: status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: status = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsSurface(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/prioritize", fig3Dag, nil)
		resp.Body.Close()
	}
	resp := post(t, ts.URL+"/v1/prioritize", "JOB broken\n", nil)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[Snapshot](t, mresp)
	if len(snap.Requests) != len(s.Routes()) {
		t.Fatalf("metrics reports %d routes, server registers %d", len(snap.Requests), len(s.Routes()))
	}
	rt := snap.Requests[0]
	if rt.Route != "POST /v1/prioritize" {
		t.Fatalf("first route = %q", rt.Route)
	}
	if rt.Status.S2xx != 2 || rt.Status.S4xx != 1 {
		t.Fatalf("status counts 2xx=%d 4xx=%d, want 2 and 1", rt.Status.S2xx, rt.Status.S4xx)
	}
	if rt.Latency.Count != 3 || rt.Latency.P50NS <= 0 || rt.Latency.P99NS < rt.Latency.P50NS {
		t.Fatalf("latency = %+v, want count 3 and 0 < p50 <= p99", rt.Latency)
	}
	if snap.Cache.Tenants != 1 || snap.Cache.Misses == 0 {
		t.Fatalf("cache = %+v, want one tenant with misses recorded", snap.Cache)
	}
	if snap.Mem.RSSBytes == 0 || snap.Mem.Goroutines == 0 {
		t.Fatalf("mem = %+v, want nonzero rss and goroutines", snap.Mem)
	}
	if snap.UptimeSeconds <= 0 {
		t.Fatal("uptime not reported")
	}
}

func TestTenantNamespaces(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTenants: 2})
	url := ts.URL + "/v1/prioritize"
	for _, tenant := range []string{"alice", "alice", "bob"} {
		resp := post(t, url, fig3Dag, map[string]string{TenantHeader: tenant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tenant, resp.StatusCode)
		}
		resp.Body.Close()
	}
	snap := s.Metrics()
	if snap.Cache.Tenants != 2 {
		t.Fatalf("tenants = %d, want 2", snap.Cache.Tenants)
	}
	// alice's second identical dag must hit her warmed namespace.
	if snap.Cache.Hits == 0 {
		t.Fatalf("cache = %+v, want hits from the repeated tenant", snap.Cache)
	}
	// A third tenant evicts the least recently used namespace (alice).
	resp := post(t, url, fig3Dag, map[string]string{TenantHeader: "carol"})
	resp.Body.Close()
	if got := s.Metrics().Cache.Tenants; got != 2 {
		t.Fatalf("tenants after eviction = %d, want 2", got)
	}
}

func TestSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxReplications: 100})
	resp := post(t, ts.URL+"/v1/simulate?p=4&q=4&mu_bs=2&seed=7", fig3Dag, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeBody[simResponse](t, resp)
	if got.Jobs != 5 || got.PolicyA != "prio" || got.PolicyB != "fifo" {
		t.Fatalf("response header = %+v", got)
	}
	if !got.ExecTime.Valid || got.ExecTime.Median <= 0 {
		t.Fatalf("exec_time = %+v, want a valid positive ratio", got.ExecTime)
	}

	// Ranker-tier families flow through the same factory grammar.
	resp = post(t, ts.URL+"/v1/simulate?p=4&q=4&mu_bs=2&seed=7&policy_a=heft&policy_b=graphene", fig3Dag, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranker families: status = %d, want 200", resp.StatusCode)
	}
	if got := decodeBody[simResponse](t, resp); got.PolicyA != "heft" || got.PolicyB != "graphene" {
		t.Fatalf("ranker families: response header = %+v", got)
	}

	for _, tc := range []struct {
		name, query string
		want        int
	}{
		{"negative mu_bit", "?mu_bit=-1", http.StatusBadRequest},
		{"malformed p", "?p=x", http.StatusBadRequest},
		{"replication cap", "?p=20&q=20", http.StatusRequestEntityTooLarge},
		{"replication cap, p*q overflows", "?p=4294967296&q=4294967296", http.StatusRequestEntityTooLarge},
		{"unknown policy", "?p=2&q=2&policy_a=banker", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/simulate"+tc.query, fig3Dag, nil)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestWorkloadsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	wl := decodeBody[workloadsResponse](t, resp)
	if len(wl.Paper) != 4 || wl.Paper[0] != "airsn" {
		t.Fatalf("paper workloads = %v", wl.Paper)
	}
	if len(wl.Classic) == 0 || len(wl.Policies) == 0 {
		t.Fatalf("workloads response incomplete: %+v", wl)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hresp.StatusCode)
	}
}

// TestRoutesDocumented enforces the docs/API.md contract in both
// directions: every route the server registers is documented, and every
// route heading in the document corresponds to a registered route.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist and document the HTTP API: %v", err)
	}
	s := New(Config{})
	text := string(doc)
	registered := make(map[string]bool)
	for _, rt := range s.Routes() {
		registered[rt] = true
		if !strings.Contains(text, "`"+rt+"`") {
			t.Errorf("route %q is served but not documented in docs/API.md", rt)
		}
	}
	headingRE := regexp.MustCompile("(?m)^###+ `((?:GET|POST|PUT|DELETE|PATCH) [^`]+)`")
	documented := 0
	for _, m := range headingRE.FindAllStringSubmatch(text, -1) {
		documented++
		if !registered[m[1]] {
			t.Errorf("docs/API.md documents %q, which the server does not register", m[1])
		}
	}
	if documented != len(s.Routes()) {
		t.Errorf("docs/API.md has %d route headings, server registers %d routes", documented, len(s.Routes()))
	}
}

// TestSimulateRejectsNonFinite posts mu_bit and mu_bs values that
// strconv.ParseFloat accepts but the model does not: each must get a
// 400 promptly. Such a simulation never finishes, so the handler runs
// on its own goroutine under a deadline, and a regression fails here
// instead of holding an admission slot and a CPU until the binary's
// timeout.
func TestSimulateRejectsNonFinite(t *testing.T) {
	h := New(Config{MaxReplications: 100}).Handler()
	for _, q := range []string{"mu_bit=NaN", "mu_bit=Inf", "mu_bit=-Inf", "mu_bs=NaN", "mu_bs=%2BInf"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/simulate?p=2&q=2&"+q, strings.NewReader(fig3Dag))
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no response within 5s", q)
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want %d (body %q)", q, rec.Code, http.StatusBadRequest, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "not finite") {
			t.Fatalf("%s: body %q does not say why", q, rec.Body)
		}
	}
}
