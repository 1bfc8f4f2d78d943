package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TenantHeader names the request header that selects a cache namespace.
const TenantHeader = "X-Prio-Tenant"

// defaultTenant is the namespace used when the header is absent.
const defaultTenant = "default"

// Config tunes the daemon; the zero value means "use the default" for
// every field.
type Config struct {
	// MaxInFlight bounds concurrent scheduling requests (default: one
	// per logical CPU — the pipeline is CPU-bound, so more in-flight
	// work only inflates every request's latency).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot beyond
	// MaxInFlight (default 4×MaxInFlight). A full queue rejects
	// immediately with 429.
	MaxQueue int
	// QueueTimeout is the longest a request may wait in the accept
	// queue before being shed with 429 (default 2s).
	QueueTimeout time.Duration
	// MaxDagBytes caps the request body (default 16 MiB); larger
	// bodies are a 413.
	MaxDagBytes int64
	// MaxJobs caps the parsed dag's node count (default 200000);
	// larger dags are a 413.
	MaxJobs int
	// MaxTenants bounds live cache namespaces (default 64); beyond it
	// the least-recently-used namespace is evicted.
	MaxTenants int
	// MaxReplications caps P*Q on /v1/simulate (default 25000).
	MaxReplications int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxDagBytes <= 0 {
		c.MaxDagBytes = 16 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 200_000
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxReplications <= 0 {
		c.MaxReplications = 25_000
	}
	return c
}

// Server is the HTTP serving layer over the prio pipeline. Construct
// with New; the zero value is not usable.
type Server struct {
	cfg     Config
	adm     *admission
	met     *metrics
	tenants *tenantCaches
	mux     *http.ServeMux
	routes  []string
}

// New returns a Server with its mux fully registered.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults()}
	s.adm = newAdmission(s.cfg.MaxInFlight, s.cfg.MaxQueue, s.cfg.QueueTimeout)
	s.tenants = newTenantCaches(s.cfg.MaxTenants)
	s.mux = http.NewServeMux()

	type route struct {
		pattern string
		admit   bool // subject to admission control (scheduling work)
		h       http.HandlerFunc
	}
	table := []route{
		{"POST /v1/prioritize", true, s.handlePrioritize},
		{"POST /v1/simulate", true, s.handleSimulate},
		{"GET /v1/workloads", false, s.handleWorkloads},
		{"GET /healthz", false, s.handleHealthz},
		{"GET /metrics", false, s.handleMetrics},
	}
	for _, rt := range table {
		s.routes = append(s.routes, rt.pattern)
	}
	s.met = newMetrics(s.routes)
	for _, rt := range table {
		s.mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, rt.admit, rt.h))
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Routes lists every registered route pattern in registration order;
// the API-documentation test walks it against docs/API.md.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// Metrics returns the current observability snapshot (the GET /metrics
// document).
func (s *Server) Metrics() Snapshot { return s.met.snapshot(s.adm, s.tenants) }

// statusWriter records the status code a handler wrote so the
// instrumentation wrapper can classify the response.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with admission control (when admit is
// set) and per-route metrics.
func (s *Server) instrument(pattern string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	rm := s.met.route(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() { rm.record(sw.status, time.Since(start)) }()
		if admit {
			switch s.adm.acquire(r.Context()) {
			case admitOK:
				defer s.adm.release()
			case admitQueueFull:
				s.met.shedQueueFull.Add(1)
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests,
					fmt.Sprintf("accept queue full (%d in flight, %d queued); retry later", s.cfg.MaxInFlight, s.cfg.MaxQueue))
				return
			case admitDeadline:
				s.met.shedDeadline.Add(1)
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests,
					fmt.Sprintf("shed after queueing %v without a free slot; retry later", s.cfg.QueueTimeout))
				return
			case admitCanceled:
				s.met.clientGone.Add(1)
				sw.status = 0 // no response reaches the client
				return
			}
		}
		h(sw, r)
	}
}

// errorBody is the JSON error envelope shared by every non-2xx
// response the handlers write.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The encode error is unrecoverable mid-response and the connection
	// is the client's problem at that point.
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Status: status})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// tenantName extracts the cache-namespace name from the request.
func tenantName(r *http.Request) string {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return defaultTenant
	}
	if len(t) > 128 {
		t = t[:128]
	}
	return t
}

// readDag reads, parses, and freezes the request body, enforcing the
// size limits. On failure it has already written the error response
// and returns ok=false.
func (s *Server) readDag(w http.ResponseWriter, r *http.Request) (*dagman.File, *dag.Frozen, bool) {
	if r.ContentLength > s.cfg.MaxDagBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("dag file is %d bytes; limit is %d (tune -max-dag-bytes)", r.ContentLength, s.cfg.MaxDagBytes))
		return nil, nil, false
	}
	f, err := dagman.Parse(http.MaxBytesReader(w, r.Body, s.cfg.MaxDagBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("dag file exceeds the %d-byte limit (tune -max-dag-bytes)", s.cfg.MaxDagBytes))
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return nil, nil, false
	}
	if len(f.Splices) > 0 {
		writeError(w, http.StatusBadRequest,
			"SPLICE is not supported over HTTP: the daemon has no access to the spliced files; flatten the workflow client-side (cmd/prio does this automatically)")
		return nil, nil, false
	}
	g, err := f.Graph()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	if g.NumNodes() > s.cfg.MaxJobs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("dag has %d jobs; limit is %d (tune -max-jobs)", g.NumNodes(), s.cfg.MaxJobs))
		return nil, nil, false
	}
	return f, g, true
}

// handlePrioritize runs the prio pipeline on the posted DAGMan file.
// format=json (default) returns the structured schedule; format=dag
// returns the instrumented DAGMan text, byte-identical to what
// cmd/prio emits for the same input. Either response is a function of
// the request alone: no clock, gauge, process state or map order may
// reach it (TestPrioritizeResponseDeterministic and the differential
// tests pin both).
func (s *Server) handlePrioritize(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "dag":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q: want json or dag", format))
		return
	}
	f, g, ok := s.readDag(w, r)
	if !ok {
		return
	}
	opts := core.Options{Cache: s.tenants.get(tenantName(r))}
	sched := core.PrioritizeOpts(g, opts)

	if format == "dag" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(f.InstrumentIDs(sched.Priority))
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	writePrioritizeJSON(sc, g, sched)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(sc.buf.Bytes())
}

// writePrioritizeJSON renders the schedule response by hand into the
// pooled buffer: the output is deterministic (jobs in node-index order,
// execution order as scheduled) and steady-state serving reuses the
// buffer instead of building an ephemeral map-based document per
// request.
func writePrioritizeJSON(sc *scratch, g *dag.Frozen, sched *core.Schedule) {
	buf := &sc.buf
	num := func(n int) {
		sc.qbuf = strconv.AppendInt(sc.qbuf[:0], int64(n), 10)
		buf.Write(sc.qbuf)
	}
	quoted := func(name string) {
		sc.qbuf = appendJSONString(sc.qbuf[:0], name)
		buf.Write(sc.qbuf)
	}
	buf.WriteString(`{"jobs":`)
	num(g.NumNodes())
	buf.WriteString(`,"arcs":`)
	num(g.NumArcs())
	buf.WriteString(`,"components":`)
	num(len(sched.Components))
	buf.WriteString(`,"shortcuts_removed":`)
	num(len(sched.Decomposition.Shortcuts))
	buf.WriteString(`,"order":[`)
	for i, v := range sched.Order {
		if i > 0 {
			buf.WriteByte(',')
		}
		quoted(g.Name(v))
	}
	buf.WriteString(`],"priorities":{`)
	for v := 0; v < g.NumNodes(); v++ {
		if v > 0 {
			buf.WriteByte(',')
		}
		quoted(g.Name(v))
		buf.WriteByte(':')
		num(sched.Priority[v])
	}
	buf.WriteString("}}\n")
}

// jsonHex digits for \u00XX control-character escapes.
const jsonHex = "0123456789abcdef"

// appendJSONString appends s to dst as an RFC 8259 string literal.
// strconv.AppendQuote is not usable here: it emits Go string-literal
// escapes (\xff for invalid UTF-8, \U0001F600 for runes outside the
// BMP's escape range) that JSON decoders reject — FuzzPrioritizeRequest
// found exactly that with a job named "\xff". Invalid UTF-8 becomes
// U+FFFD, matching encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if r < 0x20 {
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[r>>4], jsonHex[r&0xf])
			} else {
				dst = utf8.AppendRune(dst, r)
			}
		}
	}
	return append(dst, '"')
}

// simResponse is the /v1/simulate document.
type simResponse struct {
	Jobs     int       `json:"jobs"`
	PolicyA  string    `json:"policy_a"`
	PolicyB  string    `json:"policy_b"`
	MuBIT    float64   `json:"mu_bit"`
	MuBS     float64   `json:"mu_bs"`
	P        int       `json:"p"`
	Q        int       `json:"q"`
	Seed     uint64    `json:"seed"`
	ExecTime ratioJSON `json:"exec_time"`
	Stalling ratioJSON `json:"stalling"`
	Util     ratioJSON `json:"utilization"`
}

// ratioJSON mirrors stats.RatioCI (the A/B ratio confidence interval).
type ratioJSON struct {
	Median float64 `json:"median"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Valid  bool    `json:"valid"`
}

func toRatioJSON(c stats.RatioCI) ratioJSON {
	return ratioJSON{Median: c.Median, Lo: c.Lo, Hi: c.Hi, Mean: c.Mean, Std: c.Std, Valid: c.Valid}
}

// handleSimulate runs the Section 4 grid model on the posted dag at one
// (mu_bit, mu_bs) parameter point and reports the A/B ratio confidence
// intervals (defaults compare PRIO against FIFO).
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	muBIT, err := floatParam(q.Get("mu_bit"), 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "mu_bit: "+err.Error())
		return
	}
	muBS, err := floatParam(q.Get("mu_bs"), 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "mu_bs: "+err.Error())
		return
	}
	// ParseFloat accepts NaN and Inf, which would hold an admission
	// slot and a CPU forever: Validate refuses them with the rest.
	params := sim.DefaultParams(muBIT, muBS)
	if err := params.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "mu_bit, mu_bs: "+err.Error())
		return
	}
	p, err := intParam(q.Get("p"), 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "p: "+err.Error())
		return
	}
	qq, err := intParam(q.Get("q"), 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "q: "+err.Error())
		return
	}
	if p < 1 || qq < 1 {
		writeError(w, http.StatusBadRequest, "p and q must be at least 1")
		return
	}
	// Divide rather than multiply: p*q can overflow to a small value
	// (p = q = 2^32 gives 0) and pass, and the simulation then asks for
	// more memory than the host has.
	if p > s.cfg.MaxReplications/qq {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("p = %d, q = %d: more than %d replications (tune -max-replications)", p, qq, s.cfg.MaxReplications))
		return
	}
	seed, err := intParam(q.Get("seed"), 1)
	if err != nil || seed < 0 {
		writeError(w, http.StatusBadRequest, "seed: must be a non-negative integer")
		return
	}
	polA, polB := q.Get("policy_a"), q.Get("policy_b")
	if polA == "" {
		polA = "prio"
	}
	if polB == "" {
		polB = "fifo"
	}

	_, g, ok := s.readDag(w, r)
	if !ok {
		return
	}
	opts := core.Options{Cache: s.tenants.get(tenantName(r))}
	factoryA, err := sim.PolicyFactoryOpts(polA, g, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "policy_a: "+err.Error())
		return
	}
	factoryB, err := sim.PolicyFactoryOpts(polB, g, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "policy_b: "+err.Error())
		return
	}
	// One admission slot is one CPU's worth of work: keep the
	// simulation single-worker so a simulate request cannot grab every
	// core from under the other in-flight requests.
	c := sim.Compare(g, params, factoryA, factoryB,
		sim.ExperimentOptions{P: p, Q: qq, Seed: uint64(seed), Workers: 1})
	writeJSON(w, simResponse{
		Jobs:     g.NumNodes(),
		PolicyA:  polA,
		PolicyB:  polB,
		MuBIT:    muBIT,
		MuBS:     muBS,
		P:        p,
		Q:        qq,
		Seed:     uint64(seed),
		ExecTime: toRatioJSON(c.ExecTime),
		Stalling: toRatioJSON(c.Stalling),
		Util:     toRatioJSON(c.Utilization),
	})
}

// workloadsResponse is the /v1/workloads document.
type workloadsResponse struct {
	// Paper lists the four scientific dags of the paper's evaluation.
	Paper []string `json:"paper"`
	// Classic lists the theory repertoire (mesh, reduction, ...).
	Classic []string `json:"classic"`
	// Policies lists the names /v1/simulate accepts for policy_a/b.
	Policies []string `json:"policies"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, workloadsResponse{
		Paper:    workloads.Names(),
		Classic:  workloads.ClassicNames(),
		Policies: sim.PolicyNames(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
