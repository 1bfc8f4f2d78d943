package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzPrioritizeRequest hammers POST /v1/prioritize through the real
// mux with arbitrary bodies (TestPrioritizeResponseDeterministic covers
// concurrency, tenants and /metrics scrapes on one paper dag) and
// checks:
//
//   - determinism: the same request twice (the second hitting the
//     tenant cache) yields the same status and byte-identical body;
//   - every response, success or error, is well-formed: the JSON
//     document decodes and is internally consistent, the error
//     envelope is valid JSON;
//   - format=dag is a fixed point: feeding the instrumented DAGMan
//     text back through the handler reproduces it byte for byte
//     (re-prioritizing a prioritized workflow changes nothing).
func FuzzPrioritizeRequest(f *testing.F) {
	f.Add(fig3Dag, false)
	f.Add(fig3Dag, true)
	f.Add("JOB solo solo.sub\n", false)
	f.Add("", false)
	f.Add("JOB a a.sub\nPARENT a CHILD a\n", false)
	f.Add("JOB a a.sub\nPRIORITY a 9\n", true)
	f.Add("not a dag\n", true)

	s := New(Config{MaxJobs: 2000, MaxDagBytes: 1 << 20})
	h := s.Handler()
	do := func(body string, dagFormat bool) (int, []byte) {
		url := "/v1/prioritize"
		if dagFormat {
			url += "?format=dag"
		}
		req := httptest.NewRequest("POST", url, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}

	f.Fuzz(func(t *testing.T, body string, dagFormat bool) {
		code1, resp1 := do(body, dagFormat)
		code2, resp2 := do(body, dagFormat)
		if code1 != code2 || !bytes.Equal(resp1, resp2) {
			t.Fatalf("same request, different responses: status %d vs %d\nfirst:  %q\nsecond: %q",
				code1, code2, resp1, resp2)
		}
		if code1 != http.StatusOK {
			if !json.Valid(resp1) {
				t.Fatalf("status %d with a non-JSON error body: %q", code1, resp1)
			}
			return
		}
		if dagFormat {
			code3, resp3 := do(string(resp1), true)
			if code3 != http.StatusOK {
				t.Fatalf("instrumented dag rejected on re-submit with %d: %q", code3, resp3)
			}
			if !bytes.Equal(resp3, resp1) {
				t.Fatalf("format=dag is not a fixed point:\nfirst:  %q\nsecond: %q", resp1, resp3)
			}
			return
		}
		var doc prioritizeJSON
		if err := json.Unmarshal(resp1, &doc); err != nil {
			t.Fatalf("200 response does not decode: %v\nbody: %q", err, resp1)
		}
		if len(doc.Order) != doc.Jobs || len(doc.Priorities) != doc.Jobs {
			t.Fatalf("document inconsistent: jobs=%d, %d order entries, %d priorities",
				doc.Jobs, len(doc.Order), len(doc.Priorities))
		}
	})
}
