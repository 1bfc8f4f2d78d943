package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// requestDeadline bounds every request the admission tests make. A
// select in acquire that lost its default or timeout case, or a
// handler that blocks, then fails the test within seconds and names
// the stage the request is stuck in, instead of hanging the binary
// until its timeout.
const requestDeadline = 5 * time.Second

// serveWithin runs req through s's mux on its own goroutine and returns
// the recorded response. The test itself holds heldSlots in-flight
// slots and heldQueue accept-queue seats; the failure message uses them
// to tell a request stuck in admission from one stuck in the handler.
func serveWithin(t *testing.T, s *Server, req *http.Request, heldSlots, heldQueue int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
		return rec
	case <-time.After(requestDeadline):
		t.Fatalf("%s %s: no response within %v: stuck %s",
			req.Method, req.URL, requestDeadline, stuckStage(s, heldSlots, heldQueue))
		return nil
	}
}

// stuckStage names where an unanswered request is waiting, from the
// admission occupancy beyond what the test holds itself.
func stuckStage(s *Server, heldSlots, heldQueue int) string {
	slots, queued := s.adm.inFlight(), s.adm.queued()
	switch {
	case queued > heldQueue:
		return fmt.Sprintf("waiting in the accept queue (%d queued, %d in flight)", queued, slots)
	case slots > heldSlots:
		return fmt.Sprintf("in the handler, holding an in-flight slot (%d in flight, %d held by the test)", slots, heldSlots)
	default:
		return fmt.Sprintf("in admission before the accept queue (%d in flight and %d queued, all held by the test)", slots, queued)
	}
}

func prioritizeRequest(ctx context.Context) *http.Request {
	return httptest.NewRequest("POST", "/v1/prioritize", strings.NewReader(fig3Dag)).WithContext(ctx)
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body does not decode: %v\n%s", err, rec.Body.Bytes())
	}
	return e
}

func TestQueueFullImmediate429(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	// Occupy the only in-flight slot and the only queue seat, so the
	// next request is rejected without waiting.
	s.adm.slots <- struct{}{}
	s.adm.queue <- struct{}{}
	defer func() { <-s.adm.slots; <-s.adm.queue }()

	rec := serveWithin(t, s, prioritizeRequest(context.Background()), 1, 1)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if e := decodeError(t, rec); !strings.Contains(e.Error, "queue full") {
		t.Fatalf("error = %q, want a queue-full message", e.Error)
	}
	if got := s.Metrics().Shed.QueueFull; got != 1 {
		t.Fatalf("shed.queue_full = %d, want 1", got)
	}
}

func TestDeadlineShed429(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond})
	// Occupy the slot: the request queues, waits out the deadline, and
	// is shed.
	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()

	start := time.Now()
	rec := serveWithin(t, s, prioritizeRequest(context.Background()), 1, 0)
	waited := time.Since(start)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if e := decodeError(t, rec); !strings.Contains(e.Error, "shed") {
		t.Fatalf("error = %q, want a shed message", e.Error)
	}
	if waited < 30*time.Millisecond {
		t.Fatalf("shed after %v, before the 30ms deadline", waited)
	}
	if got := s.Metrics().Shed.Deadline; got != 1 {
		t.Fatalf("shed.deadline = %d, want 1", got)
	}
	if q := s.adm.queued(); q != 0 {
		t.Fatalf("queued = %d after the shed, want 0", q)
	}
}

// TestQueuedRequestCanceled: a request whose client goes away while it
// waits in the accept queue must leave the queue at once and count as
// shed.client_gone. QueueTimeout is a minute, so only the request
// context's cancellation can release it within the 2 s bound: an
// admission wait that drops its ctx.Done case, or a handler path that
// detaches the request from its context, holds the queue seat for the
// full minute.
func TestQueuedRequestCanceled(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	s.adm.slots <- struct{}{} // the only slot is busy
	held := true
	defer func() {
		if held {
			<-s.adm.slots
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, prioritizeRequest(ctx))
	}()
	for deadline := time.Now().Add(2 * time.Second); s.adm.queued() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("request never queued: stuck %s", stuckStage(s, 1, 0))
		}
	}

	gone := s.Metrics().Shed.ClientGone
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("canceled request still unanswered 2s after its client went away: stuck %s", stuckStage(s, 1, 0))
	}
	if got := s.Metrics().Shed.ClientGone; got != gone+1 {
		t.Fatalf("shed.client_gone = %d, want %d", got, gone+1)
	}
	if q := s.adm.queued(); q != 0 {
		t.Fatalf("queued = %d after the cancellation, want 0", q)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("a canceled request wrote a response: %q", rec.Body.Bytes())
	}

	// The freed slot serves the next request promptly.
	<-s.adm.slots
	held = false
	if rec := serveWithin(t, s, prioritizeRequest(context.Background()), 0, 0); rec.Code != http.StatusOK {
		t.Fatalf("request after the cancellation: status = %d, want 200", rec.Code)
	}
}
