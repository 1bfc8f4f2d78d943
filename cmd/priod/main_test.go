package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// expectJoined polls until the goroutine count is back at baseline and
// fails if it is still above after 5 s: a launcher that returns before
// its goroutines finish, or whose goroutines block forever, leaves them
// behind.
func expectJoined(t *testing.T, what string, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutine(s) running", what, runtime.NumGoroutine()-baseline)
		}
	}
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	addrCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	defer func() { testHookListen = nil }()

	baseline := runtime.NumGoroutine()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-max-inflight", "2", "-queue-timeout", "5s"}, stop)
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	dag := "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a CHILD b\nPARENT a CHILD c\n"
	presp, err := http.Post(base+"/v1/prioritize", "text/plain", strings.NewReader(dag))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("prioritize status = %d", presp.StatusCode)
	}
	var got struct {
		Jobs       int            `json:"jobs"`
		Priorities map[string]int `json:"priorities"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Jobs != 3 || got.Priorities["a"] != 3 {
		t.Fatalf("response = %+v, want 3 jobs with a at priority 3", got)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	// Shutdown closed the server side of the client's keep-alive
	// connection; its client-side goroutines unwind on their own.
	http.DefaultClient.CloseIdleConnections()
	expectJoined(t, "a daemon start/stop", baseline)
}

func TestRejectsPositionalArguments(t *testing.T) {
	if err := run([]string{"stray.dag"}, nil); err == nil || !strings.Contains(err.Error(), "positional") {
		t.Fatalf("err = %v, want a positional-argument error", err)
	}
}
