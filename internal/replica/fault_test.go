package replica

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func faultServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFaultTransportPassThrough(t *testing.T) {
	ts := faultServer(t, "hello")
	ft := &FaultTransport{}
	client := &http.Client{Transport: ft}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(b) != "hello" {
		t.Fatalf("pass-through read = %q, %v", b, err)
	}
	if ft.Requests() != 1 || ft.Injected() != 0 {
		t.Fatalf("counters = %d requests, %d injected", ft.Requests(), ft.Injected())
	}
}

func TestFaultTransportDropAndStatus(t *testing.T) {
	ts := faultServer(t, "hello")
	ft := &FaultTransport{}
	ft.SetDecide(FaultFirst(1, Fault{Err: syscall.ECONNRESET}))
	client := &http.Client{Transport: ft}
	if _, err := client.Get(ts.URL); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("dropped request error = %v", err)
	}
	ft.SetDecide(FaultAll(Fault{Status: http.StatusBadGateway}))
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("synthetic status = %d", resp.StatusCode)
	}
	if ft.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", ft.Injected())
	}
}

func TestFaultTransportTruncatesBody(t *testing.T) {
	ts := faultServer(t, strings.Repeat("x", 1024))
	ft := &FaultTransport{}
	ft.SetDecide(FaultAll(Fault{TruncateBody: 16}))
	client := &http.Client{Transport: ft}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read error = %v (read %d bytes)", err, len(b))
	}
	if len(b) != 16 {
		t.Fatalf("read %d bytes before the cut, want 16", len(b))
	}
}

func TestFaultTransportStallRespectsContext(t *testing.T) {
	ts := faultServer(t, "hello")
	ft := &FaultTransport{}
	ft.SetDecide(FaultAll(Fault{Stall: time.Hour}))
	client := &http.Client{Transport: ft}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("stalled request did not fail with the context")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall outlived its context: %s", elapsed)
	}
}

// TestClientRetriesThroughTransientFaults drives the real client
// backoff: the first attempts die (reset, then 502) and the request
// still completes on a later attempt.
func TestClientRetriesThroughTransientFaults(t *testing.T) {
	ts := faultServer(t, `{"generation":1,"checkpointSeq":1,"files":[{"name":"a","size":1,"crc32c":1}]}`)
	c := NewClient(ts.URL)
	c.SetRetry(4, time.Millisecond)
	ft := &FaultTransport{}
	c.SetTransport(ft)
	ft.SetDecide(func(n int64, _ *http.Request) Fault {
		switch n {
		case 1:
			return Fault{Err: syscall.ECONNRESET}
		case 2:
			return Fault{Status: http.StatusBadGateway}
		}
		return Fault{}
	})
	rm, err := c.Manifest(context.Background())
	if err != nil {
		t.Fatalf("manifest through transient faults: %v", err)
	}
	if rm.Generation != 1 {
		t.Fatalf("manifest generation = %d", rm.Generation)
	}
	if ft.Requests() != 3 || ft.Injected() != 2 {
		t.Fatalf("counters = %d requests, %d injected; want 3, 2", ft.Requests(), ft.Injected())
	}
}

// TestClientExhaustsRetries: a hard outage surfaces as an error after
// the retry budget, not a hang.
func TestClientExhaustsRetries(t *testing.T) {
	ts := faultServer(t, "hello")
	c := NewClient(ts.URL)
	c.SetRetry(3, time.Millisecond)
	ft := &FaultTransport{}
	c.SetTransport(ft)
	ft.SetDecide(FaultAll(Fault{Status: http.StatusServiceUnavailable}))
	if _, err := c.Manifest(context.Background()); err == nil {
		t.Fatal("hard 503 outage did not error")
	}
	if ft.Requests() != 3 {
		t.Fatalf("attempts = %d, want the full retry budget of 3", ft.Requests())
	}
}

func TestLogRetryAfterCapped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "86400")
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	chunk, err := NewClient(ts.URL).Log(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.AtWatermark {
		t.Fatal("204 did not decode as AtWatermark")
	}
	if chunk.RetryAfter != maxRetryAfter {
		t.Fatalf("RetryAfter = %s, want capped at %s", chunk.RetryAfter, maxRetryAfter)
	}
}
