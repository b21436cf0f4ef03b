package obs

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mimoctl/internal/telemetry"
)

// /events handler edge cases: parameter validation, the unlimited
// limit=0 stream, and the CSV rendering path.

func TestEventsHandlerNoBus(t *testing.T) {
	f := NewFleet(Options{})
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without a bus, want 404", resp.StatusCode)
	}
}

func TestEventsHandlerBadLimit(t *testing.T) {
	bus := NewBus(64)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()
	for _, q := range []string{"?limit=-1", "?limit=abc", "?limit=1.5"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestEventsHandlerCSVLimitZero pins the limit=0 contract: zero means
// unlimited — the stream keeps flowing well past any small limit and
// ends only when the client disconnects, not on its own.
func TestEventsHandlerCSVLimitZero(t *testing.T) {
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	l := f.Register("a")
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()

	// Feed the stream from a pacer goroutine started before the request:
	// the handler sends no response headers until its first event, so a
	// client that connects before any publish would wait forever.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Observe(goodSample())
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"?format=csv&limit=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type %q, want text/csv", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	const wantRows = 10 // would exceed any small default limit
	var lines []string
	for len(lines) < wantRows+1 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != wantRows+1 {
		t.Fatalf("stream ended early with %d lines: %v (scan err %v)", len(lines), lines, sc.Err())
	}
	if !strings.HasPrefix(lines[0], "loop,epoch,mode,") {
		t.Fatalf("CSV header missing: %q", lines[0])
	}
	for _, row := range lines[1:] {
		if !strings.HasPrefix(row, "a,") {
			t.Fatalf("unexpected CSV row: %q", row)
		}
	}
	// Disconnect mid-stream: the handler must unwind without wedging the
	// bus (Close below would hang on a stuck subscriber).
	cancel()
}

// TestEventsHandlerCSVLimited pins the interaction of format=csv with
// a positive limit: exactly N data rows after the header, then EOF.
func TestEventsHandlerCSVLimited(t *testing.T) {
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	l := f.Register("a")
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()

	done := make(chan []string, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?format=csv&limit=2")
		if err != nil {
			done <- []string{"err: " + err.Error()}
			return
		}
		defer resp.Body.Close()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		done <- lines
	}()
	for {
		select {
		case lines := <-done:
			if len(lines) != 3 {
				t.Fatalf("got %d CSV lines, want header+2: %v", len(lines), lines)
			}
			return
		default:
			l.Observe(goodSample())
		}
	}
}

// TestEventsHandlerStreamCap pins the concurrent-stream bound: with
// maxEventStreams streams open, one more is refused with 429 and counted
// in obs_events_rejected_total, and a cancelled stream frees its slot.
func TestEventsHandlerStreamCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Registry: reg, Bus: bus})
	l := f.Register("a")
	h := f.EventsHandler()
	exited := make(chan struct{}, maxEventStreams+2) // one per request below
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		exited <- struct{}{}
	}))
	defer srv.Close()
	rejected := reg.Counter("obs_events_rejected_total", "")

	// The handler sends no headers until its first event, so keep events
	// flowing: a stream's response arriving means it holds a slot.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Observe(goodSample())
				time.Sleep(time.Millisecond)
			}
		}
	}()

	open := func() (*http.Response, context.CancelFunc) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		return resp, func() { cancel(); resp.Body.Close() }
	}
	cancels := make([]context.CancelFunc, 0, maxEventStreams)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	for i := 0; i < maxEventStreams; i++ {
		resp, cancel := open()
		cancels = append(cancels, cancel)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d, want 200", i, resp.StatusCode)
		}
	}

	resp, cancel := open()
	cancel()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stream over the cap: status %d, want 429", resp.StatusCode)
	}
	if got := rejected.Value(); got != 1 {
		t.Fatalf("obs_events_rejected_total = %d after one refusal, want 1", got)
	}

	<-exited // the refused request's handler

	// Cancel one stream; once its handler returns, the slot is free.
	cancels[0]()
	<-exited
	resp, cancel = open()
	cancels[0] = cancel
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after a cancel: status %d, want 200", resp.StatusCode)
	}
}
