package client_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smtdram/internal/server"
	"smtdram/internal/server/client"
)

// sse serves one job's event stream: each event as the daemon frames it.
func sse(events ...[2]string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j-1/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range events {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev[0], ev[1])
		}
	}
}

func events(t *testing.T, h http.Handler) ([]client.Event, error) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	var got []client.Event
	err := client.New(ts.URL).Events(context.Background(), "j-1", func(ev client.Event) error {
		got = append(got, ev)
		return nil
	})
	return got, err
}

// TestEventsStopsAtTerminal: progress events arrive in order, the terminal
// event is the last one delivered, and Events returns nil after it.
func TestEventsStopsAtTerminal(t *testing.T) {
	got, err := events(t, sse(
		[2]string{"progress", `{"cycle":100}`},
		[2]string{"progress", `{"cycle":200}`},
		[2]string{"done", `{"id":"j-1","state":"done"}`},
		[2]string{"progress", `{"cycle":300}`},
	))
	if err != nil {
		t.Fatal(err)
	}
	want := []client.Event{
		{Name: "progress", Data: json.RawMessage(`{"cycle":100}`)},
		{Name: "progress", Data: json.RawMessage(`{"cycle":200}`)},
		{Name: "done", Data: json.RawMessage(`{"id":"j-1","state":"done"}`)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Name != want[i].Name || string(got[i].Data) != string(want[i].Data) {
			t.Errorf("event %d = %s %s, want %s %s", i, got[i].Name, got[i].Data, want[i].Name, want[i].Data)
		}
	}
}

// TestEventsLongLine: the reader starts small and grows, so a data line far
// longer than its first buffer still parses whole.
func TestEventsLongLine(t *testing.T) {
	data := `{"pad":"` + strings.Repeat("x", 200<<10) + `"}`
	got, err := events(t, sse([2]string{"done", data}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Data) != data {
		t.Fatalf("got %d events; want one carrying the %d-byte line", len(got), len(data))
	}
}

// TestEventsLineTooLong: a line past the 16 MB cap is an error, not a hang or
// an unbounded buffer.
func TestEventsLineTooLong(t *testing.T) {
	_, err := events(t, sse([2]string{"done", strings.Repeat("x", 16<<20+1)}))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
}

// TestErrorResponses: a 429 is a RetryAfterError carrying the Retry-After
// seconds, and any other non-2xx an APIError carrying the {"error"} text —
// from a submission and from an event stream alike.
func TestErrorResponses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/sim":
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"queue full"}`)
		case "/v1/figures":
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintln(w, `{"error":"bad request body: unknown field"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"unknown job \"j-9\""}`)
		}
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	_, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}})
	var busy *client.RetryAfterError
	if !errors.As(err, &busy) || busy.After != 7*time.Second || busy.Msg != "queue full" {
		t.Errorf("429: err = %#v, want RetryAfterError{7s, queue full}", err)
	}

	var api *client.APIError
	_, err = c.SubmitFigure(ctx, server.FigRequest{Fig: "6"})
	if !errors.As(err, &api) || api.Code != http.StatusBadRequest || api.Msg != "bad request body: unknown field" {
		t.Errorf("400: err = %#v, want APIError{400, bad request body: unknown field}", err)
	}
	err = c.Events(ctx, "j-9", func(client.Event) error { return nil })
	if !errors.As(err, &api) || api.Code != http.StatusNotFound || api.Msg != `unknown job "j-9"` {
		t.Errorf("404 stream: err = %#v, want APIError{404, unknown job}", err)
	}
}
