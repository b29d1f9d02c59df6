// Package client is the Go client for the smtdramd daemon (internal/server):
// typed submission, polling, cancellation and SSE progress consumption. Each
// call is one HTTP attempt. The tests and cmd/bench's serving workload drive
// the daemon through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"smtdram/internal/server"
)

// Client talks to one daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
}

// New builds a client for baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RetryAfterError is returned when the daemon sheds load (429): the queue was
// full and the caller should wait After before resubmitting.
type RetryAfterError struct {
	After time.Duration
	Msg   string
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("server busy (retry after %s): %s", e.After, e.Msg)
}

// APIError is any other non-2xx response.
type APIError struct {
	Code int
	Msg  string
}

func (e *APIError) Error() string { return fmt.Sprintf("server returned %d: %s", e.Code, e.Msg) }

// errorBody extracts the {"error": ...} payload.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			after = time.Duration(v) * time.Second
		}
		return &RetryAfterError{After: after, Msg: errorBody(raw)}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &APIError{Code: resp.StatusCode, Msg: errorBody(raw)}
	}
	if out == nil {
		return nil
	}
	if rawOut, ok := out.(*json.RawMessage); ok {
		*rawOut = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

// SubmitSim submits a simulation, returning its job status (state "done"
// immediately on a cache hit).
func (c *Client) SubmitSim(ctx context.Context, req server.SimRequest) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/sim", req, &st)
	return st, err
}

// SubmitFigure submits a figure sweep.
func (c *Client) SubmitFigure(ctx context.Context, req server.FigRequest) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/figures", req, &st)
	return st, err
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a done job's raw result bytes — the payload that is
// byte-identical to `smtdram -json` for the same configuration.
func (c *Client) Result(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// Trace fetches one job's Chrome trace_event JSON — its wall-clock phases
// (admission → queue → run → respond) plus, for jobs submitted with
// SimRequest.Trace, the cycle-domain request lifecycle, all in one
// Perfetto-loadable payload.
func (c *Client) Trace(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &raw)
	return raw, err
}

// Stats fetches the daemon's /v1/stats snapshot.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Healthz probes /healthz liveness: nil means the process is serving HTTP.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Readyz fetches the /readyz readiness report. Unlike the other calls, a 503
// is not an error here: readiness is the report's Ready field, and the
// reasons for unreadiness travel in the body either way.
func (c *Client) Readyz(ctx context.Context) (server.Readiness, error) {
	var rep server.Readiness
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return rep, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return rep, &APIError{Code: resp.StatusCode, Msg: errorBody(raw)}
	}
	return rep, json.Unmarshal(raw, &rep)
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait polls until the job reaches a terminal state, at the given interval
// (default 10ms), or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCancelled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Event is one server-sent event from a job's stream.
type Event struct {
	// Name is "progress" or a terminal state ("done", "failed", "cancelled").
	Name string
	// Data is the event payload: a core.Progress sample for progress
	// events, a JobStatus for terminal ones.
	Data json.RawMessage
}

// Events consumes a job's SSE stream, invoking fn per event until the
// terminal event (after which it returns nil) or ctx/stream end.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return &APIError{Code: resp.StatusCode, Msg: errorBody(raw)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20) // starts at bufio's 4 KB, grows to a long line
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.Name != "":
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Name != "progress" {
				return nil // terminal event
			}
			ev = Event{}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF // stream ended without a terminal event
}
