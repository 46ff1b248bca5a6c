package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"galois/internal/session"
)

// APIError is a non-2xx server response surfaced to client callers.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

// IsRetryable reports whether the error is a 429 queue-full rejection — the
// one condition a closed-loop client should back off and retry.
func (e *APIError) IsRetryable() bool { return e.Status == http.StatusTooManyRequests }

// Client talks to a galoisd server. The zero value is not usable; call
// NewClient with the server's base URL (e.g. "http://127.0.0.1:8080").
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base. hc may be nil for
// http.DefaultClient semantics with no overall request timeout (job
// deadlines are enforced server-side).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// BaseURL returns the server base URL the client was constructed with.
func (c *Client) BaseURL() string { return c.base }

// post sends v as JSON and decodes the 2xx response into out.
func (c *Client) post(ctx context.Context, path string, v, out any) error {
	return c.do(ctx, http.MethodPost, path, v, out)
}

// do sends v (when non-nil) as JSON via method and decodes the 2xx
// response into out.
func (c *Client) do(ctx context.Context, method, path string, v, out any) error {
	var rd io.Reader
	if v != nil {
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if v != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiError(resp *http.Response) error {
	var eb errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
		eb.Error = strings.TrimSpace(string(data))
	}
	ae := &APIError{Status: resp.StatusCode, Msg: eb.Error}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		ae.RetryAfter = time.Duration(ra) * time.Second
	}
	return ae
}

// Submit runs one job and returns its result.
func (c *Client) Submit(ctx context.Context, spec Spec) (*JobResult, error) {
	var res JobResult
	if err := c.post(ctx, "/jobs", spec, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Verify re-executes a receipt on the server and returns the comparison.
func (c *Client) Verify(ctx context.Context, rcpt Receipt) (*VerifyResult, error) {
	var vr VerifyResult
	if err := c.post(ctx, "/verify", rcpt, &vr); err != nil {
		return nil, err
	}
	return &vr, nil
}

// CreateSession opens a stateful session and returns its info (including
// the genesis link of the receipt chain).
func (c *Client) CreateSession(ctx context.Context, is session.InitSpec) (*SessionInfo, error) {
	var si SessionInfo
	if err := c.post(ctx, "/sessions", is, &si); err != nil {
		return nil, err
	}
	return &si, nil
}

// Session fetches a session's info and full receipt chain.
func (c *Client) Session(ctx context.Context, id string) (*SessionInfo, error) {
	var si SessionInfo
	if err := c.do(ctx, http.MethodGet, "/sessions/"+id, nil, &si); err != nil {
		return nil, err
	}
	return &si, nil
}

// CloseSession evicts a session (sealing a "closed" tombstone link) and
// returns its final info.
func (c *Client) CloseSession(ctx context.Context, id string) (*SessionInfo, error) {
	var si SessionInfo
	if err := c.do(ctx, http.MethodDelete, "/sessions/"+id, nil, &si); err != nil {
		return nil, err
	}
	return &si, nil
}

// SessionBatch submits one mutation batch and returns the new chain link.
func (c *Client) SessionBatch(ctx context.Context, id string, b session.BatchSpec) (*BatchResult, error) {
	var br BatchResult
	if err := c.post(ctx, "/sessions/"+id+"/batches", b, &br); err != nil {
		return nil, err
	}
	return &br, nil
}

// SessionVerify replays a session's chain server-side; finalChain, when
// non-empty, is additionally checked against the recomputed head (the
// last-receipt audit).
func (c *Client) SessionVerify(ctx context.Context, id, finalChain string, threads int) (*session.VerifyOutcome, error) {
	var out session.VerifyOutcome
	req := sessionVerifyRequest{FinalChain: finalChain, Threads: threads}
	if err := c.post(ctx, "/sessions/"+id+"/verify", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the server's load/liveness snapshot.
func (c *Client) Healthz(ctx context.Context) (*Healthz, error) {
	var h Healthz
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches the plain-text metrics dump.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", apiError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Kinds lists the job kinds the server accepts.
func (c *Client) Kinds(ctx context.Context) ([]string, error) {
	var out struct {
		Kinds []string `json:"kinds"`
	}
	if err := c.do(ctx, http.MethodGet, "/kinds", nil, &out); err != nil {
		return nil, err
	}
	return out.Kinds, nil
}
