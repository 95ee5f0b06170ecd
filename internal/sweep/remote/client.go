package remote

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sweep"
)

// Client is the submitter side of the protocol, used by
// cmd/pmpexperiments -remote: submit run specs to a running
// coordinator, poll for their records by RunSpec.ID. A Client is safe
// for concurrent use (every experiment goroutine submits through one).
type Client struct {
	base string
	hc   *http.Client
	// Poll is the results polling interval; <= 0 means 250ms.
	Poll time.Duration
	// MaxSilence bounds how long polling tolerates consecutive
	// transport errors (coordinator down) before giving up; <= 0
	// means 2 minutes.
	MaxSilence time.Duration
	// Token is the shared-secret bearer token sent with every request
	// when the coordinator requires auth (-auth-token). Empty sends no
	// Authorization header.
	Token string
}

// NewClient builds a client for the coordinator address (host:port or
// URL).
func NewClient(addr string) *Client {
	return &Client{
		base: normalizeBase(addr),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// Submit sends a batch of run specs. Submission is idempotent: IDs
// the coordinator already knows are deduplicated, IDs resolved in its
// store are served from it.
func (c *Client) Submit(ctx context.Context, jobs []runspec.RunSpec) (SubmitResponse, error) {
	var resp SubmitResponse
	err := postJSON(ctx, c.hc, c.base+PathSubmit, c.Token, SubmitRequest{Jobs: jobs}, &resp)
	return resp, err
}

// Status fetches the coordinator's current counters.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	err := postJSON(ctx, c.hc, c.base+PathStatus, c.Token, struct{}{}, &st)
	return st, err
}

// Wait polls until every requested ID has resolved, returning the
// records by ID. Transport errors are retried until MaxSilence
// elapses without a successful poll.
func (c *Client) Wait(ctx context.Context, ids []string) (map[string]sweep.Record, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	maxSilence := c.MaxSilence
	if maxSilence <= 0 {
		maxSilence = 2 * time.Minute
	}
	out := make(map[string]sweep.Record, len(ids))
	remaining := make([]string, 0, len(ids))
	for _, id := range ids {
		remaining = append(remaining, id)
	}
	lastOK := time.Now()
	for len(remaining) > 0 {
		var resp ResultsResponse
		err := postJSON(ctx, c.hc, c.base+PathResults, c.Token, ResultsRequest{IDs: remaining}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			if time.Since(lastOK) > maxSilence {
				return out, fmt.Errorf("remote: coordinator unreachable for %v: %w", maxSilence, err)
			}
			if err := sleepCtx(ctx, poll); err != nil {
				return out, err
			}
			continue
		}
		lastOK = time.Now()
		for _, rec := range resp.Records {
			out[rec.ID] = rec
		}
		if resp.Pending == 0 {
			break
		}
		next := remaining[:0]
		for _, id := range remaining {
			if _, ok := out[id]; !ok {
				next = append(next, id)
			}
		}
		remaining = next
		if len(remaining) == 0 {
			break
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return out, err
		}
	}
	return out, nil
}
