package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// normalizeBase turns a user-supplied coordinator address into a base
// URL: a bare host:port gets an http:// scheme, trailing slashes are
// trimmed.
func normalizeBase(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// postJSON sends one JSON request and decodes the JSON response,
// attaching the shared-secret bearer token when one is configured. A
// non-2xx status is returned as a *StatusError so callers can tell a
// rejected request (a 400 for an invalid submission, a 401 without
// the token) from a transport failure.
func postJSON(ctx context.Context, hc *http.Client, url, token string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("remote: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("remote: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if token != "" {
		hreq.Header.Set("Authorization", "Bearer "+token)
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4<<10))
		return &StatusError{Code: hresp.StatusCode, Msg: strings.TrimSpace(string(msg))}
	}
	if resp == nil {
		return nil
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("remote: decode response: %w", err)
	}
	return nil
}

// StatusError is a non-2xx coordinator response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("coordinator returned %d: %s", e.Code, e.Msg)
}

// backoff yields capped exponential retry delays: base, 2*base, ...
// up to max.
func backoff(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(min(attempt, 16))
	if d > max || d <= 0 {
		return max
	}
	return d
}

// sleepCtx sleeps for d or until the context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
