package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptrace"
	"regexp"
	"runtime"
	"time"
)

// newHTTPClient returns the one client a run's goroutines share: keep-alive
// connections, at most one per client goroutine and never more than nproc.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte
	ms     float64 // request written → body fully read
}

// do sends one request and reads the whole response. With a tracer it also
// records the client-side phases under parent: writing the request, waiting
// for the first response byte (where all server time goes), reading the body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, tr *tracer, parent, op int) (reply, error) {
	var (
		rp               reply
		wrote, firstByte time.Time
	)
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return rp, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return rp, err
	}
	rp.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return rp, err
	}
	rp.status = resp.StatusCode
	rp.cache = resp.Header.Get("X-Cache")
	rp.ms = ms(end.Sub(start).Nanoseconds())
	if tr != nil && !wrote.IsZero() && !firstByte.IsZero() {
		tr.add("http.write", start, wrote, parent, op)
		tr.add("http.wait", wrote, firstByte, parent, op)
		tr.add("http.read", firstByte, end, parent, op)
	}
	return rp, nil
}

// query is the body of POST /v1/query.
type query struct {
	App     string `json:"app"`
	Iters   int    `json:"iters,omitempty"`
	Root    uint32 `json:"root,omitempty"`
	Values  bool   `json:"values,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
}

func (q query) json() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // a struct of scalars always marshals
	}
	return b
}

// key identifies the cache entry a query maps to on one graph version.
func (q query) key() string {
	return fmt.Sprintf("%s/%d/%d/%t", q.App, q.Iters, q.Root, q.Values)
}

// summary is the part of a query response the checks read.
type summary struct {
	ElapsedMS   float64  `json:"elapsed_ms"`
	Incremental bool     `json:"incremental"`
	RankSum     *float64 `json:"rank_sum"`
	Components  *int     `json:"components"`
	Reachable   *int     `json:"reachable"`
}

var valuesKey = []byte(`,"values":`)

// parseSummary decodes a query response without touching its per-vertex
// vector: response keys are sorted, so "values" is last and everything the
// checks need precedes it. Skipping ~780 KB of numbers keeps the load
// generator's own CPU use small beside the server it shares two cores with.
func parseSummary(body []byte) (summary, error) {
	var s summary
	if i := bytes.Index(body, valuesKey); i >= 0 {
		body = append(append([]byte(nil), body[:i]...), '}')
	}
	err := json.Unmarshal(body, &s)
	return s, err
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fingerprint identifies a response body for the hit-equals-miss check.
func fingerprint(body []byte) uint64 {
	return uint64(len(body))<<32 | uint64(crc32.Checksum(body, crcTable))
}

// perProcess matches the response fields that legitimately differ between
// two processes answering the same request.
var perProcess = regexp.MustCompile(`"run_id":"[^"]*"|"elapsed_ms":[0-9]+|"partitions":[0-9]+`)

// normalizeBody blanks those fields so bodies can be compared byte for byte.
func normalizeBody(b []byte) string {
	return string(perProcess.ReplaceAll(b, []byte(`"_":0`)))
}

// getJSON fetches url and decodes the response into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	rp, err := do(ctx, c, http.MethodGet, url, nil, nil, noSpan, 0)
	if err != nil {
		return err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, rp.status, rp.body)
	}
	return json.Unmarshal(rp.body, v)
}

// waitReady polls until check succeeds or the deadline passes.
func waitReady(ctx context.Context, what string, check func() bool) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if check() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready after 120 s", what)
}
