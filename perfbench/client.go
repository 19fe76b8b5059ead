package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"blackswan/internal/serve"
)

// The benchmark's HTTP client. In the traced run every request opens a
// root span ("client") and passes its request and span IDs in headers, so
// the server-side spans of the mirror handler join the same request.

const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// reply is one /query round trip as the client saw it.
type reply struct {
	resp *serve.QueryResponse
	sent time.Time
	done time.Time
	err  error
}

func (r reply) wall() time.Duration { return r.done.Sub(r.sent) }

// query sends GET /query for text on system with the default row limit, or
// every row when all is set (the write phase's complete keyspace reads).
// req and parent are 0 outside the traced run.
func (e *env) query(ctx context.Context, req, parent uint64, text, system string, all bool) reply {
	v := url.Values{"q": {text}, "system": {system}}
	if all {
		v.Set("limit", "-1")
	}
	var qr serve.QueryResponse
	rt := e.do(ctx, req, parent, http.MethodGet, "/query?"+v.Encode(), nil, &qr)
	r := reply{sent: rt.sent, done: rt.done, err: rt.err}
	if rt.err == nil {
		r.resp = &qr
	}
	return r
}

// commitReply is one POST /update round trip.
type commitReply struct {
	resp *serve.UpdateResponse
	sent time.Time
	done time.Time
	err  error
}

func (e *env) update(ctx context.Context, req, parent uint64, text string) commitReply {
	form := url.Values{"u": {text}}.Encode()
	var ur serve.UpdateResponse
	rt := e.do(ctx, req, parent, http.MethodPost, "/update", strings.NewReader(form), &ur)
	c := commitReply{sent: rt.sent, done: rt.done, err: rt.err}
	if rt.err == nil {
		c.resp = &ur
	}
	return c
}

type roundTrip struct {
	sent, done time.Time
	err        error
}

// do performs one request and decodes a 200 body into dst.
func (e *env) do(ctx context.Context, req, parent uint64, method, path string, body io.Reader, dst any) (rt roundTrip) {
	sp := e.tr.start(req, parent, "client", "http")
	rt.sent = time.Now()
	defer func() {
		rt.done = time.Now()
		sp.end()
	}()
	hr, err := http.NewRequestWithContext(ctx, method, e.base+path, body)
	if err != nil {
		rt.err = err
		return rt
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if sp != nil {
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		hr.Header.Set(hdrParent, strconv.FormatUint(sp.id(), 10))
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		rt.err = err
		return rt
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		rt.err = err
		return rt
	}
	if resp.StatusCode != http.StatusOK {
		rt.err = fmt.Errorf("%s %.60s: status %d: %.200s", method, path, resp.StatusCode, b)
		return rt
	}
	rt.err = json.Unmarshal(b, dst)
	return rt
}
