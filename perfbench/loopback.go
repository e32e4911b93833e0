package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/serve"
)

// loopback is a serve.Server on a loopback listener in this process, with
// a client limited to conns connections.
type loopback struct {
	srv    *serve.Server
	url    string
	client *http.Client
	done   chan error
}

func startLoopback(srv *serve.Server, conns int) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		srv: srv,
		url: "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { lb.done <- srv.Serve(l) }()
	// A served request proves Serve has registered its http.Server, so a
	// later Shutdown stops it.
	resp, err := lb.client.Get(lb.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		l.Close()
		<-lb.done
		return nil, err
	}
	return lb, nil
}

// close shuts the server down and waits for Serve to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.client.CloseIdleConnections()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// reply is a /v1/query response with its stats trailer decoded.
type reply struct {
	status int
	body   []byte
	lines  []byte // the core lines before the trailer
	stats  trailerStats
}

type trailerStats struct {
	Cores    int64 `json:"cores"`
	Edges    int64 `json:"resultEdges"`
	Epoch    int64 `json:"epoch"`
	CacheHit bool  `json:"cacheHit"`
	Shards   int   `json:"shards"`
}

// parseReply splits a query response into its core lines and trailer. ok
// is false when the body has no stats trailer.
func parseReply(status int, body []byte) (reply, bool) {
	rep := reply{status: status, body: body}
	if status != http.StatusOK {
		return rep, false
	}
	trimmed := bytes.TrimSuffix(body, []byte("\n"))
	cut := bytes.LastIndexByte(trimmed, '\n') + 1
	var t struct {
		Stats *trailerStats `json:"stats"`
	}
	if err := json.Unmarshal(trimmed[cut:], &t); err != nil || t.Stats == nil {
		return rep, false
	}
	rep.lines = body[:cut]
	rep.stats = *t.Stats
	return rep, true
}

// query posts a /v1/query body. A response without a stats trailer is an
// error.
func (lb *loopback) query(body []byte) (reply, error) {
	resp, err := lb.client.Post(lb.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{status: resp.StatusCode}, err
	}
	rep, ok := parseReply(resp.StatusCode, b)
	if !ok {
		return rep, fmt.Errorf("query: status %d: %.200s", resp.StatusCode, b)
	}
	return rep, nil
}

// appendEdges posts one batch to /v1/append and returns the number of
// edges the server added.
func (lb *loopback) appendEdges(buf []byte, edges []tkc.Edge) (int, []byte, error) {
	buf = edgeLines(buf[:0], edges)
	url := lb.url + "/v1/append?batch=" + strconv.Itoa(len(edges))
	resp, err := lb.client.Post(url, "text/plain", bytes.NewReader(buf))
	if err != nil {
		return 0, buf, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, buf, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, buf, fmt.Errorf("append: status %d: %.200s", resp.StatusCode, b)
	}
	var ack struct {
		Added int `json:"added"`
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return 0, buf, fmt.Errorf("append: decode ack: %w", err)
	}
	return ack.Added, buf, nil
}
