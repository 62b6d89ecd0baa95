package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"avfs/client"
	"avfs/internal/cluster"
	"avfs/internal/service"
)

// rig is a cluster router with two fleet nodes, all in process and
// served over loopback HTTP, as avfs-router and avfs-server run them.
type rig struct {
	rts   *httptest.Server
	nodes []*node
	// rc talks to the router, as a client of the cluster API does.
	rc *client.Client
}

type node struct {
	name  string
	fleet *service.Fleet
	srv   *httptest.Server
	c     *client.Client
}

// opHeader carries a traced operation's ID from the client through the
// router to the node, so the spans of the three hops can be joined.
const opHeader = "X-Bench-Op"

// tagTransport puts the operation ID found in a request's context on the
// wire, as X-Bench-Op and as the X-Request-ID the node stamps on its own
// spans. Requests without one pass unchanged.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tag, ok := opFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, tag.id+" "+tag.kind)
		req.Header.Set("X-Request-ID", tag.id)
	}
	return t.base.RoundTrip(req)
}

func newHTTPClient() *http.Client {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: tagTransport{tr}, Timeout: 2 * time.Minute}
}

// timed wraps a handler so a traced run records, per tagged request, the
// handler's time and response size as a span of the given layer. The
// operation tag is also put into the request context, which the router
// hands to its forwarding client.
func timed(b *bench, layer string, h http.Handler) http.Handler {
	if b.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var id, kind string
		if v := r.Header.Get(opHeader); v != "" {
			// A malformed tag leaves id empty: the request is not recorded.
			_, _ = fmt.Sscan(v, &id, &kind)
			r = r.WithContext(withOp(r.Context(), id, kind))
		}
		cw := &countWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		if id != "" {
			b.tr.add(span{Op: id, Kind: kind, Layer: layer, Name: r.Method + " " + r.URL.Path,
				Start: t0, Dur: time.Since(t0), Bytes: cw.n})
		}
	})
}

type countWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// newRig starts the router and nodes and registers the nodes with one
// heartbeat each (the heartbeat TTL outlasts any run).
func newRig(b *bench, cfg service.Config) (*rig, error) {
	hc := newHTTPClient()
	rt := cluster.NewRouter(cluster.RouterConfig{HeartbeatTTL: time.Hour, Client: hc})
	r := &rig{}
	r.rts = httptest.NewServer(timed(b, "cluster", rt.Handler()))
	r.rc = client.New(r.rts.URL, hc)
	for i := 0; i < 2; i++ {
		c := cfg
		c.NodeName = fmt.Sprintf("n%d", i+1)
		c.ReapEvery = -1
		f := service.New(c)
		srv := httptest.NewServer(timed(b, "service.http", f.Handler()))
		n := &node{name: c.NodeName, fleet: f, srv: srv, c: client.New(srv.URL, hc)}
		r.nodes = append(r.nodes, n)
		a, err := cluster.NewAgent(cluster.AgentConfig{
			Fleet: f, RouterURL: r.rts.URL, Name: n.name, AdvertiseURL: srv.URL,
		})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("agent %s: %w", n.name, err)
		}
		f.SetRedirect(r.rts.URL)
		if err := a.Beat(context.Background()); err != nil {
			r.close()
			return nil, fmt.Errorf("heartbeat %s: %w", n.name, err)
		}
	}
	return r, nil
}

// nodeOf finds the node hosting a session.
func (r *rig) nodeOf(id string) (*node, error) {
	for _, n := range r.nodes {
		if _, err := n.fleet.Get(id); err == nil {
			return n, nil
		}
	}
	return nil, fmt.Errorf("session %s is on no node", id)
}

// other is the node that is not n.
func (r *rig) other(n *node) *node {
	if r.nodes[0] == n {
		return r.nodes[1]
	}
	return r.nodes[0]
}

// fleetValue sums a fleet-level registry value over the nodes.
func (r *rig) fleetValue(name string) float64 {
	t := 0.0
	for _, n := range r.nodes {
		if v, ok := n.fleet.Registry().Value(name); ok {
			t += v
		}
	}
	return t
}

func (r *rig) close() {
	if r.rts != nil {
		r.rts.Close()
	}
	for _, n := range r.nodes {
		n.srv.Close()
		n.fleet.Close()
	}
}
