package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// routerKey is the router's shard.KeyFunc: it derives the exact cache key
// a replica would compute for the request, so the router lands every
// request on the replica whose L1 already holds (or will hold) its
// result. /trace responses are never cached, but keying them identically
// keeps repeated trace pulls on one replica.
func routerKey(r *http.Request) (serve.Key, error) {
	form, err := parseForm(r)
	if err != nil {
		return serve.Key{}, err
	}
	switch r.URL.Path {
	case "/schedule":
		return requestKeyFor(form, "schedule:"+form.Alg)
	case "/compare":
		return requestKeyFor(form, "compare:"+strings.Join(expr.DAGAlgorithms(), ","))
	case "/trace":
		return requestKeyFor(form, "trace:"+form.Alg)
	}
	return serve.Key{}, fmt.Errorf("no request key for path %q", r.URL.Path)
}

// routerConfig carries the -mode=router flag values.
type routerConfig struct {
	backends     []string
	vnodes       int
	cooldown     time.Duration
	traceEntries int
}

// newRouterHandler builds the replica router for -mode=router.
func newRouterHandler(logger *slog.Logger, cfg routerConfig) (*shard.Router, error) {
	return shard.NewRouter(shard.RouterConfig{
		Backends:     cfg.backends,
		VNodes:       cfg.vnodes,
		Key:          routerKey,
		Cooldown:     cfg.cooldown,
		TraceEntries: cfg.traceEntries,
		Logger:       logger,
	})
}

// cluster is a self-contained scale-out deployment in one process:
// k replicas on ephemeral loopback ports sharing one in-process L2, with
// a router in front. It exists for the shard-smoke and sharded-
// determinism CI jobs and for local experiments — the multi-process
// deployment wires the same pieces together over PeerL2 instead.
type cluster struct {
	router   *shard.Router
	urls     []string
	servers  []*http.Server
	listener []net.Listener
}

// newCluster starts the replica listeners and builds the router. The
// shared L2's metrics land in the router's registry, so the merged
// /metrics view carries the tier's entry and eviction counts exactly
// once (replica registries only count their own tier traffic).
func newCluster(logger *slog.Logger, replicas, l2Entries int, rcfg routerConfig, scfg serveConfig) (*cluster, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("cluster needs at least 1 replica, got %d", replicas)
	}
	routerReg := obs.NewRegistry()
	store := shard.NewMemoryL2(l2Entries, routerReg)
	c := &cluster{}
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("replica %d listen: %w", i, err)
		}
		cfg := scfg
		cfg.l2 = store
		cfg.l2Store = store
		rep := newServer(logger.With("replica", i), cfg)
		srv := &http.Server{Handler: rep, ReadHeaderTimeout: 5 * time.Second}
		c.listener = append(c.listener, ln)
		c.servers = append(c.servers, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		go func() { _ = srv.Serve(ln) }()
		logger.Info("replica listening", "index", i, "addr", c.urls[i])
	}
	rcfg.backends = c.urls
	rt, err := shard.NewRouter(shard.RouterConfig{
		Backends:     rcfg.backends,
		VNodes:       rcfg.vnodes,
		Key:          routerKey,
		Cooldown:     rcfg.cooldown,
		TraceEntries: rcfg.traceEntries,
		Registry:     routerReg,
		Logger:       logger,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router = rt
	return c, nil
}

// Close shuts the replica servers down, draining in-flight requests.
func (c *cluster) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		_ = srv.Shutdown(ctx)
	}
}
