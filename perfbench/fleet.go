package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"neummu/internal/cluster"
	"neummu/internal/serve"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// This file runs the servers under test in-process, each through its
// public constructor (serve.New, cluster.New, store.Open) behind its own
// loopback listener. Every server is addressed by a stable logical host
// name (coord.bench, w0.bench, ...) that a resolver maps to the
// listener's ephemeral port. The coordinator's consistent-hash ring is
// keyed on worker URLs, so stable names keep the shard assignment — and
// with it the per-worker load — identical from run to run.

// resolver maps logical host names to loopback listener addresses.
type resolver struct {
	mu    sync.Mutex
	addrs map[string]string
}

func (r *resolver) add(host, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[host] = addr
}

func (r *resolver) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	real, ok := r.addrs[host]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no listener for host %q", host)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

func (r *resolver) client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         r.dial,
		MaxIdleConnsPerHost: 8,
	}}
}

// node is one server on a loopback listener.
type node struct {
	host string
	srv  *http.Server
	done chan struct{}
}

func startNode(res *resolver, host string, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", host, err)
	}
	res.add(host, ln.Addr().String())
	n := &node{host: host, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

func (n *node) url() string { return "http://" + n.host }

// stop drains in-flight requests and waits for the serve loop to exit.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		_ = n.srv.Close() // drain timed out: cut the remaining connections
	}
	<-n.done
}

// fleetSpec describes one service deployment.
type fleetSpec struct {
	// workers is the worker count behind a coordinator; 0 runs a single
	// serve.Server that answers requests itself.
	workers int
	serve   serve.Config
	// storeDir, when set, gives worker i the durable tier <storeDir>/w<i>.
	storeDir string
	// ringSize raises every process's span ring (0 = the default).
	ringSize int
}

// fleet is a running deployment. entry takes the benchmark's requests;
// procs lists every process that serves /debug/traces and /metrics,
// entry first.
type fleet struct {
	client   *http.Client
	wclient  *http.Client // the coordinator's worker client
	entry    *node
	workers  []*node
	servers  []*serve.Server
	stores   []*store.Store
	coord    *cluster.Coordinator
	storeDur time.Duration // summed store.Open time
}

// procs returns the base URLs of every traced process, entry first.
func (f *fleet) procs() []string {
	out := []string{f.entry.url()}
	if f.coord != nil {
		for _, w := range f.workers {
			out = append(out, w.url())
		}
	}
	return out
}

// startFleet builds the deployment described by spec. Every listener is
// bound before startFleet returns, so the first request needs no wait
// for readiness. rec (nil when untraced) receives a span per constructor
// call.
func startFleet(spec fleetSpec, rec *spanRec) (f *fleet, err error) {
	res := &resolver{addrs: make(map[string]string)}
	f = &fleet{client: res.client()}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	cfg := spec.serve
	cfg.Trace = trace.Config{RingSize: spec.ringSize}
	nServers := spec.workers
	if nServers == 0 {
		nServers = 1
	}
	for i := 0; i < nServers; i++ {
		wcfg := cfg
		if spec.storeDir != "" {
			end := rec.begin("store.open")
			t0 := time.Now()
			st, err := store.Open(store.Config{Dir: filepath.Join(spec.storeDir, fmt.Sprintf("w%d", i))})
			f.storeDur += time.Since(t0)
			end()
			if err != nil {
				return f, err
			}
			f.stores = append(f.stores, st)
			wcfg.Store = st
		}
		end := rec.begin("serve.new")
		s := serve.New(wcfg)
		end()
		f.servers = append(f.servers, s)
		host := "single.bench"
		if spec.workers > 0 {
			host = fmt.Sprintf("w%d.bench", i)
		}
		n, err := startNode(res, host, s)
		if err != nil {
			return f, err
		}
		f.workers = append(f.workers, n)
	}
	if spec.workers == 0 {
		f.entry = f.workers[0]
	} else {
		urls := make([]string, len(f.workers))
		for i, w := range f.workers {
			urls[i] = w.url()
		}
		f.wclient = res.client()
		end := rec.begin("cluster.new")
		c, err := cluster.New(cluster.Config{
			Workers: urls, Client: f.wclient,
			Trace: trace.Config{RingSize: spec.ringSize},
		})
		end()
		if err != nil {
			return f, err
		}
		f.coord = c
		if f.entry, err = startNode(res, "coord.bench", c); err != nil {
			return f, err
		}
	}
	return f, nil
}

// get fetches url into w, failing on any status but 200.
func (f *fleet) get(url string, w io.Writer) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// stop shuts the deployment down front to back — coordinator, workers,
// then the stores they write behind to — and waits for every goroutine
// the servers own.
func (f *fleet) stop() {
	if f.coord != nil {
		if f.entry != nil {
			f.entry.stop()
		}
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.stop()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
	f.client.CloseIdleConnections()
	if f.wclient != nil {
		f.wclient.CloseIdleConnections()
	}
}
