package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"popkit/internal/cluster"
	"popkit/internal/serve"
)

// Server settings follow the popserved and popcoord flag defaults except
// where a workload needs otherwise: cold raises MaxN so the aggregate tier
// is reachable, and sharded workers take one job slot each (one per core).
const (
	maxRetries  = 2 // popserved -retries default
	coldMaxN    = 10_000_000
	shardWorker = 1
)

// maxNFor is the population cap of the server that runs w's jobs.
func maxNFor(w workload) int {
	if w.name == "cold" {
		return coldMaxN
	}
	return 5_000_000 // popserved and popcoord -max-n default
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is the set of in-process servers one workload talks to.
type stack struct {
	dir string
	// front is where the load client sends requests: popserved for cold and
	// hot, the coordinator for sharded.
	front *listener
	// pop is the popserved of cold and hot; workers are the sharded
	// popserveds behind coord.
	pop      *serve.Server
	workers  []*serve.Server
	wls      []*listener
	coord    *cluster.Coordinator
	hasStore bool
}

// newStack builds and starts the servers of w under dir. shardClient, when
// non-nil, is the coordinator's HTTP client (the traced run's span-recording
// transport); nil keeps popcoord's default.
func newStack(w workload, dir string, shardClient *http.Client) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	var err error
	switch w.name {
	case "cold", "hot":
		cfg := serve.Config{MaxRetries: maxRetries, StoreDir: filepath.Join(dir, "store"), MaxN: maxNFor(w)}
		st.hasStore = true
		if st.pop, err = serve.New(cfg); err != nil {
			return nil, err
		}
		if st.front, err = listen(st.pop.Handler()); err != nil {
			st.pop.Close()
			return nil, err
		}
	case "sharded":
		var urls []string
		for i := 0; i < 2; i++ {
			srv, err := serve.New(serve.Config{Workers: shardWorker, MaxRetries: maxRetries})
			if err != nil {
				st.close()
				return nil, err
			}
			l, err := listen(srv.Handler())
			if err != nil {
				srv.Close()
				st.close()
				return nil, err
			}
			st.workers = append(st.workers, srv)
			st.wls = append(st.wls, l)
			urls = append(urls, l.url)
		}
		st.coord, err = cluster.New(cluster.Config{Workers: urls, HTTPClient: shardClient})
		if err != nil {
			st.close()
			return nil, err
		}
		st.coord.Start()
		for _, wi := range st.coord.Workers() {
			if !wi.Live {
				st.close()
				return nil, fmt.Errorf("worker %s not live after probe", wi.URL)
			}
		}
		if st.front, err = listen(st.coord.Handler()); err != nil {
			st.close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if err := healthz(st.front.url); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func healthz(url string) error {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// replicasCompleted sums popserved's replicas_completed over the stack.
func (st *stack) replicasCompleted() uint64 {
	var n uint64
	for _, s := range append([]*serve.Server{st.pop}, st.workers...) {
		if s != nil {
			n += s.Metrics().ReplicasCompleted.Load()
		}
	}
	return n
}

// close stops every server, front first, and removes the scratch dir.
func (st *stack) close() error {
	var errs []error
	if st.front != nil {
		errs = append(errs, st.front.stop())
	}
	if st.coord != nil {
		st.coord.Stop()
	}
	if st.pop != nil {
		st.pop.Close()
	}
	for i, l := range st.wls {
		errs = append(errs, l.stop())
		st.workers[i].Close()
	}
	// The coordinator's shard streams and the health checks above use the
	// default transport; drop its idle connections so no reader goroutine
	// outlives the servers.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}
