package serve

import (
	"context"
	"flag"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestFrontFlagsBindConfig: each shared flag sets its own Config field.
func TestFrontFlagsBindConfig(t *testing.T) {
	var got Config
	fs := flag.NewFlagSet("front", flag.ContinueOnError)
	got.FrontFlags(fs)
	err := fs.Parse([]string{"-journal", "j", "-job-timeout", "1s", "-min-job-timeout", "2s",
		"-cost-model", "m.json", "-cost-budget", "3s", "-max-n", "7", "-max-replicas", "8", "-store", "s",
		"-store-max-bytes", "9", "-store-max-entries", "10", "-max-sweep-points", "11"})
	want := Config{JournalDir: "j", JobTimeout: time.Second, MinJobTimeout: 2 * time.Second,
		CostModelPath: "m.json", CostBudget: 3 * time.Second, MaxN: 7, MaxReplicas: 8, StoreDir: "s",
		StoreMaxBytes: 9, StoreMaxEntries: 10, MaxSweepPoints: 11}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v (err %v), want %+v", got, err, want)
	}
}

// TestServeShutdownOrder pins Serve's hooks, driving its body with a
// context in place of the signal: once the context ends it marks the
// server draining and drains, aborting a request that outlasts the drain
// deadline, and runs finish last; if serving fails, abort and finish run.
func TestServeShutdownOrder(t *testing.T) {
	for _, tc := range []struct {
		name            string
		broken, blocked bool // a closed listener; a request outlasting the drain
		want            []string
		code            int
	}{
		{"clean drain", false, false, []string{"draining", "finish"}, 0},
		{"blown deadline", false, true, []string{"draining", "abort", "finish"}, 1},
		{"serve fails", true, false, []string{"abort", "finish"}, 1},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if tc.broken {
			ln.Close()
		}
		var (
			mu      sync.Mutex
			got     []string
			entered = make(chan struct{})
			release = make(chan struct{})
		)
		note := func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		}
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan int, 1)
		go func() {
			done <- serve(ctx, "test", ln, h, 50*time.Millisecond,
				func() { note("draining") },
				func() { note("abort"); close(release) },
				func() { note("finish") })
		}()
		if tc.blocked {
			go http.Get("http://" + ln.Addr().String())
			<-entered
		}
		if !tc.broken {
			cancel()
		}
		code := <-done
		cancel()
		mu.Lock()
		if code != tc.code || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: code %d, hooks %v; want %d, %v", tc.name, code, got, tc.code, tc.want)
		}
		mu.Unlock()
	}
}
