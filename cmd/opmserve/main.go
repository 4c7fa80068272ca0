// Command opmserve is the long-running sweep/query daemon: the HTTP
// serving layer (internal/serve) over the content-addressed result
// store and the sweep engine. Most traffic is sub-millisecond hot-set
// or journal hits; misses are admitted through per-class token buckets
// and computed once each on a pool of persistent sweep workers: a cold
// cell that fails, panics or fails the validation gate answers an error
// and is not cached. SIGINT/SIGTERM drains gracefully: accepted
// requests finish, then the store closes.
//
//	opmserve -store .opmstore -addr localhost:8080
//	curl -s localhost:8080/v1/query -d '{"platform":"broadwell","mode":"edram","kernel":"Stream","footprint_bytes":1048576}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		storeD  = flag.String("store", "", "persistent result store directory (strongly recommended; empty serves from memory only)")
		workers = flag.Int("workers", 4, "persistent sweep worker pool size")
		hotSet  = flag.Int("hot", 4096, "hot-set capacity in cells (in-memory LRU in front of the journal)")
		admit   = flag.String("admit", "", "admission overrides as class=rate:burst:queue, comma-separated; e.g. interactive=200:50:64,batch=50:16:256")

		traceFile = flag.String("trace", "", "append per-request causal event chains to this JSONL file (analyze with opmprof)")
		drainWait = flag.Duration("drain-timeout", time.Minute, "how long graceful shutdown waits for accepted work")
	)
	flag.Parse()

	classes := serve.DefaultClasses()
	if *admit != "" {
		if err := parseAdmit(*admit, classes); err != nil {
			fmt.Fprintln(os.Stderr, "opmserve:", err)
			return 2
		}
	}

	var st *store.Store
	reg := obs.NewRegistry()
	if *storeD != "" {
		var err error
		st, err = store.Open(*storeD, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmserve:", err)
			return 2
		}
	} else {
		fmt.Fprintln(os.Stderr, "opmserve: no -store: serving without a journal (cold results are not persisted)")
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		var err error
		if tracer, err = obs.CreateTracer(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "opmserve:", err)
			return 2
		}
	}

	srv, err := serve.New(serve.Config{
		Store:    st,
		Registry: reg,
		Tracer:   tracer,
		Workers:  *workers,
		HotSet:   *hotSet,
		Classes:  classes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "opmserve:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opmserve:", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "opmserve: serving on http://%s (workers=%d hot=%d store=%s)\n",
		ln.Addr(), *workers, *hotSet, *storeD)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errC := make(chan error, 1)
	go func() { errC <- httpSrv.Serve(ln) }()

	select {
	case err := <-errC:
		fmt.Fprintln(os.Stderr, "opmserve:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish every accepted request
	// (including queued admissions and async sweep jobs), then close the
	// store so the journal ends on a clean compaction.
	fmt.Fprintln(os.Stderr, "opmserve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "opmserve:", err)
		code = 1
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "opmserve:", err)
		code = 1
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "opmserve:", err)
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "opmserve:", err)
			code = 1
		}
	}
	fmt.Fprintln(os.Stderr, "opmserve: bye")
	return code
}

// parseAdmit applies "class=rate:burst:queue" overrides onto the
// default class set.
func parseAdmit(spec string, classes map[string]serve.ClassConfig) error {
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("bad -admit entry %q (want class=rate:burst:queue)", part)
		}
		fields := strings.Split(val, ":")
		if len(fields) != 3 {
			return fmt.Errorf("bad -admit entry %q (want class=rate:burst:queue)", part)
		}
		rate, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("bad -admit rate in %q: %v", part, err)
		}
		burst, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("bad -admit burst in %q: %v", part, err)
		}
		queue, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("bad -admit queue in %q: %v", part, err)
		}
		classes[name] = serve.ClassConfig{Rate: rate, Burst: burst, Queue: queue}
	}
	return nil
}
