package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppdm/internal/serve"
	"ppdm/internal/stream"
)

// Serve runs the online inference daemon: it loads a saved model (tree or
// naive Bayes, as written by ppdm-train -save) and serves /classify,
// /perturb, /healthz, /stats, and /reload over HTTP until interrupted.
// SIGHUP hot-reloads the model file without dropping in-flight requests.
//
// Usage: ppdm-serve -model model.json [-addr 127.0.0.1:8080] [-workers 0]
// [-microbatch 64] [-queue 256] [-cache 4096] [-batch 8192]
// [-rate 0] [-burst 0] [-max-queue 0] [-default-deadline 0]
func Serve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppdm-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", "saved model JSON (ppdm-train -save output, tree or naive Bayes)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "worker goroutines per micro-batch flush (0 = all cores)")
	microbatch := fs.Int("microbatch", 0, fmt.Sprintf("micro-batch flush size in records (0 = %d)", serve.DefaultMaxBatch))
	queue := fs.Int("queue", 0, fmt.Sprintf("bounded request-queue depth in groups (0 = %d); beyond it /classify answers 503", serve.DefaultQueueDepth))
	cache := fs.Int("cache", 0, fmt.Sprintf("prediction-cache entries per model snapshot (0 = %d, negative disables)", serve.DefaultCacheSize))
	batch := fs.Int("batch", 0, fmt.Sprintf("records per batch for gzipped-CSV request bodies (0 = %d)", stream.DefaultBatchSize))
	rate := fs.Float64("rate", 0, "per-client rate limit on /classify and /perturb in requests/sec (0 disables); over-budget clients answer 429")
	burst := fs.Int("burst", 0, "per-client token-bucket burst (0 = max(1, 2*rate))")
	maxQueue := fs.Int("max-queue", 0, "queued-group threshold at which new work is shed with 503 before parsing (0 = shed at full queue, negative disables)")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline applied to requests without an X-Ppdm-Deadline header (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *modelPath == "" {
		return fail(stderr, fmt.Errorf("-model is required"))
	}

	s, err := serve.New(serve.Config{
		ModelPath:   *modelPath,
		Workers:     *workers,
		MaxBatch:    *microbatch,
		QueueDepth:  *queue,
		CacheSize:   *cache,
		StreamBatch: *batch,

		Rate:            *rate,
		Burst:           *burst,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *defaultDeadline,
	})
	if err != nil {
		return fail(stderr, err)
	}
	defer s.Close()
	m := s.Current()
	fmt.Fprintf(stdout, "serving %s model (%s, mode %s) from %s on http://%s\n",
		m.Format, describeLearner(m.Format), m.Mode, *modelPath, *addr)

	httpServer := &http.Server{Addr: *addr, Handler: s.Handler()}

	// SIGHUP = hot reload; SIGINT/SIGTERM = graceful drain and exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	for {
		select {
		case err := <-errCh:
			if err != nil && err != http.ErrServerClosed {
				return fail(stderr, err)
			}
			return 0
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if m, err := s.Reload(); err != nil {
					fmt.Fprintf(stderr, "reload failed, keeping previous model: %v\n", err)
				} else {
					fmt.Fprintf(stdout, "reloaded %s model (generation %d)\n", m.Format, m.Generation)
				}
				continue
			}
			fmt.Fprintf(stdout, "shutting down (%v)\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := httpServer.Shutdown(ctx)
			cancel()
			if err != nil {
				return fail(stderr, err)
			}
			return 0
		}
	}
}

// describeLearner names the learner behind a model format string.
func describeLearner(format string) string {
	switch format {
	case "ppdm-classifier/1":
		return "decision tree"
	case "ppdm-nb/1":
		return "naive Bayes"
	default:
		return "unknown learner"
	}
}
