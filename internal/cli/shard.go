package cli

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppdm/internal/bayes"
	"ppdm/internal/cluster"
	"ppdm/internal/core"
	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/synth"
)

// splitURLs parses a comma-separated URL list, dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// shardQuery encodes the training configuration as the query parameters of
// a shard-worker request. shardConfigFromQuery on the worker resolves them
// back to the identical bayes.Config (same flag vocabulary as ppdm-train),
// so coordinator and workers accumulate statistics on the same grids.
func shardQuery(mode, family string, privacy, conf float64, intervals int, algorithm string) url.Values {
	q := url.Values{}
	q.Set("mode", mode)
	q.Set("family", family)
	q.Set("privacy", strconv.FormatFloat(privacy, 'g', -1, 64))
	q.Set("conf", strconv.FormatFloat(conf, 'g', -1, 64))
	q.Set("intervals", strconv.Itoa(intervals))
	q.Set("algorithm", algorithm)
	return q
}

// shardConfigFromQuery rebuilds the naive-Bayes training config a shard
// worker accumulates under from the request's query parameters.
func shardConfigFromQuery(q url.Values) (bayes.Config, error) {
	mode, err := core.ParseMode(q.Get("mode"))
	if err != nil {
		return bayes.Config{}, err
	}
	var alg reconstruct.Algorithm
	switch q.Get("algorithm") {
	case "bayes", "":
		alg = reconstruct.Bayes
	case "em":
		alg = reconstruct.EM
	default:
		return bayes.Config{}, fmt.Errorf("unknown reconstruction algorithm %q", q.Get("algorithm"))
	}
	queryFloat := func(key string, def float64) (float64, error) {
		s := q.Get(key)
		if s == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("query parameter %s: %w", key, err)
		}
		return v, nil
	}
	privacy, err := queryFloat("privacy", 1.0)
	if err != nil {
		return bayes.Config{}, err
	}
	conf, err := queryFloat("conf", noise.DefaultConfidence)
	if err != nil {
		return bayes.Config{}, err
	}
	intervals := 0
	if s := q.Get("intervals"); s != "" {
		if intervals, err = strconv.Atoi(s); err != nil {
			return bayes.Config{}, fmt.Errorf("query parameter intervals: %w", err)
		}
	}
	cfg := bayes.Config{
		Mode:           mode,
		Intervals:      intervals,
		ReconAlgorithm: alg,
	}
	if mode.NeedsNoise() {
		family := q.Get("family")
		if family == "" {
			family = "gaussian"
		}
		cfg.Noise, err = noise.ModelsForAllAttrs(synth.Schema(), family, privacy, conf)
		if err != nil {
			return bayes.Config{}, err
		}
	}
	return cfg, nil
}

// runShardWorker serves the shard-training protocol (see
// cluster.NewWorkerHandler) on addr until SIGINT/SIGTERM.
func runShardWorker(addr string, stdout, stderr io.Writer) int {
	handler := cluster.NewWorkerHandler(synth.Schema(), shardConfigFromQuery)
	httpServer := &http.Server{Addr: addr, Handler: handler}
	fmt.Fprintf(stdout, "shard worker serving %s on http://%s\n", cluster.ShardTrainPath, addr)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			return fail(stderr, err)
		}
		return 0
	case sig := <-sigs:
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
