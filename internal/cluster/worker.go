package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"ppdm/internal/bayes"
	"ppdm/internal/dataset"
	"ppdm/internal/stream"
)

// ShardTrainPath is the worker endpoint that receives one shard's record
// stream and returns its accumulated statistics.
const ShardTrainPath = "/train-shard"

// maxShardReply caps the decompressed size of one worker's statistics reply.
// An honest reply holds one count per histogram or collector cell: for F2
// at 100-200% privacy it is 9-14 kB at the default 50 intervals and under
// 200 kB at 1,000. The cap only stops a worker (or a gzip bomb) from
// exhausting the coordinator's memory.
const maxShardReply = 32 << 20

// NewWorkerHandler serves the naïve-Bayes shard-training protocol:
//
//   - POST /train-shard — the request body is the shard's record units as a
//     gzipped-CSV record-batch stream (stream.Writer wire format,
//     shard-local offsets); the training configuration rides as query
//     parameters, resolved by the configure callback, which must yield the
//     same config the coordinator merges and finalizes with. The response
//     is the shard's bayes.TrainStatsState as gzipped JSON
//     (Content-Type application/gzip) — aggregated interval counts only.
//   - GET /healthz — liveness.
func NewWorkerHandler(s *dataset.Schema, configure func(url.Values) (bayes.Config, error)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeWorkerJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "shard-worker"})
	})
	mux.HandleFunc(ShardTrainPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeWorkerJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
			return
		}
		cfg, err := configure(r.URL.Query())
		if err != nil {
			writeWorkerJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		stats, err := bayes.NewTrainStats(s, cfg)
		if err != nil {
			writeWorkerJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		rd, err := stream.NewReader(r.Body, s, 0)
		if err != nil {
			writeWorkerJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		defer rd.Close()
		for {
			b, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = stats.AddBatch(b)
			}
			if err != nil {
				writeWorkerJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
		}
		w.Header().Set("Content-Type", "application/gzip")
		w.WriteHeader(http.StatusOK)
		gz := gzip.NewWriter(w)
		if err := json.NewEncoder(gz).Encode(stats.State()); err == nil {
			_ = gz.Close()
		}
	})
	return mux
}

// writeWorkerJSON answers a small JSON document.
func writeWorkerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// trainShardRemote streams one shard's dealt units to a remote worker and
// reconstitutes the statistics it returns. The channel is always drained,
// so the dealer never blocks on a failed worker.
func trainShardRemote(base string, s *dataset.Schema, cfg bayes.Config, query url.Values, ch <-chan *stream.Batch, client *http.Client) (*bayes.TrainStats, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(base, "/")+ShardTrainPath+"?"+query.Encode(), pr)
	if err != nil {
		drain(ch)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/gzip")
	writeDone := make(chan error, 1)
	go func() {
		// Leave the dealer unblocked whatever happens to the request.
		defer drain(ch)
		w, err := stream.NewWriter(pw, s)
		if err != nil {
			pw.CloseWithError(err)
			writeDone <- err
			return
		}
		for b := range ch {
			if err := w.WriteBatch(b); err != nil {
				pw.CloseWithError(err)
				writeDone <- err
				return
			}
		}
		err = w.Close()
		pw.CloseWithError(err)
		writeDone <- err
	}()
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: worker %s answered %s: %s", base, resp.Status, bytes.TrimSpace(msg))
	}
	// A 200 means the worker consumed the whole body; surface any writer
	// error anyway (it would imply a protocol violation).
	if werr := <-writeDone; werr != nil {
		return nil, werr
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s response: %w", base, err)
	}
	defer gz.Close()
	body := &io.LimitedReader{R: gz, N: maxShardReply + 1}
	var state bayes.TrainStatsState
	if err := json.NewDecoder(body).Decode(&state); err != nil {
		if body.N == 0 {
			return nil, fmt.Errorf("cluster: worker %s response exceeds the %d-byte reply cap", base, maxShardReply)
		}
		return nil, fmt.Errorf("cluster: worker %s response: %w", base, err)
	}
	stats, err := bayes.NewTrainStatsFromState(s, cfg, state)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", base, err)
	}
	return stats, nil
}
