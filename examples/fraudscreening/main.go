// Fraud screening as an online service: a card network trains a
// fraud-screening model on transaction records its providers randomized at
// the source (paper §2), then stands the model up behind the ppdm-serve
// inference daemon and drives it with concurrent query traffic — including
// a mid-load hot reload to a retrained model, which no in-flight request
// may observe half-applied.
//
// The scenario exercises the full serving lifecycle in one process:
//
//	train → save (crash-safe temp+rename) → serve → concurrent /classify
//	→ /perturb round trip → hot reload under load → /stats
//
// Run with: go run ./examples/fraudscreening
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ppdm"
	"ppdm/internal/core"
	"ppdm/internal/serve"
)

// trainModel builds a ByClass tree over data perturbed at the given privacy
// level and returns its serialized bytes.
func trainModel(level float64, seed uint64) []byte {
	train, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F6, N: 20000, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(train.Schema(), "gaussian", level, ppdm.DefaultConfidence)
	if err != nil {
		log.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(train, models, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// writeAtomic installs model bytes with the same crash-safe discipline as
// ppdm-train -save (core.WriteFileAtomic: temp file + rename), so the
// serving daemon can reload the path at any moment without ever seeing a
// truncated document.
func writeAtomic(path string, data []byte) {
	err := core.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	dir, err := os.MkdirTemp("", "fraudscreening")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.json")

	// 1. Train the screening model on perturbed transactions and save it.
	fmt.Println("training fraud-screening model on perturbed transactions (F6, 100% privacy)...")
	writeAtomic(modelPath, trainModel(1.0, 31))

	// 2. Stand the daemon up (in-process here; `ppdm-serve -model model.json`
	//    is the same server behind a real listener).
	srv, err := serve.New(serve.Config{ModelPath: modelPath})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving %s model at %s\n\n", srv.Current().Format, ts.URL)

	// 3. Query traffic: 8 concurrent clients screening transactions, with a
	//    hot reload to a stricter retrained model landing mid-load.
	queries, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F6, N: 4096, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	const clients = 8
	perClient := queries.N() / clients
	var flagged, served, reloadGen atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * perClient; i < (c+1)*perClient; i += 8 {
				recs := make([][]float64, 0, 8)
				for k := i; k < i+8 && k < (c+1)*perClient; k++ {
					recs = append(recs, queries.Row(k))
				}
				body, _ := json.Marshal(map[string]any{"records": recs})
				resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				var out struct {
					ClassIndices []int `json:"class_indices"`
					Model        struct {
						Generation int64 `json:"generation"`
					} `json:"model"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				for _, cl := range out.ClassIndices {
					if cl == 1 {
						flagged.Add(1)
					}
				}
				served.Add(int64(len(recs)))
				if g := out.Model.Generation; g > reloadGen.Load() {
					reloadGen.Store(g)
				}
			}
		}(c)
	}

	// Retrain at a tighter privacy level and hot-swap while traffic flows:
	// every response keeps coming from exactly one model generation.
	writeAtomic(modelPath, trainModel(0.5, 63))
	if _, err := srv.Reload(); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("screened %d transactions in %v (%.0f records/sec) across %d clients\n",
		served.Load(), elapsed.Round(time.Millisecond), float64(served.Load())/elapsed.Seconds(), clients)
	fmt.Printf("flagged as fraud-risk (group B): %d\n", flagged.Load())
	fmt.Printf("hot reload landed mid-load: responses observed up to model generation %d\n\n", reloadGen.Load())

	// 4. A provider that trusts the collector can randomize server-side.
	rec := queries.Row(0)
	body, _ := json.Marshal(map[string]any{"family": "gaussian", "privacy": 1.0, "seed": 7, "records": [][]float64{rec}})
	resp, err := http.Post(ts.URL+"/perturb", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var pert struct {
		Records [][]float64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pert); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("server-side perturbation: salary %.0f -> %.1f, age %.0f -> %.1f\n\n",
		rec[0], pert.Records[0][0], rec[2], pert.Records[0][2])

	// 5. The daemon's own accounting.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Batcher struct {
			Batches      int64 `json:"batches"`
			Records      int64 `json:"records"`
			LargestBatch int64 `json:"largest_batch"`
		} `json:"batcher"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Reloads int64 `json:"reloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("server stats: %d records in %d micro-batches (largest %d), cache %d hits / %d misses, %d reload\n",
		stats.Batcher.Records, stats.Batcher.Batches, stats.Batcher.LargestBatch,
		stats.Cache.Hits, stats.Cache.Misses, stats.Reloads)
}
