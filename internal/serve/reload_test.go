package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ppdm/internal/synth"
)

// TestConcurrentClassifyDuringReload hammers /classify from many goroutines
// while another goroutine keeps hot-swapping the model file between two
// genuinely different trees and reloading. Every response must be internally
// consistent with exactly one of the two models: the response's reported
// generation identifies the snapshot, and every prediction in the response
// must equal that snapshot's (and therefore one whole model's) output. Run
// under -race this also proves the swap path is data-race free.
func TestConcurrentClassifyDuringReload(t *testing.T) {
	clfA, bytesA := trainTree(t, synth.F2, 1)
	clfB, bytesB := trainTree(t, synth.F3, 2)

	records := testRecords(t, 64, 77)
	predsA := make([]int, len(records))
	predsB := make([]int, len(records))
	differ := false
	for i, rec := range records {
		predsA[i], _ = clfA.Predict(rec)
		predsB[i], _ = clfB.Predict(rec)
		if predsA[i] != predsB[i] {
			differ = true
		}
	}
	if !differ {
		t.Fatal("test models agree on every probe record; pick different functions")
	}

	path := filepath.Join(t.TempDir(), "model.json")
	writeModelAtomic(t, path, bytesA)
	s, err := New(Config{ModelPath: path, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	const (
		clients          = 8
		requestsPerConn  = 40
		reloadIterations = 30
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Reloader: alternate the file contents (atomically) and swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < reloadIterations; i++ {
			if i%2 == 0 {
				writeModelAtomic(t, path, bytesB)
			} else {
				writeModelAtomic(t, path, bytesA)
			}
			if _, err := s.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()

	// Clients: batch requests over a fixed probe set; verify every response
	// against both reference models.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; !stop.Load() && q < requestsPerConn*reloadIterations; q++ {
				lo := (c + q) % (len(records) - 8)
				probe := records[lo : lo+8]
				data, _ := json.Marshal(map[string]any{"records": probe})
				resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var cr classifyResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: decoding: %v", c, err)
					return
				}
				matchesA, matchesB := true, true
				for i := range probe {
					if cr.ClassIndices[i] != predsA[lo+i] {
						matchesA = false
					}
					if cr.ClassIndices[i] != predsB[lo+i] {
						matchesB = false
					}
				}
				if !matchesA && !matchesB {
					t.Errorf("client %d: response (generation %d) matches neither model A nor model B: %v",
						c, cr.Model.Generation, cr.ClassIndices)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if got := s.Current().Generation; got < 2 {
		t.Fatalf("reloads did not land: final generation %d", got)
	}
}
