package cluster

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ppdm/internal/bayes"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// clusterData generates a perturbed benchmark table plus its noise models.
func clusterData(t testing.TB, n int, seed uint64) (*dataset.Table, map[int]noise.Model) {
	t.Helper()
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return perturbed, models
}

// saveNB serializes a naïve-Bayes classifier for byte comparison.
func saveNB(t *testing.T, c *bayes.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveTree serializes a tree classifier for byte comparison.
func saveTree(t *testing.T, c *core.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardMergeGolden is the cluster golden: for both learners, the model
// trained through the shard-and-merge path must serialize byte-identically
// to single-node streamed training at every shard count — including shard
// counts larger than the number of deal units (empty shards merge as
// zeros). 20000 records span three UnitLen units, so shards 2 and 8
// exercise interleaving and idle shards respectively. The tree learner
// must also save in-memory Train's bytes in the modes that bin some or all
// attributes directly: Original, Randomized, and Global and ByClass with
// noise on age and salary only.
func TestShardMergeGolden(t *testing.T) {
	perturbed, models := clusterData(t, 20000, 11)

	t.Run("nb", func(t *testing.T) {
		cfg := bayes.Config{Mode: core.ByClass, Noise: models}
		want, err := bayes.TrainStream(stream.FromTable(perturbed, 777), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantDoc := saveNB(t, want)
		for _, shards := range []int{1, 2, 8} {
			got, err := TrainNaiveBayes(stream.FromTable(perturbed, 777), cfg, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shards %d: %v", shards, err)
			}
			if !bytes.Equal(wantDoc, saveNB(t, got)) {
				t.Errorf("shards %d: merged nb model differs from single-node", shards)
			}
		}
	})

	t.Run("tree", func(t *testing.T) {
		cfg := core.Config{Mode: core.ByClass, Noise: models}
		want, err := core.TrainStream(stream.FromTable(perturbed, 777), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantDoc := saveTree(t, want)
		for _, shards := range []int{1, 2, 8} {
			got, err := TrainTree(stream.FromTable(perturbed, 777), cfg, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shards %d: %v", shards, err)
			}
			if !bytes.Equal(wantDoc, saveTree(t, got)) {
				t.Errorf("shards %d: merged tree model differs from single-node", shards)
			}
		}

		clean, err := synth.Generate(synth.Config{Function: synth.F2, N: 20000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		partial, err := noise.ModelsForAttrs(clean.Schema(), []int{synth.AttrAge, synth.AttrSalary}, "gaussian", 1.0, noise.DefaultConfidence)
		if err != nil {
			t.Fatal(err)
		}
		partlyPerturbed, err := noise.PerturbTable(clean, partial, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			table *dataset.Table
			cfg   core.Config
		}{
			{"original", clean, core.Config{Mode: core.Original}},
			{"randomized", perturbed, core.Config{Mode: core.Randomized}},
			{"global-partial", partlyPerturbed, core.Config{Mode: core.Global, Noise: partial}},
			{"byclass-partial", partlyPerturbed, core.Config{Mode: core.ByClass, Noise: partial}},
		} {
			want, err := core.Train(tc.table, tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			wantDoc := saveTree(t, want)
			for _, shards := range []int{1, 2, 8} {
				got, err := TrainTree(stream.FromTable(tc.table, 777), tc.cfg, Options{Shards: shards})
				if err != nil {
					t.Fatalf("%s shards %d: %v", tc.name, shards, err)
				}
				if !bytes.Equal(wantDoc, saveTree(t, got)) {
					t.Errorf("%s shards %d: merged tree model differs from in-memory Train", tc.name, shards)
				}
			}
		}
	})
}

// TestShardMergeBatchInvariance checks the dealer's re-chunking: however
// the source batches its records — single records, unaligned runs, exact
// units, or one giant batch — the dealt units and therefore the merged
// model are identical.
func TestShardMergeBatchInvariance(t *testing.T) {
	perturbed, models := clusterData(t, 20000, 4)
	cfg := bayes.Config{Mode: core.Randomized, Noise: models}
	var docs [][]byte
	batches := []int{997, UnitLen, 100000}
	for _, batch := range batches {
		clf, err := TrainNaiveBayes(stream.FromTable(perturbed, batch), cfg, Options{Shards: 3})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		docs = append(docs, saveNB(t, clf))
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(docs[0], docs[i]) {
			t.Errorf("batch %d: model differs from batch %d", batches[i], batches[0])
		}
	}
}

// TestRemoteWorkerGolden runs the HTTP shard protocol end to end: two
// worker processes (simulated by httptest servers over NewWorkerHandler)
// receive dealt record streams and return gzipped statistics, and the
// merged model must still be byte-identical to single-node training.
func TestRemoteWorkerGolden(t *testing.T) {
	perturbed, models := clusterData(t, 20000, 7)
	cfg := bayes.Config{Mode: core.ByClass, Noise: models}
	configure := func(url.Values) (bayes.Config, error) { return cfg, nil }

	w1 := httptest.NewServer(NewWorkerHandler(perturbed.Schema(), configure))
	defer w1.Close()
	w2 := httptest.NewServer(NewWorkerHandler(perturbed.Schema(), configure))
	defer w2.Close()

	want, err := bayes.TrainStream(stream.FromTable(perturbed, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainNaiveBayes(stream.FromTable(perturbed, 0), cfg, Options{
		Shards:     3,
		WorkerURLs: []string{w1.URL, w2.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveNB(t, want), saveNB(t, got)) {
		t.Error("remote-worker merged model differs from single-node")
	}
}

// TestRemoteWorkerFailure checks a failing worker surfaces its error
// without deadlocking the dealer.
func TestRemoteWorkerFailure(t *testing.T) {
	perturbed, models := clusterData(t, 20000, 7)
	cfg := bayes.Config{Mode: core.ByClass, Noise: models}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker exploded", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := TrainNaiveBayes(stream.FromTable(perturbed, 0), cfg, Options{
		Shards:     2,
		WorkerURLs: []string{srv.URL},
	})
	if err == nil {
		t.Fatal("failing worker produced no error")
	}
	if !strings.Contains(err.Error(), "worker exploded") {
		t.Errorf("error %q does not carry the worker's message", err)
	}
}

// TestRemoteWorkerOversizedReply checks that a worker whose decompressed
// reply outgrows the reply cap fails the shard with an error naming the cap,
// instead of being decoded into the coordinator's memory without bound.
func TestRemoteWorkerOversizedReply(t *testing.T) {
	perturbed, models := clusterData(t, 2000, 7)
	cfg := bayes.Config{Mode: core.ByClass, Noise: models}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/gzip")
		gz, _ := gzip.NewWriterLevel(w, gzip.BestSpeed)
		defer gz.Close()
		// A JSON prefix that stays well-formed for longer than the cap.
		if _, err := io.WriteString(gz, `{"hist": [`); err != nil {
			return
		}
		pad := bytes.Repeat([]byte(" "), 1<<16)
		for n := 0; n <= maxShardReply; n += len(pad) {
			if _, err := gz.Write(pad); err != nil {
				return
			}
		}
		_, _ = io.WriteString(gz, "]}")
	}))
	defer srv.Close()
	_, err := TrainNaiveBayes(stream.FromTable(perturbed, 0), cfg, Options{
		Shards:     1,
		WorkerURLs: []string{srv.URL},
	})
	if err == nil {
		t.Fatal("oversized worker reply accepted")
	}
	if !strings.Contains(err.Error(), strconv.Itoa(maxShardReply)) {
		t.Errorf("error %q does not name the %d-byte cap", err, maxShardReply)
	}
}

// TestWorkerHandlerRejects checks the worker endpoint's input validation.
func TestWorkerHandlerRejects(t *testing.T) {
	schema := synth.Schema()
	configure := func(q url.Values) (bayes.Config, error) { return bayes.Config{Mode: core.Original}, nil }
	srv := httptest.NewServer(NewWorkerHandler(schema, configure))
	defer srv.Close()

	if resp, err := http.Get(srv.URL + ShardTrainPath); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET answered %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(srv.URL+ShardTrainPath, "application/gzip", strings.NewReader("not a gzip stream"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body answered %d, want 400", resp.StatusCode)
	}

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz answered %d, want 200", resp.StatusCode)
		}
	}
}
