package synth

import (
	"fmt"
	"io"

	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/stream"
)

// Streamer generates the benchmark as a record stream: batches are drawn on
// demand, so a table of any size flows through the pipeline with O(batch)
// memory. Each GenChunk-sized grid chunk draws from its own prng.SplitN
// substream, tracked across batch boundaries by stream.ChunkCursor, so the
// records are the same at any worker count and any batch size. It
// implements stream.Source.
type Streamer struct {
	cfg    Config
	schema *dataset.Schema
	batch  int
	attrs  *stream.ChunkCursor
	noise  *stream.ChunkCursor
}

// Stream returns a Streamer yielding cfg.N records, batch records at a time
// (0 = stream.DefaultBatchSize). It validates cfg.
func Stream(cfg Config, batch int) (*Streamer, error) {
	if !cfg.Function.Valid() {
		return nil, fmt.Errorf("synth: invalid function %d", int(cfg.Function))
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("synth: N must be positive, got %d", cfg.N)
	}
	if cfg.LabelNoise < 0 || cfg.LabelNoise > 1 {
		return nil, fmt.Errorf("synth: label noise %v not in [0,1]", cfg.LabelNoise)
	}
	return &Streamer{
		cfg:    cfg,
		schema: Schema(),
		batch:  stream.BatchSize(batch),
		attrs:  stream.NewChunkCursor(cfg.Seed, GenChunk),
		noise:  stream.NewChunkCursor(cfg.Seed^labelNoiseSeedMix, GenChunk),
	}, nil
}

// Schema implements stream.Source.
func (g *Streamer) Schema() *dataset.Schema { return g.schema }

// Next implements stream.Source: it generates the next batch of records, or
// returns (nil, io.EOF) after record N-1.
func (g *Streamer) Next() (*stream.Batch, error) {
	start := g.attrs.Pos()
	n := g.cfg.N - start
	if n <= 0 {
		return nil, io.EOF
	}
	if n > g.batch {
		n = g.batch
	}
	b := &stream.Batch{
		Start:  start,
		Values: make([]float64, n*numAttrs),
		Labels: make([]int, n),
	}
	attrSpans, err := g.attrs.Advance(n)
	if err != nil {
		return nil, err
	}
	noiseSpans, err := g.noise.Advance(n)
	if err != nil {
		return nil, err
	}
	// The two cursors share the chunk geometry, so the decompositions align
	// span for span; each span owns independent substreams and the spans
	// write disjoint batch slices, so they run in parallel.
	parallel.ForEach(len(attrSpans), g.cfg.Workers, func(si int) error {
		sp, nsp := attrSpans[si], noiseSpans[si]
		r, noiseRNG := sp.R, nsp.R
		for i := sp.Lo; i < sp.Hi; i++ {
			rec := b.Values[(i-start)*numAttrs : (i-start+1)*numAttrs]
			sampleRecord(r, rec)
			label := g.cfg.Function.Classify(rec)
			if g.cfg.LabelNoise > 0 && noiseRNG.Bernoulli(g.cfg.LabelNoise) {
				label = 1 - label
			}
			b.Labels[i-start] = label
		}
		return nil
	})
	return b, nil
}
