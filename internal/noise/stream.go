package noise

import (
	"fmt"

	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/stream"
)

// perturbStream perturbs record batches as they flow.
type perturbStream struct {
	src     stream.Source
	models  []Model // attribute-indexed; nil means unperturbed
	cursor  *stream.ChunkCursor
	workers int
}

// PerturbStream wraps a record stream so that every batch is perturbed in
// flight — the paper's collection model, where each record is randomized
// before it reaches the server, with O(batch) memory however large the
// table. Noise for global record i always comes from the i/PerturbChunk-th
// substream of the seed (tracked across batch boundaries by a
// stream.ChunkCursor), so the output is the same at any worker count and
// any batch size; PerturbTableWorkers is this stream over one batch.
// Batches are perturbed in place: the returned source yields the upstream
// batches with their values modified.
func PerturbStream(src stream.Source, models map[int]Model, seed uint64, workers int) (stream.Source, error) {
	byAttr, err := modelsByAttr(models, src.Schema().NumAttrs())
	if err != nil {
		return nil, err
	}
	return &perturbStream{
		src:     src,
		models:  byAttr,
		cursor:  stream.NewChunkCursor(seed, PerturbChunk),
		workers: workers,
	}, nil
}

// Schema implements stream.Source.
func (p *perturbStream) Schema() *dataset.Schema { return p.src.Schema() }

// Next implements stream.Source: it pulls the next upstream batch, adds
// noise to every modeled attribute, and returns the batch.
func (p *perturbStream) Next() (*stream.Batch, error) {
	b, err := p.src.Next()
	if err != nil {
		return nil, err
	}
	if b.Start != p.cursor.Pos() {
		return nil, fmt.Errorf("noise: batch starts at %d, stream cursor at %d (batches must arrive in order)",
			b.Start, p.cursor.Pos())
	}
	spans, err := p.cursor.Advance(b.N())
	if err != nil {
		return nil, err
	}
	// Spans own independent chunk substreams and disjoint record ranges, so
	// they run in parallel.
	parallel.ForEach(len(spans), p.workers, func(si int) error {
		sp := spans[si]
		r := sp.R
		for i := sp.Lo; i < sp.Hi; i++ {
			row := b.Row(i - b.Start)
			for j, m := range p.models {
				if m != nil {
					row[j] += m.Sample(r)
				}
			}
		}
		return nil
	})
	return b, nil
}
