package noise

import (
	"fmt"
	"io"

	"ppdm/internal/dataset"
	"ppdm/internal/stream"
)

// PerturbChunk is the fixed record-chunk length of perturbation. Each chunk
// draws its noise from an independent PRNG substream derived from the seed
// and the chunk index, so the chunk grid — and therefore the output —
// depends only on the record count and the seed, never on the worker count
// or the batch size.
const PerturbChunk = 2048

// PerturbTable returns a deep copy of t in which each attribute listed in
// models has independent noise added to every record (the paper's data
// collection step: each provider randomizes its own record). Class labels
// are never perturbed. Perturbation is deterministic in seed and runs on all
// available cores; use PerturbTableWorkers to bound the parallelism.
func PerturbTable(t *dataset.Table, models map[int]Model, seed uint64) (*dataset.Table, error) {
	return PerturbTableWorkers(t, models, seed, 0)
}

// PerturbTableWorkers is PerturbTable with an explicit worker count
// (0 = all cores). It runs PerturbStream over the whole table as one batch
// and adopts the perturbed batch, so the output is bit-identical to the
// streamed perturbation at every worker count and batch size.
func PerturbTableWorkers(t *dataset.Table, models map[int]Model, seed uint64, workers int) (*dataset.Table, error) {
	src, err := PerturbStream(stream.FromTable(t, t.N()), models, seed, workers)
	if err != nil {
		return nil, err
	}
	b, err := src.Next()
	if err == io.EOF {
		return dataset.NewTable(t.Schema()), nil
	}
	if err != nil {
		return nil, err
	}
	return dataset.NewTableFromDense(t.Schema(), b.Values, b.Labels)
}

// modelsByAttr checks a model map against a schema of nAttrs attributes and
// resolves it into an attribute-indexed slice, nil meaning unperturbed, so
// the per-value loops index a slice instead of looking up the map.
func modelsByAttr(models map[int]Model, nAttrs int) ([]Model, error) {
	byAttr := make([]Model, nAttrs)
	for j, m := range models {
		if j < 0 || j >= nAttrs {
			return nil, fmt.Errorf("noise: model for attribute %d, records have %d attributes", j, nAttrs)
		}
		if m == nil {
			return nil, fmt.Errorf("noise: nil model for attribute %d", j)
		}
		byAttr[j] = m
	}
	return byAttr, nil
}

// ModelsForAllAttrs builds the per-attribute model map used throughout the
// paper's experiments: every attribute receives noise of the same family at
// the same privacy level, scaled to that attribute's own domain width.
func ModelsForAllAttrs(s *dataset.Schema, family string, level, conf float64) (map[int]Model, error) {
	models := make(map[int]Model, s.NumAttrs())
	for j, a := range s.Attrs {
		m, err := ForPrivacy(family, level, a.Width(), conf)
		if err != nil {
			return nil, fmt.Errorf("noise: attribute %q: %w", a.Name, err)
		}
		models[j] = m
	}
	return models, nil
}

// ModelsForAttrs is ModelsForAllAttrs restricted to the given attribute
// indices.
func ModelsForAttrs(s *dataset.Schema, attrs []int, family string, level, conf float64) (map[int]Model, error) {
	all, err := ModelsForAllAttrs(s, family, level, conf)
	if err != nil {
		return nil, err
	}
	models := make(map[int]Model, len(attrs))
	for _, j := range attrs {
		if j < 0 || j >= s.NumAttrs() {
			return nil, fmt.Errorf("noise: attribute index %d out of range", j)
		}
		models[j] = all[j]
	}
	return models, nil
}

// DiscretizeTable applies the paper's value-class-membership operator: each
// listed attribute's value is replaced by the midpoint of its interval when
// the attribute's domain is split into k equal-width intervals. Values
// outside the domain are clamped to the first or last interval. The result
// is a deep copy.
func DiscretizeTable(t *dataset.Table, attrs []int, k int) (*dataset.Table, error) {
	if k <= 0 {
		return nil, fmt.Errorf("noise: discretization needs k > 0 intervals, got %d", k)
	}
	s := t.Schema()
	for _, j := range attrs {
		if j < 0 || j >= s.NumAttrs() {
			return nil, fmt.Errorf("noise: attribute index %d out of range", j)
		}
	}
	out := t.Clone()
	for _, j := range attrs {
		a := s.Attrs[j]
		width := a.Width() / float64(k)
		for i := 0; i < out.N(); i++ {
			v := out.Row(i)[j]
			bin := int((v - a.Lo) / width)
			if bin < 0 {
				bin = 0
			}
			if bin >= k {
				bin = k - 1
			}
			out.SetValue(i, j, a.Lo+(float64(bin)+0.5)*width)
		}
	}
	return out, nil
}
