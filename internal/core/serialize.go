package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ppdm/internal/dataset"
	"ppdm/internal/reconstruct"
	"ppdm/internal/tree"
)

// classifierJSON is the on-disk representation of a trained classifier: the
// schema is flattened into attributes + class names so the whole model is a
// single self-describing JSON document.
type classifierJSON struct {
	Format     string                  `json:"format"`
	Mode       string                  `json:"mode"`
	Attrs      []dataset.Attribute     `json:"attrs"`
	Classes    []string                `json:"classes"`
	Partitions []reconstruct.Partition `json:"partitions"`
	Tree       *tree.Tree              `json:"tree"`
}

// ModelFormat identifies the decision-tree serialization format/version.
// Load rejects any other format string; bump the suffix when the document
// layout changes incompatibly.
const ModelFormat = "ppdm-classifier/1"

// WriteFileAtomic writes a file through a temp file in the destination's
// own directory plus an atomic rename, so a crash mid-write can never
// leave a truncated document at path — it either keeps its previous
// content or holds the complete new one. This is the install discipline
// every model writer must use for a path the serving daemon hot-reloads.
// The result is world-readable (0644), like a plain create, regardless of
// the temp-file default.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// PeekFormat decodes only the "format" field of a serialized model
// document, tolerating unknown fields — the dispatch step a multi-format
// loader (e.g. the serving daemon) runs before committing to a strict
// decoder.
func PeekFormat(data []byte) (string, error) {
	var head struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("core: decoding model document: %w", err)
	}
	return head.Format, nil
}

// Save writes the classifier as JSON. The model is self-contained: Load
// restores it without access to the training data.
func (c *Classifier) Save(w io.Writer) error {
	if c == nil || c.Tree == nil || c.Schema == nil {
		return errors.New("core: cannot save incomplete classifier")
	}
	doc := classifierJSON{
		Format:     ModelFormat,
		Mode:       c.Mode.String(),
		Attrs:      c.Schema.Attrs,
		Classes:    c.Schema.Classes,
		Partitions: c.Partitions,
		Tree:       c.Tree,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Load restores a classifier saved with Save, validating the document
// thoroughly (it may come from an untrusted source).
func Load(r io.Reader) (*Classifier, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading classifier: %w", err)
	}
	// Check the format version before the strict decode, so a document of a
	// different (or future) format is reported as such instead of as an
	// unknown-field soup.
	format, err := PeekFormat(data)
	if err != nil {
		return nil, err
	}
	if format != ModelFormat {
		return nil, fmt.Errorf("core: unsupported model format %q (this build reads %q)", format, ModelFormat)
	}
	var doc classifierJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding classifier: %w", err)
	}
	mode, err := ParseMode(doc.Mode)
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(doc.Attrs, doc.Classes)
	if err != nil {
		return nil, fmt.Errorf("core: invalid schema in model: %w", err)
	}
	if len(doc.Partitions) != schema.NumAttrs() {
		return nil, fmt.Errorf("core: model has %d partitions for %d attributes", len(doc.Partitions), schema.NumAttrs())
	}
	for j, p := range doc.Partitions {
		if _, err := reconstruct.NewPartition(p.Lo, p.Hi, p.K); err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", j, err)
		}
	}
	if doc.Tree == nil {
		return nil, errors.New("core: model has no tree")
	}
	if err := doc.Tree.Validate(); err != nil {
		return nil, err
	}
	if doc.Tree.NumAttrs != schema.NumAttrs() {
		return nil, fmt.Errorf("core: tree expects %d attributes, schema has %d", doc.Tree.NumAttrs, schema.NumAttrs())
	}
	if doc.Tree.NumClasses != schema.NumClasses() {
		return nil, fmt.Errorf("core: tree expects %d classes, schema has %d", doc.Tree.NumClasses, schema.NumClasses())
	}
	// every split cut must lie inside its attribute's partition
	var checkCuts func(n *tree.Node) error
	checkCuts = func(n *tree.Node) error {
		if n.IsLeaf() {
			return nil
		}
		if n.Cut >= doc.Partitions[n.Attr].K-1 {
			return fmt.Errorf("core: cut %d outside partition of attribute %d (%d intervals)", n.Cut, n.Attr, doc.Partitions[n.Attr].K)
		}
		if err := checkCuts(n.Left); err != nil {
			return err
		}
		return checkCuts(n.Right)
	}
	if err := checkCuts(doc.Tree.Root); err != nil {
		return nil, err
	}
	return newClassifier(mode, doc.Tree, schema, doc.Partitions)
}
