package tree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ppdm/internal/parallel"
)

// Default growth limits used when the corresponding Config field is zero.
const (
	DefaultMaxDepth = 30
	DefaultMinLeaf  = 5
	DefaultMinGain  = 1e-9
	// DefaultSubtreeMinRows is the subtree-parallelism cutoff: a child with
	// fewer records grows inline on its parent's goroutine, because the
	// task-submission cost would exceed the work.
	DefaultSubtreeMinRows = 4096
)

// Config controls tree growth. The zero value gives sensible defaults with
// pessimistic pruning enabled.
type Config struct {
	// MaxDepth limits tree depth (root has depth 0). 0 means DefaultMaxDepth.
	MaxDepth int
	// MinLeaf is the minimum number of records in each child of a split.
	// 0 means DefaultMinLeaf.
	MinLeaf int
	// MinGain is the minimum gini improvement required to split. 0 means
	// DefaultMinGain.
	MinGain float64
	// DisablePruning turns off the post-growth pessimistic pruning pass.
	DisablePruning bool
	// Workers bounds the growth parallelism; 0 means all cores. The two
	// axes — fork-join growth of left/right subtrees and the per-node
	// attribute split search — share the budget rather than multiplying
	// it: each node's attribute fan-out is throttled by the number of
	// subtree tasks currently in flight, keeping total concurrency near
	// Workers. Grown trees are bit-identical for every worker count: each
	// attribute's best split is found independently and the winners are
	// compared in ascending attribute order (reproducing the serial scan's
	// tie-breaking), subtrees are data-independent tasks, and Importance
	// is folded in a deterministic pre-order pass after growth.
	Workers int
	// SubtreeMinRows is the minimum number of records in BOTH children of
	// a split for the two subtrees to grow as parallel fork-join tasks —
	// the size cutoff below which recursion stays inline (which also caps
	// the forking depth, since node sizes shrink monotonically down any
	// path). 0 means DefaultSubtreeMinRows; negative disables subtree
	// parallelism entirely, leaving only the per-node attribute fan-out.
	// The grown tree is identical for every value.
	SubtreeMinRows int
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = DefaultMinLeaf
	}
	if c.MinGain == 0 {
		c.MinGain = DefaultMinGain
	}
	if c.SubtreeMinRows == 0 {
		c.SubtreeMinRows = DefaultSubtreeMinRows
	}
	return c
}

func (c Config) validate() error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("tree: MaxDepth %d must be non-negative", c.MaxDepth)
	}
	if c.MinLeaf < 0 {
		return fmt.Errorf("tree: MinLeaf %d must be non-negative", c.MinLeaf)
	}
	if c.MinGain < 0 {
		return fmt.Errorf("tree: MinGain %v must be non-negative", c.MinGain)
	}
	return nil
}

// Node is one decision-tree node. Leaves have Left == Right == nil.
type Node struct {
	// Attr and Cut define the split of an internal node: records with
	// interval index <= Cut on attribute Attr go left, the rest go right.
	Attr int
	Cut  int

	Left, Right *Node

	// Class is the majority class at this node (used when the node is a
	// leaf, and as a fallback during pruning).
	Class int
	// Counts holds the per-class record counts seen at this node during
	// training.
	Counts []int

	// gain is the gini gain of this node's split, kept until the
	// post-growth Importance fold (subtrees grow concurrently, so
	// accumulating during growth would order float additions by schedule).
	gain float64
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained decision tree.
type Tree struct {
	Root       *Node
	NumAttrs   int
	NumClasses int

	// Importance[attr] accumulates the record-weighted gini gain of every
	// split on attr; a crude but useful attribute-relevance signal.
	Importance []float64
}

// Grow builds a tree from the source. Growth is deterministic: ties between
// equally good splits are broken toward the lower attribute index and lower
// cut, and the result is bit-identical for every worker count.
func Grow(src Source, cfg Config) (*Tree, error) {
	if src == nil {
		return nil, errors.New("tree: nil source")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	labels := src.Labels()
	if len(labels) == 0 {
		return nil, errors.New("tree: empty training set")
	}
	if src.NumAttrs() == 0 {
		return nil, errors.New("tree: source has no attributes")
	}
	t := &Tree{
		NumAttrs:   src.NumAttrs(),
		NumClasses: src.NumClasses(),
		Importance: make([]float64, src.NumAttrs()),
	}
	rows := make([]int, len(labels))
	for i := range rows {
		rows[i] = i
	}
	g := &grower{
		src:    src,
		labels: labels,
		cfg:    cfg,
		total:  len(rows),
		fj:     parallel.NewForkJoin(cfg.Workers),
	}
	spans := make([]Span, src.NumAttrs())
	for a := range spans {
		spans[a] = Span{Lo: 0, Hi: src.Bins(a) - 1}
	}
	t.Root = g.grow(&growTask{}, rows, spans, 0)
	if err := g.err(); err != nil {
		return nil, err
	}
	// Fold Importance in pre-order — node, left subtree, right subtree —
	// which is exactly the addition order of a serial recursion, so the
	// totals are bit-identical at any worker count. The fold runs before
	// pruning on purpose: a split contributes even when later collapsed,
	// matching the learner's historical behaviour.
	g.foldImportance(t, t.Root)
	if !cfg.DisablePruning {
		prune(t.Root)
	}
	return t, nil
}

// grower holds the per-Grow state shared by all subtree tasks. Everything
// here is either immutable during growth or internally synchronized; all
// mutable scratch lives in growTask.
type grower struct {
	src    Source
	labels []int // src.Labels(), hoisted out of the hot loops
	cfg    Config
	total  int
	fj     *parallel.ForkJoin

	// spawned counts subtree tasks currently running on their own
	// goroutines; the per-node attribute fan-out divides the Workers
	// budget by it so the two axes compose without oversubscription. The
	// count only throttles scheduling — results never depend on it.
	spawned atomic.Int64

	failed   atomic.Bool
	mu       sync.Mutex
	firstErr error
}

// growTask is the scratch of one growth goroutine: a spawned subtree gets a
// fresh task, an inline recursion reuses its parent's. bits is the rowID
// bitmap of node partitioning (lazily sized to the full row range; subtree
// row sets interleave, so tasks must not share words).
type growTask struct {
	bits bitmap
}

// attrWorkers returns this node's share of the Workers budget for the
// attribute split search: the full budget when growth is serial, shrinking
// as spawned subtree tasks occupy workers of their own.
func (g *grower) attrWorkers() int {
	w := parallel.Workers(g.cfg.Workers)
	share := w / (1 + int(g.spawned.Load()))
	if share < 1 {
		return 1
	}
	return share
}

// fail records the first error encountered; later growth short-circuits.
func (g *grower) fail(err error) {
	g.mu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.mu.Unlock()
	g.failed.Store(true)
}

func (g *grower) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstErr
}

func (g *grower) grow(t *growTask, rows []int, spans []Span, depth int) *Node {
	if g.failed.Load() {
		return nil
	}
	node := &Node{Counts: g.classCounts(rows)}
	node.Class = argmax(node.Counts)

	if depth >= g.cfg.MaxDepth || len(rows) < 2*g.cfg.MinLeaf || isPure(node.Counts) {
		return node
	}
	best, err := findBestSplit(g.src, rows, spans, node.Counts, g.cfg.MinLeaf, g.attrWorkers())
	if err != nil {
		g.fail(err)
		return nil
	}
	if best.attr < 0 || best.gain < g.cfg.MinGain {
		return node
	}
	left, right, err := g.partition(t, rows, best)
	if err != nil {
		g.fail(err)
		return nil
	}
	if len(left) < g.cfg.MinLeaf || len(right) < g.cfg.MinLeaf {
		return node
	}
	node.Attr = best.attr
	node.Cut = best.cut
	node.gain = best.gain * float64(len(rows)) / float64(g.total)

	// Children inherit the path constraints, narrowed by this split.
	leftSpans := append([]Span(nil), spans...)
	rightSpans := append([]Span(nil), spans...)
	leftSpans[best.attr].Hi = best.cut
	rightSpans[best.attr].Lo = best.cut + 1

	// Above the cutoff the two subtrees grow as fork-join tasks; the right
	// child runs on a spawned goroutine when a worker is free — with fresh
	// scratch, since it races the left child — and inline (after the left
	// child, reusing this task's scratch) otherwise. Below the cutoff,
	// recursion stays serial on this task. Either way the children are
	// computed from disjoint row sets with no shared mutable state, so the
	// result is schedule-free.
	if min := g.cfg.SubtreeMinRows; min >= 0 && len(left) >= min && len(right) >= min {
		g.fj.Do(
			func() { node.Left = g.grow(t, left, leftSpans, depth+1) },
			func(spawned bool) {
				rt := t
				if spawned {
					rt = &growTask{}
					g.spawned.Add(1)
					defer g.spawned.Add(-1)
				}
				node.Right = g.grow(rt, right, rightSpans, depth+1)
			},
		)
	} else {
		node.Left = g.grow(t, left, leftSpans, depth+1)
		node.Right = g.grow(t, right, rightSpans, depth+1)
	}
	return node
}

// partition routes the node's rows on the chosen split by a bitmap join
// against the winning attribute's list.
func (g *grower) partition(t *growTask, rows []int, best split) (left, right []int, err error) {
	if t.bits == nil {
		t.bits = newBitmap(g.total)
	}
	return partitionRows(g.src.AttrList(best.attr), rows, best.cut, t.bits)
}

// classCounts tallies the node's records per class.
func (g *grower) classCounts(rows []int) []int {
	counts := make([]int, g.src.NumClasses())
	for _, r := range rows {
		counts[g.labels[r]]++
	}
	return counts
}

// foldImportance walks the grown tree in pre-order, adding each split's
// stored gain into the per-attribute Importance totals.
func (g *grower) foldImportance(t *Tree, n *Node) {
	if n == nil || n.IsLeaf() {
		return
	}
	t.Importance[n.Attr] += n.gain
	g.foldImportance(t, n.Left)
	g.foldImportance(t, n.Right)
}

func isPure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argmax(counts []int) int {
	best, bestC := 0, -1
	for i, c := range counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return best
}

// Predict classifies a record given its interval indices (one per
// attribute).
func (t *Tree) Predict(x []int) (int, error) {
	if len(x) != t.NumAttrs {
		return 0, fmt.Errorf("tree: record has %d attributes, tree expects %d", len(x), t.NumAttrs)
	}
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Attr] <= n.Cut {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class, nil
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return countNodes(t.Root) }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return countLeaves(t.Root) }

// Depth returns the depth of the deepest leaf (root = 0).
func (t *Tree) Depth() int { return depthOf(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

func depthOf(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depthOf(n.Left), depthOf(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}
